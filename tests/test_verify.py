"""Exact check counts of the ``kzero verify`` suites, and what they catch."""

import dataclasses
import random
from pathlib import Path

import pytest

import kzero.verify
import reference
from kzero import K0Class, LaurentPoly, RuledSurface, TruncatedSeries, ValidationError, curve, point, series_invert
from kzero.cli import main
from kzero.series import ruled_piece
from kzero.verify import (
    INVERSION_ORDER,
    INVERSION_SEED,
    INVERSION_TRIALS,
    MAX_RECORDED_FAILURES,
    intersection_suite,
    radical_suite,
    random_unit_poly,
    rank_law_suite,
    run_all,
)


def counts(results):
    return [(r.name, r.passed, r.failed) for r in results]


def test_default_sweep_check_counts():
    assert counts(run_all()) == [
        ("intersection identities", 2904, 0),
        ("hilbert rank law", 242, 0),
        ("series inversion identity", 200, 0),
        ("radical and Neron-Severi lattice", 1452, 0),
    ]


def test_smallest_grid_check_counts():
    assert counts(run_all(0, 0)) == [
        ("intersection identities", 4, 0),
        ("hilbert rank law", 2, 0),
        ("series inversion identity", 200, 0),
        ("radical and Neron-Severi lattice", 2, 0),
    ]


BAD_GRIDS = {
    "negative GMAX": lambda: run_all(-1, 5),
    "negative DMAX": lambda: run_all(5, -1),
    "float GMAX": lambda: intersection_suite(2.5, 1),
    "bool GMAX": lambda: radical_suite(True, 1),
    "negative rank-law DMAX": lambda: rank_law_suite(-1),
}


@pytest.mark.parametrize("sweep", BAD_GRIDS.values(), ids=BAD_GRIDS)
def test_the_library_sweep_refuses_a_bad_grid_bound(sweep):
    # a sweep over an empty grid checks nothing, and a fractional bound is no grid at all
    with pytest.raises(ValidationError, match="GMAX and DMAX must be >= 0"):
        sweep()


@pytest.mark.parametrize(
    "wrong_piece, failed",
    [
        (lambda de, dq, n: ruled_piece(de, dq, n + 1), 242),  # B_{n+1}: ranks and series both wrong
        (lambda de, dq, n: ruled_piece(de, dq, n - 1), 242),
        (lambda de, dq, n: (lambda r, d: (r, d + 1))(*ruled_piece(de, dq, n)), 121),  # degree + 1
        (lambda de, dq, n: (lambda r, d: (r, d + (n == 50)))(*ruled_piece(de, dq, n)), 121),  # only B_50
    ],
)
def test_rank_law_suite_catches_an_off_by_one_hilbert_coeff(monkeypatch, wrong_piece, failed):
    monkeypatch.setattr(kzero.verify, "ruled_piece", wrong_piece)
    res = rank_law_suite()
    assert (res.passed + res.failed, res.failed) == (242, failed)


def test_rank_law_suite_builds_only_the_surface_classes(monkeypatch):
    # two K0Class objects per grid pair, E and Q of the surface: no piece goes through a class
    built = []
    post_init = K0Class.__post_init__
    monkeypatch.setattr(K0Class, "__post_init__", lambda c: built.append(c) or post_init(c))
    res = rank_law_suite()
    assert (res.passed, res.failed, len(built)) == (242, 0, 242)


def inversion_trials():
    """The (trial, polynomial) pairs that ``inversion_suite`` draws."""
    rng = random.Random(INVERSION_SEED)
    for t in range(INVERSION_TRIALS):
        base = curve(rng.randint(0, 5))
        yield t, random_unit_poly(rng, base)


def test_inversion_failure_messages_name_the_trial_and_polynomial(monkeypatch):
    def corrupted(p, order):
        s = series_invert(p, order)
        if p.ranks[0] == 1:
            raise ArithmeticError("corrupted")
        if len(p.ranks) % 2:
            return TruncatedSeries._dense(s.base, (s.ranks()[0] + 1,) + s.ranks()[1:], s._degrees)
        return s

    monkeypatch.setattr(kzero.verify, "series_invert", corrupted)
    res = kzero.verify.inversion_suite()
    want = []
    for t, p in inversion_trials():
        message = f"p * p^-1 != 1 mod T^{INVERSION_ORDER + 1} for trial {t}: p = {p!r}"
        if p.ranks[0] == 1:
            want.append(f"{message}: raised ArithmeticError('corrupted')")
        elif len(p.ranks) % 2:
            want.append(message)
    assert res.failed == len(want) and res.passed == INVERSION_TRIALS - len(want)
    assert res.failures == want[:MAX_RECORDED_FAILURES]
    assert any("raised" in m for m in res.failures) and any("raised" not in m for m in res.failures)


def test_passing_inversion_checks_format_no_polynomial(monkeypatch):
    calls = []
    original = LaurentPoly.__repr__
    monkeypatch.setattr(LaurentPoly, "__repr__", lambda p: calls.append(1) or original(p))
    res = kzero.verify.inversion_suite()
    assert (res.passed, res.failed, len(calls)) == (INVERSION_TRIALS, 0, 0)


def _raise(*args):
    raise ArithmeticError("broken")


@pytest.mark.parametrize(
    "owner, name",
    [(kzero.verify, "series_invert"), (RuledSurface, "from_degrees"), (kzero.verify, "ruled_piece")],
)
def test_a_pair_that_raises_fails_both_of_its_rank_law_checks(monkeypatch, owner, name):
    monkeypatch.setattr(owner, name, _raise)
    res = rank_law_suite()
    assert (res.passed, res.failed) == (0, 242)
    assert res.failures[:2] == [
        "rank law raised at (deg E=-5, deg Q=-5): ArithmeticError('broken')",
        "series inversion unavailable at (deg E=-5, deg Q=-5)",
    ]


def test_the_failing_rank_law_count_is_the_grid_count(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import oracles

    monkeypatch.setattr(kzero.verify, "series_invert", _raise)
    for dmax in (0, 1, 5):
        res = rank_law_suite(dmax)
        assert (res.passed, res.failed) == (0, oracles.verify_check_counts(0, dmax)["hilbert rank law"])


def test_verify_exits_two_when_a_rank_law_check_raises(monkeypatch, capsys):
    monkeypatch.setattr(kzero.verify, "series_invert", _raise)
    assert main(["verify", "--grid", "0,0"]) == 2
    out = capsys.readouterr().out
    assert "hilbert rank law: passed=0 failed=2\n" in out
    assert "  FAIL series inversion unavailable at (deg E=0, deg Q=0)\n" in out
    assert out.endswith("verification FAILED (202 failures)\n")


@pytest.mark.parametrize("name", ["from_degrees", "fiber_class", "section_class"])
def test_a_surface_whose_classes_raise_fails_its_four_intersection_checks(monkeypatch, name):
    monkeypatch.setattr(RuledSurface, name, _raise)
    res = kzero.verify.intersection_suite(0, 0)
    assert (res.passed, res.failed) == (0, 4)
    assert res.failures == [
        "intersection classes raised at (g=0, deg E=0, deg Q=0): ArithmeticError('broken')",
        *["intersection numbers unavailable at (g=0, deg E=0, deg Q=0)"] * 3,
    ]


def _is_h_h(s, a, b):
    return a == b == s.section_class()


def test_the_intersection_suite_catches_a_wrong_h_h_pairing(monkeypatch):
    # neron_severi walks its own Gram, so a wrong pairing fails the intersection checks alone
    intersect = RuledSurface.intersect
    monkeypatch.setattr(RuledSurface, "intersect", lambda s, a, b: intersect(s, a, b) + _is_h_h(s, a, b))
    results = run_all(0, 1)
    assert counts(results) == [
        ("intersection identities", 27, 9),
        ("hilbert rank law", 18, 0),
        ("series inversion identity", 200, 0),
        ("radical and Neron-Severi lattice", 18, 0),
    ]
    assert results[0].failures[0] == "H.H != deg E at (g=0, deg E=-1, deg Q=-1)"
    assert all(m.startswith("H.H != deg E at ") for m in results[0].failures)


def test_a_pairing_that_raises_fails_all_four_intersection_checks_of_its_surface(monkeypatch, capsys):
    intersect = RuledSurface.intersect
    monkeypatch.setattr(RuledSurface, "intersect", lambda s, a, b: _raise() if _is_h_h(s, a, b) else intersect(s, a, b))
    res = kzero.verify.intersection_suite(0, 0)
    assert (res.passed, res.failed) == (0, 4)
    assert res.failures == [
        "intersection classes raised at (g=0, deg E=0, deg Q=0): ArithmeticError('broken')",
        *["intersection numbers unavailable at (g=0, deg E=0, deg Q=0)"] * 3,
    ]
    assert main(["verify", "--grid", "0,0"]) == 2
    out, err = capsys.readouterr()
    assert "intersection identities: passed=0 failed=4\n" in out
    assert "radical and Neron-Severi lattice: passed=2 failed=0\n" in out
    assert out.endswith("verification FAILED (4 failures)\n")
    assert "Traceback" not in out + err


def test_a_surface_that_cannot_be_built_fails_both_of_its_radical_checks(monkeypatch):
    monkeypatch.setattr(RuledSurface, "from_degrees", _raise)
    res = kzero.verify.radical_suite(0, 0)
    assert (res.passed, res.failed) == (0, 2)
    assert res.failures == [
        "lattice computation raised at (g=0, deg E=0, deg Q=0): ArithmeticError('broken')",
        "quotient Gram unavailable at (g=0, deg E=0, deg Q=0)",
    ]


def test_verify_exits_two_without_a_traceback_when_the_fiber_class_raises(monkeypatch, capsys):
    monkeypatch.setattr(RuledSurface, "fiber_class", _raise)
    assert main(["verify", "--grid", "0,0"]) == 2
    out, err = capsys.readouterr()
    assert "intersection identities: passed=0 failed=4\n" in out
    assert "  FAIL intersection numbers unavailable at (g=0, deg E=0, deg Q=0)\n" in out
    assert "radical and Neron-Severi lattice: passed=0 failed=2\n" in out
    assert out.endswith("verification FAILED (6 failures)\n")
    assert "Traceback" not in out + err


def test_a_wrong_kernel_fails_exactly_the_radical_checks(monkeypatch, capsys):
    # the radical suite checks neron_severi's radical against its own integer kernel
    monkeypatch.setattr(kzero.verify, "integer_kernel", lambda mat: [[0, 2, 0]])
    assert counts(run_all(0, 0)) == [
        ("intersection identities", 4, 0),
        ("hilbert rank law", 2, 0),
        ("series inversion identity", 200, 0),
        ("radical and Neron-Severi lattice", 1, 1),
    ]
    assert main(["verify", "--grid", "0,0"]) == 2
    out = capsys.readouterr().out
    assert "  FAIL radical is not the span of fiber.H at (g=0, deg E=0, deg Q=0)\n" in out
    assert out.endswith("verification FAILED (1 failures)\n")


def test_a_wrong_radical_from_neron_severi_fails_the_radical_check(monkeypatch):
    # the kernel agrees up to sign, but reports print neron_severi's radical, so (0, -1, 0) is a failure
    neron_severi = RuledSurface.neron_severi
    monkeypatch.setattr(
        RuledSurface, "neron_severi", lambda s: dataclasses.replace(neron_severi(s), radical_basis=((0, -1, 0),))
    )
    res = kzero.verify.radical_suite(0, 0)
    assert (res.passed, res.failed) == (1, 1)
    assert res.failures == ["radical is not the span of fiber.H at (g=0, deg E=0, deg Q=0)"]


@pytest.mark.parametrize("grid, kernels, checks", [((5, 5), 11, 1452), ((2, 7), 15, 1350), ((0, 0), 1, 2)])
def test_the_radical_suite_solves_one_kernel_per_distinct_gram(monkeypatch, grid, kernels, checks):
    # the Gram depends on deg E alone, so a grid bounded by dmax has 2 * dmax + 1 of them
    grams = []
    integer_kernel = kzero.verify.integer_kernel
    monkeypatch.setattr(kzero.verify, "integer_kernel", lambda mat: grams.append(mat) or integer_kernel(mat))
    res = kzero.verify.radical_suite(*grid)
    assert (res.passed, res.failed) == (checks, 0)
    assert len(grams) == kernels == len({tuple(map(tuple, mat)) for mat in grams})


def test_a_kernel_wrong_for_one_gram_fails_every_surface_sharing_it(monkeypatch):
    # the deg E = 0 Gram is the one whose H.H entry is zero; a shared kernel must still fail each of its surfaces
    integer_kernel = kzero.verify.integer_kernel
    monkeypatch.setattr(
        kzero.verify, "integer_kernel", lambda mat: [[0, 2, 0]] if mat[2][2] == 0 else integer_kernel(mat)
    )
    res = kzero.verify.radical_suite()
    assert (res.passed, res.failed) == (1452 - 66, 66)
    assert res.failures[:2] == [
        "radical is not the span of fiber.H at (g=0, deg E=0, deg Q=-5)",
        "radical is not the span of fiber.H at (g=0, deg E=0, deg Q=-4)",
    ]
    assert all("deg E=0," in m for m in res.failures)


def test_a_kernel_that_raises_once_fails_only_its_own_surface(monkeypatch):
    # a failed kernel is not remembered: the next surface with that Gram solves it again
    calls = []
    integer_kernel = kzero.verify.integer_kernel

    def flaky(mat):
        calls.append(1)
        if len(calls) == 1:
            raise ArithmeticError("flaky")
        return integer_kernel(mat)

    monkeypatch.setattr(kzero.verify, "integer_kernel", flaky)
    res = kzero.verify.radical_suite(0, 1)
    assert (res.passed, res.failed, len(calls)) == (16, 2, 4)
    assert res.failures == [
        "lattice computation raised at (g=0, deg E=-1, deg Q=-1): ArithmeticError('flaky')",
        "quotient Gram unavailable at (g=0, deg E=-1, deg Q=-1)",
    ]


@pytest.mark.parametrize("seed", [INVERSION_SEED, 1, 424242])
def test_random_unit_poly_draws_like_the_k0class_construction(seed):
    rng, ref = random.Random(seed), random.Random(seed)
    for t in range(INVERSION_TRIALS):
        genus = rng.randint(0, 5)
        assert ref.randint(0, 5) == genus
        base = point() if t % 7 == 0 else curve(genus)
        assert random_unit_poly(rng, base) == reference.random_unit_poly(ref, base)
        assert rng.getstate() == ref.getstate()
