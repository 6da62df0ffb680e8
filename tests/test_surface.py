"""Intersection theory on quantum ruled surfaces."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kzero.bundle
import kzero.verify
from kzero import (
    BaseMismatch,
    InvariantViolation,
    RankConstraintViolation,
    RuledSurface,
    curve,
    euler_form_base,
    integer_kernel,
)


def random_class(rng, surface, lo=-4, hi=4):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        terms[rng.randint(lo, hi)] = surface.base.k0(rng.randint(-3, 3), rng.randint(-3, 3))
    return surface.class_of(terms)


def test_construction_constraints():
    x = curve(2)
    with pytest.raises(RankConstraintViolation):
        RuledSurface(2, x.k0(3, 0), x.k0(1, 0))
    with pytest.raises(RankConstraintViolation):
        RuledSurface(2, x.k0(2, 0), x.k0(0, 1))
    with pytest.raises(BaseMismatch):
        RuledSurface(1, x.k0(2, 0), x.k0(1, 0))


def test_named_classes():
    s = RuledSurface.from_degrees(1, 2, -1)
    x = s.base
    assert s.section_class().rep.terms() == ((0, x.one), (1, -x.one))
    assert s.fiber_class().rep.terms() == ((0, x.k0(0, 1)),)
    assert s.structure_class(0).rep.terms() == ((0, x.one),)
    assert s.structure_class(3).rep.terms() == ((-3, x.one),)


def test_coeff_reads_the_representative_inside_and_outside_its_support():
    s = RuledSurface.from_degrees(1, 2, -1)
    x = s.base
    c = s.class_of({-2: x.k0(1, 3), 1: x.k0(0, -1)})
    assert [c.coeff(i) for i in range(-3, 3)] == [x.zero, x.k0(1, 3), x.zero, x.zero, x.k0(0, -1), x.zero]
    assert s.class_of({}).coeff(0) == x.zero


def test_total_rank():
    s = RuledSurface.from_degrees(0, -2, 3)
    for n in range(-4, 5):
        assert s.structure_class(n).rank() == 1
    assert s.section_class().rank() == 0
    assert s.fiber_class().rank() == 0
    assert (s.fiber_class() + s.structure_class(2)).rank() == 1


def test_rank_kills_the_relation_ideal():
    rng = random.Random(8)
    s = RuledSurface.from_degrees(2, 3, -2)
    rel = s.relation_poly()
    for _ in range(30):
        q = random_class(rng, s)
        assert s.class_of(rel * q.rep).rank() == 0


# -- pushforward --------------------------------------------------------


def test_pushforward_of_twists():
    s = RuledSurface.from_degrees(1, 3, -2)
    for n in range(0, 7):
        assert s.structure_class(n).pushforward() == s.hilbert_coeff(n)
    assert s.structure_class(-1).pushforward() == s.base.zero
    # n <= -2 hits the derived part: minus B_{-n-2} twisted by Q^(n+1), as
    # the relation 1 - E T + Q T^2 forces
    q_inv = s.Q.inverse()
    assert s.structure_class(-2).pushforward() == -q_inv
    assert s.structure_class(-3).pushforward() == -(s.E * q_inv * q_inv)
    assert s.structure_class(-4).pushforward() == -(s.hilbert_coeff(2) * q_inv * q_inv * q_inv)


def test_pushforward_is_additive():
    rng = random.Random(13)
    s = RuledSurface.from_degrees(0, 1, 1)
    for _ in range(20):
        a, b = random_class(rng, s), random_class(rng, s)
        assert (a + b).pushforward() == a.pushforward() + b.pushforward()


# -- Euler form ----------------------------------------------------------


def test_euler_form_point_counting_law():
    # pairing the structure class against a twisted fiber counts sections
    for g in (0, 2, 5):
        for de in (-3, 0, 3):
            for dq in (-2, 0, 2):
                s = RuledSurface.from_degrees(g, de, dq)
                o = s.structure_class(0)
                fib = s.fiber_class()
                for n in range(-1, 11):
                    assert s.euler_form(o, fib.twist(-n)) == n + 1


def test_euler_form_section_values():
    for g in (0, 1, 4):
        for de in range(-4, 5):
            s = RuledSurface.from_degrees(g, de, 1)
            h = s.section_class()
            fib = s.fiber_class()
            assert s.euler_form(fib, h) == -1
            assert s.euler_form(h, fib) == -1
            assert s.euler_form(h, h) == -de


def test_euler_form_is_biadditive():
    rng = random.Random(21)
    s = RuledSurface.from_degrees(1, -2, 3)
    for _ in range(25):
        a, b, c = (random_class(rng, s) for _ in range(3))
        assert s.euler_form(a + b, c) == s.euler_form(a, c) + s.euler_form(b, c)
        assert s.euler_form(a, b + c) == s.euler_form(a, b) + s.euler_form(a, c)


def test_euler_form_is_twist_invariant():
    rng = random.Random(22)
    s = RuledSurface.from_degrees(2, 1, -1)
    for _ in range(15):
        a, b = random_class(rng, s, -2, 2), random_class(rng, s, -2, 2)
        base_value = s.euler_form(a, b)
        for k in range(-4, 5):
            assert s.euler_form(a.twist(k), b.twist(k)) == base_value


CLASS_TERMS = st.dictionaries(st.integers(-6, 6), st.tuples(st.integers(-5, 5), st.integers(-5, 5)), max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.integers(-8, 8), st.integers(-8, 8), CLASS_TERMS, CLASS_TERMS, st.integers(-50, 50))
def test_euler_form_is_invariant_under_a_common_twist(genus, deg_e, deg_q, a_terms, b_terms, k):
    s = RuledSurface.from_degrees(genus, deg_e, deg_q)
    a, b = (s.class_of({e: s.base.k0(r, d) for e, (r, d) in t.items()}) for t in (a_terms, b_terms))
    assert s.euler_form(a.twist(k), b.twist(k)) == s.euler_form(a, b)


def test_euler_form_consistent_with_pushforward():
    # pairing against the structure class factors through the curve
    rng = random.Random(23)
    s = RuledSurface.from_degrees(3, 2, 2)
    o = s.structure_class(0)
    for _ in range(25):
        b = random_class(rng, s)
        assert s.euler_form(o, b) == euler_form_base(s.base.one, b.pushforward())


# -- intersection numbers --------------------------------------------------


def test_intersection_table():
    for g, de, dq in itertools.product(range(3), range(-3, 4), range(-3, 4)):
        s = RuledSurface.from_degrees(g, de, dq)
        fib = s.fiber_class()
        h = s.section_class()
        assert s.intersect(fib, fib) == 0
        assert s.intersect(fib, h) == 1
        assert s.intersect(h, fib) == 1
        assert s.intersect(h, h) == de


def test_fibers_at_translated_twists_still_do_not_meet():
    s = RuledSurface.from_degrees(0, 2, -1)
    fib = s.fiber_class()
    for k in range(-3, 4):
        assert s.intersect(fib, fib.twist(k)) == 0


# -- radical and Neron-Severi lattice ---------------------------------------


def test_gram_matrix_shape():
    for de in range(-4, 5):
        s = RuledSurface.from_degrees(1, de, 2)
        lat = s.neron_severi()
        assert lat.gram == ((0, 0, -1), (0, 0, 0), (-1, 0, -de))
        assert lat.basis_names == ("fiber", "fiber.H", "H")


def test_gram_is_the_nine_euler_forms():
    # the Gram walks one normal form per column without calling euler_form: the default verify grid,
    # F_1, and degrees of +-10^6
    far = [(g, de, dq) for g in (0, 3) for de in (-(10**6), 10**6) for dq in (-(10**6), 0, 10**6)]
    for g, de, dq in [*kzero.verify._grid(5, 5), (0, -1, -1), *far]:
        s = RuledSurface.from_degrees(g, de, dq)
        lat = s.neron_severi()
        fib = s.fiber_class()
        assert lat.basis == (fib, fib - fib.twist(1), s.section_class())
        assert lat.gram == tuple(tuple(s.euler_form(r, c) for c in lat.basis) for r in lat.basis)


def test_radical_by_brute_force_kernel():
    # independent oracle: search a box for two-sided radical vectors
    for g, de in itertools.product((0, 2), range(-3, 4)):
        s = RuledSurface.from_degrees(g, de, 1)
        lat = s.neron_severi()
        g_mat = lat.gram
        box = range(-3, 4)
        solutions = set()
        for x in itertools.product(box, box, box):
            left = all(sum(row[i] * x[i] for i in range(3)) == 0 for row in g_mat)
            right = all(sum(g_mat[i][j] * x[i] for i in range(3)) == 0 for j in range(3))
            if left and right:
                solutions.add(x)
        expected = {(0, k, 0) for k in box}
        assert solutions == expected
        assert len(lat.radical_basis) == 1
        assert tuple(map(abs, lat.radical_basis[0])) == (0, 1, 0)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 20), st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6))
def test_the_radical_read_off_the_gram_is_the_integer_kernel(g, de, dq):
    # the route neron_severi no longer takes: the saturated kernel of the Gram stacked on its transpose
    lat = RuledSurface.from_degrees(g, de, dq).neron_severi()
    kernel = integer_kernel([*lat.gram, *zip(*lat.gram)])
    assert lat.radical_basis == ((0, 1, 0),)
    assert kernel in ([[0, 1, 0]], [[0, -1, 0]])


def _with_gram(monkeypatch, gram):
    """Make neron_severi walk ``gram``: the nine pairings are taken row by row."""
    entries = iter(x for row in gram for x in row)
    monkeypatch.setattr(RuledSurface, "_walk", lambda self, nf, a: next(entries))
    return RuledSurface.from_degrees(0, -1, -1)


def test_a_nonsingular_outer_block_need_not_be_unimodular(monkeypatch):
    # the radical needs rank 2, not det +-1: det [[2, 3], [1, 5]] = 7
    lat = _with_gram(monkeypatch, ((2, 0, 3), (0, 0, 0), (1, 0, 5))).neron_severi()
    assert lat.radical_basis == ((0, 1, 0),)
    assert lat.ns_gram == ((-2, -3), (-1, -5))


@pytest.mark.parametrize(
    "gram",
    [
        ((0, 0, -1), (1, 0, 0), (-1, 0, 1)),  # the middle row is nonzero
        ((0, 3, -1), (0, 0, 0), (-1, 0, 1)),  # the middle column is nonzero in the fiber row
        ((0, 0, -1), (0, 0, 0), (-1, 2, 1)),  # and in the H row
        ((1, 0, 2), (0, 0, 0), (2, 0, 4)),  # the outer block is singular
    ],
    ids=["middle row", "middle column, fiber row", "middle column, H row", "singular outer block"],
)
def test_each_failed_gram_check_is_an_invariant_violation(monkeypatch, gram):
    s = _with_gram(monkeypatch, gram)
    with pytest.raises(InvariantViolation, match="radical does not complement the fiber and section classes"):
        s.neron_severi()


def test_radical_pairs_to_zero_with_rank_zero_classes():
    rng = random.Random(77)
    s = RuledSurface.from_degrees(2, -3, 1)
    fib = s.fiber_class()
    v = fib - fib.twist(1)
    for _ in range(40):
        c = random_class(rng, s)
        # project away the total rank so the class is curve-like
        c = c - c.rank() * s.structure_class(0)
        assert c.rank() == 0
        assert s.euler_form(c, v) == 0
        assert s.euler_form(v, c) == 0


def test_neron_severi_quotient_gram():
    for g, de, dq in itertools.product(range(3), range(-4, 5), (-2, 1)):
        s = RuledSurface.from_degrees(g, de, dq)
        lat = s.neron_severi()
        assert lat.ns_gram == ((0, 1), (1, de))
        det = lat.ns_gram[0][0] * lat.ns_gram[1][1] - lat.ns_gram[0][1] * lat.ns_gram[1][0]
        assert det == -1
        assert lat.ns_basis_names == ("fiber", "H")


# -- e-invariant -------------------------------------------------------------


def test_e_invariant_examples():
    assert RuledSurface.from_degrees(0, -3, 0).e_invariant() == 3
    assert RuledSurface.from_degrees(2, 0, 5).e_invariant() == 0


def test_e_invariant_matches_section_self_intersection():
    for g, de in itertools.product(range(4), range(-5, 6)):
        s = RuledSurface.from_degrees(g, de, -1)
        h = s.section_class()
        assert s.e_invariant() == -s.intersect(h, h)


def test_commutative_hirzebruch_family():
    # X = P^1, E = O (+) O(-e), Q = det E = O(-e): classical F_e with C_0^2 = -e
    for e in range(0, 6):
        s = RuledSurface.from_degrees(0, -e, -e)
        assert s.e_invariant() == e


def test_classes_are_accepted_by_an_equal_surface_and_refused_by_another():
    s, twin, other = (RuledSurface.from_degrees(1, 2, d) for d in (-1, -1, 0))
    assert twin == s and twin is not s
    a, b = s.section_class(), twin.fiber_class()
    assert s.euler_form(a, b) == twin.euler_form(a, b)
    assert s.pushforward(b) == twin.pushforward(b)
    with pytest.raises(BaseMismatch, match="different surface"):
        other.pushforward(a)
    with pytest.raises(BaseMismatch, match="different surface"):
        s.euler_form(a, other.fiber_class())


FAR = 10**6


@pytest.mark.parametrize(
    "grid",
    [
        list(kzero.verify._grid(5, 5)),
        [(0, -1, -1)],  # F_1
        [(g, de, dq) for g in (0, 3) for de in (-FAR, FAR) for dq in (-FAR, FAR)],
    ],
    ids=["default grid", "F_1", "degrees of +-10^6"],
)
def test_surfaces_and_their_bundle_specs_hold_one_relation_layout(grid):
    for g, de, dq in grid:
        s = RuledSurface.from_degrees(g, de, dq)
        spec = s.bundle_spec()
        assert s._relation == spec._relation == ([1, -2, 1], [0, -de, dq])
        assert s.relation_poly() == spec.relation_poly()


def test_building_a_surface_builds_no_bundle_spec(monkeypatch):
    def refuse(self):
        raise AssertionError("a bundle spec was built")

    monkeypatch.setattr(kzero.bundle.PnBundleSpec, "__post_init__", refuse)
    x = curve(2)
    s = RuledSurface(2, x.k0(2, 3), x.k0(1, -1))
    assert RuledSurface.from_degrees(2, 3, -1) == s
    assert s.neron_severi().ns_gram == ((0, 1), (1, 3))
    with pytest.raises(AssertionError):
        s.bundle_spec()


def test_the_cached_relation_stays_out_of_eq_hash_and_repr():
    a, b = RuledSurface.from_degrees(1, 2, -1), RuledSurface.from_degrees(1, 2, -1)
    object.__setattr__(b, "_relation", ([1], [0]))
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "_relation" not in repr(a)
