"""The benchmark's three workloads: seeded inputs, the calls, the checks.

A workload builder takes the freshly imported ``kzero`` package, the
seed and a scratch directory, and returns a :class:`Workload`: the
operations of one round, in order, and a few small warm-up operations.
Every call goes through a ``kzero`` module or class attribute looked up
at call time, so the tracer's patched attributes see it.

Each operation's output is checked by :mod:`oracles`; a check returns a
list of problems, empty when the output is right.  An operation marked
with ``known_fault`` reproduces a documented program fault on inputs
that do not depend on the seed, so it fails in every round of every
run; the text it must fail with is ``known_fault``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

import oracles

DIGIT_LIMIT_FAULT = "Exceeds the limit (4300 digits)"
PAIRING_FAULT = "Riemann-Roch gives"


@dataclass
class Op:
    family: str
    run: Callable[[], object]
    check: Callable[[object], list]
    # a cheap fingerprint of an output; an output whose fingerprint the
    # oracle already accepted for this operation is not checked again
    digest: Optional[Callable[[object], str]] = None
    known_fault: Optional[str] = None


@dataclass
class Workload:
    ops: list
    warmup: list


def _plain(p):
    """A kzero LaurentPoly as {exponent: (rank, degree)}."""
    return {e: (c.rank, c.degree) for e, c in p.terms()}


def _text_digest(out):
    rc, stdout, stderr = out
    return hashlib.sha256(f"{rc}\0{stdout}\0{stderr}".encode()).hexdigest()


def _vectors_digest(vectors):
    # int.to_bytes, not str(): kernel entries can pass the 4,300-digit
    # limit of int-to-string conversion
    h = hashlib.sha256()
    for vec in vectors:
        for x in vec:
            h.update(x.to_bytes(x.bit_length() // 8 + 1, "little", signed=True))
        h.update(b"|")
    return h.hexdigest()


def _call_main(kz, argv):
    """kzero.cli.main(argv) with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = kz.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


# -- verify_sweep ---------------------------------------------------------


def _check_verify(grid, out):
    rc, stdout, stderr = out
    problems = [] if rc == 0 else [f"exit {rc}: {stderr.strip()[:200]}"]
    seen = {}
    for line in stdout.splitlines():
        name, sep, rest = line.partition(": passed=")
        if sep:
            passed, _, failed = rest.partition(" failed=")
            seen[name] = (int(passed), int(failed))
    for name, want in oracles.verify_check_counts(*grid).items():
        if name not in seen:
            problems.append(f"suite {name!r} missing from the report")
            continue
        passed, failed = seen[name]
        if failed:
            problems.append(f"suite {name!r}: {failed} checks failed")
        if passed + failed < want:
            problems.append(f"suite {name!r}: {passed + failed} checks, grid defines {want}")
    if not stdout.rstrip().endswith("verification passed"):
        problems.append("report does not end with 'verification passed'")
    return problems


def build_verify_sweep(kz, seed, workdir):
    """The default ``kzero verify`` sweep; it has no seeded input."""

    def op(argv, grid):
        return Op(
            "verify",
            lambda: _call_main(kz, argv),
            lambda out: _check_verify(grid, out),
            _text_digest,
        )

    return Workload([op(["verify"], (5, 5))], [op(["verify", "--grid", "0,0"], (0, 0))])


# -- cli_jobs ---------------------------------------------------------------

# Point jobs whose Hilbert coefficients pass 4,300 decimal digits: the
# report writer's str() hits CPython's int-to-string limit and the job
# exits 1.  Fixed inputs, so every round fails the same way.
DIGIT_LIMIT_JOBS = (([1, -1000, 1], 1500), ([1, 2000, -1], 1400))
# Point jobs below keep order * log10(sum |c_k|) under this many digits,
# which bounds every coefficient of the inverse series below the limit.
POINT_DIGIT_BUDGET = 4200
# The largest report under that budget, in every round.
LARGEST_POINT_JOB = ([1, -400, 1], 1600)
RULED_ORDER = 200


def _doc(mode, base, params, order):
    return {"mode": mode, "base": base, "parameters": params, "series_order": str(order)}


def _curve(genus):
    return {"kind": "curve", "genus": str(genus)}


def _ruled_doc(rng, order):
    genus = rng.randint(0, 40)
    deg_e = rng.randint(-40, 40)
    deg_q = deg_e if rng.random() < 0.5 else rng.randint(-40, 40)
    return _doc("ruled", _curve(genus), {"deg_e": str(deg_e), "deg_q": str(deg_q)}, order)


def _pnbundle_doc(rng, n, on_point, order):
    if on_point:
        base, degree = {"kind": "point"}, lambda: 0
    else:
        base, degree = _curve(rng.randint(0, 20)), lambda: rng.randint(-20, 20)
    koszul = [["1", "0"]] + [
        [str(math.comb(n + 1, q)), str(degree())] for q in range(1, n + 2)
    ]
    return _doc("pnbundle", base, {"n": str(n), "koszul": koszul}, order)


def _point_relation_doc(coeffs, order):
    return _doc("point", {"kind": "point"}, {"relation": [str(c) for c in coeffs]}, order)


def _point_doc(rng, degree, bound):
    """A relation whose T coefficient is +-bound and dominates the rest.

    The inverse series then grows by a factor of about ``bound`` per
    term, and the order is set just inside the digit budget, so every
    seed gives reports of about the same size.
    """
    small = bound // 4
    middle = [rng.randint(-small, small) for _ in range(degree - 2)]
    coeffs = [1, rng.choice((bound, -bound))] + middle + [rng.choice((1, -1))]
    cap = min(1600, int(POINT_DIGIT_BUDGET / math.log10(sum(abs(c) for c in coeffs[1:]))))
    return _point_relation_doc(coeffs, cap - rng.randint(0, 50))


def _check_job(parse, doc, out):
    rc, stdout, stderr = out
    if rc != 0:
        return [f"exit {rc}: {stderr.strip()[:200]}"]
    report = json.loads(stdout)
    problems = []
    if report["input"] != doc:
        problems.append("input echo differs from the job document")
    if parse(report["input"]) != parse(doc):
        problems.append("input echo does not parse back to the same job")
    params, order = doc["parameters"], int(doc["series_order"])
    ranks = [int(r) for r in report["hilbert_ranks"]]
    relation = {
        int(e): (int(c["rank"]), int(c["degree"])) for e, c in report["relation"].items()
    }
    mode = doc["mode"]
    if mode == "ruled":
        deg_e, deg_q = int(params["deg_e"]), int(params["deg_q"])
        want_rel, n = oracles.ruled_relation(deg_e, deg_q), 1
        want_gs = {"free_rank_over_base": "2", "point_base_abelian_rank": None}
        want = oracles.ruled_identities(deg_e)
        got_table = {k: int(v) for k, v in report["intersection_table"].items()}
        if got_table != want["intersection_table"]:
            problems.append(f"intersection table {got_table} != {want['intersection_table']}")
        if int(report["e_invariant"]) != want["e_invariant"]:
            problems.append(f"e-invariant {report['e_invariant']} != {want['e_invariant']}")
        if [[int(x) for x in row] for row in report["gram_ns"]] != want["gram_ns"]:
            problems.append(f"Neron-Severi Gram {report['gram_ns']} != {want['gram_ns']}")
        radical = [[int(x) for x in vec] for vec in report["radical_basis"]]
        if radical not in ([[0, 1, 0]], [[0, -1, 0]]):
            problems.append(f"radical {radical} is not spanned by fiber - fiber(-1)")
        # (fiber, fiber - fiber(-1), H) have exponents 0 and 1 only, so
        # their pairings see B_0 and B_1 = E alone and Riemann-Roch with
        # deg E applies whatever deg Q is
        basis = ({0: (0, 1)}, {0: (0, 1), 1: (0, -1)}, {0: oracles.ONE, 1: (-1, 0)})
        genus = int(doc["base"]["genus"])
        gram = [[oracles.rr_pairing(genus, deg_e, a, b) for b in basis] for a in basis]
        if [[int(x) for x in row] for row in report["gram_f1"]] != gram:
            problems.append(f"rank-zero Gram {report['gram_f1']} != {gram}")
    elif mode == "pnbundle":
        n = int(params["n"])
        want_rel = oracles.poly_clean(
            {q: ((-1) ** q * int(r), (-1) ** q * int(d)) for q, (r, d) in enumerate(params["koszul"])}
        )
        point_rank = str(n + 1) if doc["base"]["kind"] == "point" else None
        want_gs = {"free_rank_over_base": str(n + 1), "point_base_abelian_rank": point_rank}
    else:
        coeffs = [int(c) for c in params["relation"]]
        want_rel = {e: (c, 0) for e, c in enumerate(coeffs) if c}
        n = None
        top = str(len(coeffs) - 1)
        want_gs = {"free_rank_over_base": top, "point_base_abelian_rank": top}
        bad = oracles.int_inverse_defects(coeffs, ranks)
        if bad or len(ranks) != order + 1:
            problems.append(f"ranks are not the inverse series: wrong at T^{bad[:3]}")
    if relation != want_rel:
        problems.append(f"relation {relation} != {want_rel}")
    if report["group_structure"] != want_gs:
        problems.append(f"group structure {report['group_structure']} != {want_gs}")
    if n is not None and ranks != oracles.rank_law(n, order):
        problems.append(f"hilbert ranks break the rank law binomial(n+i, {n})")
    return problems


def build_cli_jobs(kz, seed, workdir):
    """Job documents of all three modes, run through ``kzero run --spec F --json``."""
    rng = random.Random(f"cli_jobs/{seed}")
    # Sizes follow a fixed schedule and the seed picks the rest, so the
    # cost of a round barely depends on the seed.  The ruled jobs, all at
    # one series order, are more than half of the round: the median job
    # is one of them, not whichever job a seed puts in the middle.
    docs = [_ruled_doc(rng, RULED_ORDER) for _ in range(40)]
    for i in range(16):
        docs.append(_pnbundle_doc(rng, 1 + i % 8, i % 2 == 0, 100 + 100 * i))
        docs.append(_point_doc(rng, 2 + i % 5, (10, 100, 1000)[i % 3]))
    docs.append(_point_relation_doc(*LARGEST_POINT_JOB))
    faults = [_point_relation_doc(rel, order) for rel, order in DIGIT_LIMIT_JOBS]
    warm = [
        _ruled_doc(random.Random(0), 8),
        _pnbundle_doc(random.Random(0), 2, False, 8),
        _point_relation_doc([1, -3, 3, -1], 8),
    ]

    # bound now, before a tracer can wrap it: checking is not the program's time
    parse = kz.cli.jobspec_from_dict

    def op(name, doc, known_fault=None):
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["run", "--spec", str(path), "--json"]
        return Op(
            doc["mode"],
            lambda: _call_main(kz, argv),
            lambda out: _check_job(parse, doc, out),
            _text_digest,
            known_fault,
        )

    ops = [op(f"job{i:03d}", d) for i, d in enumerate(docs)]
    ops += [op(f"fault{i}", d, DIGIT_LIMIT_FAULT) for i, d in enumerate(faults)]
    return Workload(ops, [op(f"warm{i}", d) for i, d in enumerate(warm)])


# -- large_classes -------------------------------------------------------------


def _random_terms(rng, lo, count):
    """Dense random (rank, degree) coefficients on exponents lo .. lo+count-1."""
    return oracles.poly_clean(
        {e: (rng.randint(-9, 9), rng.randint(-9, 9)) for e in range(lo, lo + count)}
    )


def _poly(kz, base, plain):
    return kz.LaurentPoly(base, {e: base.k0(r, d) for e, (r, d) in plain.items()})


def _pairing_op(kz, genus, deg_e, a, b, known_fault=None):
    surface = kz.RuledSurface.from_degrees(genus, deg_e, deg_e)
    x, y = surface.class_of(_poly(kz, surface.base, a)), surface.class_of(_poly(kz, surface.base, b))
    want = oracles.rr_pairing(genus, deg_e, a, b)

    def check(got):
        return [] if got == want else [f"euler_form = {got}, {PAIRING_FAULT} {want}"]

    return Op("euler_form", lambda: surface.euler_form(x, y), check, known_fault=known_fault)


def _pairing_ops(kz, rng, sizes):
    """Euler pairings of dense classes on commutative ruled surfaces.

    Both classes of a pair have ``size`` terms.  Half of the pairs have
    deg E = 0 and the same support; the other half have deg E != 0 and
    the second class ending one step above the first class's start, so
    no term pair has j - i >= 2.  Those are the inputs on which the
    pairing agrees with Riemann-Roch; the F_1 operations below cover the
    rest.  The supports depend only on the size, so the seed does not
    change how much work a pairing is.
    """
    ops = []
    for k, size in enumerate(sizes):
        genus = rng.randint(0, 6)
        lo = rng.randint(-20, 20)
        if k % 2 == 0:
            deg_e, b_lo = 0, lo
        else:
            deg_e, b_lo = rng.choice((-1, 1)) * rng.randint(1, 6), lo + 2 - size
        a, b = _random_terms(rng, lo, size), _random_terms(rng, b_lo, size)
        ops.append(_pairing_op(kz, genus, deg_e, a, b))
    return ops


def _hirzebruch_ops(kz):
    """chi(O, O(n)) on F_1 for n = 0..-4: classically 1, 0, -2, -5, -9.

    euler_form leaves the det E twist off R^1 f_*, so n = -2, -3, -4 fail.
    """
    ops = []
    for n in range(0, -5, -1):
        fault = PAIRING_FAULT if n <= -2 else None
        ops.append(_pairing_op(kz, 0, -1, {0: oracles.ONE}, {-n: oracles.ONE}, fault))
    return ops


def _poly_mul_op(kz, rng, degree):
    base = kz.curve(rng.randint(0, 6))
    a = _random_terms(rng, rng.randint(-50, 50), degree + 1)
    b = _random_terms(rng, rng.randint(-50, 50), degree + 1)
    p, q = _poly(kz, base, a), _poly(kz, base, b)
    want = oracles.poly_mul(a, b)
    return Op(
        "poly_mul",
        lambda: p * q,
        lambda out: [] if _plain(out) == want else ["product differs from the convolution"],
    )


def _normal_form_op(kz, p, spec, plain, rel):
    def check(out):
        reduced = oracles.poly_clean({i: (c.rank, c.degree) for i, c in enumerate(out.coeffs)})
        if oracles.is_normal_form_of(plain, reduced, rel, spec.n):
            return []
        return ["p - reduce(p) is not a multiple of the relation"]

    return Op("reduce", lambda: kz.reduce_poly(p, spec), check)


def _ruled_reduce_op(kz, rng, width):
    genus, deg_e, deg_q = rng.randint(0, 6), rng.randint(-9, 9), rng.randint(-9, 9)
    spec = kz.RuledSurface.from_degrees(genus, deg_e, deg_q).bundle_spec()
    plain = _random_terms(rng, rng.randint(-width // 3, 0), width)
    return _normal_form_op(
        kz, _poly(kz, spec.base, plain), spec, plain, oracles.ruled_relation(deg_e, deg_q)
    )


def _pn_power_op(kz, n, k):
    pt = kz.point()
    spec = kz.PnBundleSpec(pt, n, tuple(pt.k0(math.comb(n + 1, q)) for q in range(n + 2)))
    p = kz.LaurentPoly.monomial(pt.one, k)
    return _normal_form_op(kz, p, spec, {k: oracles.ONE}, oracles.pn_point_relation(n))


def _invert_op(kz, rng, order, degree, on_point):
    """series_invert of a polynomial whose T coefficient has rank +-9.

    That coefficient dominates the small ones after it, so the inverse
    grows by a factor of about 9 per term whatever the seed.
    """
    base = kz.point() if on_point else kz.curve(rng.randint(0, 6))
    deg = (lambda: 0) if on_point else (lambda: rng.randint(-9, 9))
    plain = {0: (rng.choice((1, -1)), deg()), 1: (rng.choice((9, -9)), deg())}
    plain.update({e: (rng.randint(-2, 2), deg()) for e in range(2, degree + 1)})
    plain = oracles.poly_clean(plain)
    p = _poly(kz, base, plain)

    def check(out):
        coeffs = [(c.rank, c.degree) for c in out.coeffs]
        bad = oracles.inverse_defects(plain, coeffs)
        if bad or len(coeffs) != order + 1:
            return [f"p * p^-1 != 1 mod T^{order + 1}: wrong at T^{bad[:3]}"]
        return []

    return Op("invert", lambda: kz.series_invert(p, order), check)


def _near_full_rank(rng, n, deficiency, bound):
    rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n - deficiency)]
    for _ in range(deficiency):
        mix = [rng.randint(-2, 2) for _ in rows]
        rows.append([sum(c * row[j] for c, row in zip(mix, rows)) for j in range(n)])
    rng.shuffle(rows)
    return rows


def _kernel_op(kz, mat):
    return Op(
        "kernel",
        lambda: kz.integer_kernel(mat),
        lambda out: oracles.kernel_defects(mat, out),
        _vectors_digest,
    )


def build_large_classes(kz, seed, workdir):
    """Long inputs to the library, five families of roughly equal time."""
    rng = random.Random(f"large_classes/{seed}")
    ops = _pairing_ops(kz, rng, list(range(5, 41, 5))) + _hirzebruch_ops(kz)
    ops += [_poly_mul_op(kz, rng, d) for d in (50, 100, 150, 200, 250)]
    ops += [_ruled_reduce_op(kz, rng, w) for w in (1000, 800)]
    ops += [_pn_power_op(kz, n, 300 + 40 * n + rng.randint(0, 20)) for n in (2, 4, 6, 8)]
    ops += [
        _invert_op(kz, rng, order, 2 + k % 7, k % 2 == 1)
        for k, order in enumerate(range(500, 2001, 250))
    ]
    # integer_kernel's time has a heavy tail that grows with the size (at
    # 26 x 26 one matrix in ten takes 10-40 times the median), so the
    # seeded matrices stop at 22 and sizes 23-26 are a fixed panel that
    # every run shares.  The 90 seeded ones are most of the round's
    # operations, so the median operation is one of them.
    ops += [
        _kernel_op(kz, _near_full_rank(rng, n, 1 + k % 3, 9))
        for k in range(18)
        for n in range(18, 23)
    ]
    panel = random.Random("large_classes/kernel-panel")
    ops += [
        _kernel_op(kz, _near_full_rank(panel, n, deficiency, 9))
        for n in range(23, 27)
        for deficiency in (1, 2, 3)
    ]
    warm = [
        _pairing_op(kz, 1, 0, {0: oracles.ONE}, {1: oracles.ONE}),
        _poly_mul_op(kz, random.Random(0), 5),
        _pn_power_op(kz, 2, 10),
        _invert_op(kz, random.Random(0), 10, 2, False),
        _kernel_op(kz, [[1, 2, 3], [2, 4, 6]]),
    ]
    return Workload(ops, warm)


WORKLOADS = {
    "verify_sweep": build_verify_sweep,
    "cli_jobs": build_cli_jobs,
    "large_classes": build_large_classes,
}
