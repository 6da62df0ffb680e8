"""Acceptance suite: the package's exit criteria.

Every check is an exact integer identity (tolerance zero).  Each
criterion prints one PASS/FAIL line; run with ``pytest -s`` to see them
as they go.
"""

import itertools
import math
import random

from kzero import (
    LaurentPoly,
    PnBundleSpec,
    RuledSurface,
    TruncatedSeries,
    curve,
    euler_form_base,
    group_structure,
    hilbert_coeff_ruled,
    point,
    reduce_poly,
    series_invert,
)
from reference import hilbert_recursion, rational_rank

GRID = list(itertools.product(range(0, 6), range(-5, 6), range(-5, 6)))


def criterion(num, description):
    def wrap(fn):
        def runner():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {num}: FAIL - {description}")
                raise
            print(f"ACCEPTANCE {num}: PASS - {description}")

        runner.__name__ = fn.__name__
        return runner

    return wrap


@criterion(1, "curve Euler-form table for g in [0,10]")
def test_criterion_1_curve_euler_table():
    for g in range(0, 11):
        x = curve(g)
        o, p = x.one, x.k0(0, 1)
        assert euler_form_base(o, o) == 1 - g
        assert euler_form_base(o, p) == 1
        assert euler_form_base(p, o) == -1
        assert euler_form_base(p, p) == 0


@criterion(2, "intersection identities on the (g, deg E, deg Q) grid")
def test_criterion_2_intersection_identities():
    for g, de, dq in GRID:
        s = RuledSurface.from_degrees(g, de, dq)
        fib = s.fiber_class()
        h = s.section_class()
        assert s.intersect(fib, fib) == 0
        assert s.intersect(fib, h) == 1
        assert s.intersect(h, fib) == 1
        assert s.intersect(h, h) == de


@criterion(3, "structure-vs-twisted-fiber pairing equals n+1 for n in [-1,10]")
def test_criterion_3_point_counting():
    for g, de, dq in GRID:
        s = RuledSurface.from_degrees(g, de, dq)
        o = s.structure_class(0)
        fib = s.fiber_class()
        for n in range(-1, 11):
            assert s.euler_form(o, fib.twist(-n)) == n + 1


@criterion(4, "hilbert rank law to n = 50, closed form vs recursion vs direct inversion")
def test_criterion_4_rank_law():
    x = curve(0)
    for de in range(-5, 6):
        for dq in range(-5, 6):
            e_cls, q_cls = x.k0(2, de), x.k0(1, dq)
            rel = LaurentPoly(x, {0: x.one, 1: -e_cls, 2: q_cls})
            inverted = series_invert(rel, 50)
            for n in range(51):
                b = hilbert_coeff_ruled(e_cls, q_cls, n)
                assert b.rank == n + 1
                assert inverted.coeff(n) == b
                assert b == hilbert_recursion(e_cls, q_cls, n)


@criterion(5, "p * series_invert(p, 30) = 1 mod T^31 for 200 random polynomials")
def test_criterion_5_inversion_identity():
    rng = random.Random(50331)
    for _ in range(200):
        x = curve(rng.randint(0, 5))
        terms = {0: x.k0(rng.choice((1, -1)), rng.randint(-5, 5))}
        for e in range(1, rng.randint(1, 6) + 1):
            terms[e] = x.k0(rng.randint(-5, 5), rng.randint(-5, 5))
        p = LaurentPoly(x, terms)
        assert series_invert(p, 30).mul_poly(p) == TruncatedSeries.one(x, 30)


@criterion(6, "quotient-ring axioms on 500 random polynomials per spec + companion oracle")
def test_criterion_6_quotient_ring_axioms():
    rng = random.Random(60331)
    x = curve(2)
    pt = point()
    specs = [
        PnBundleSpec(x, 1, (x.one, x.k0(2, -1), x.k0(1, 2))),
        PnBundleSpec(pt, 2, tuple(pt.k0(math.comb(3, q)) for q in range(4))),
    ]
    for spec in specs:
        base = spec.base
        rel = spec.relation_poly()

        def rand_poly():
            terms = {}
            for _ in range(rng.randint(0, 6)):
                degree = 0 if base.is_point else rng.randint(-4, 4)
                terms[rng.randint(-6, 8)] = base.k0(rng.randint(-4, 4), degree)
            return LaurentPoly(base, terms)

        assert reduce_poly(rel, spec).is_zero()
        for _ in range(500):
            p, q = rand_poly(), rand_poly()
            rp = reduce_poly(p, spec)
            assert reduce_poly(rp.as_poly(), spec) == rp
            assert reduce_poly(p * q, spec) == reduce_poly(
                rp.as_poly() * reduce_poly(q, spec).as_poly(), spec
            )
            assert reduce_poly(p + rel * q, spec) == rp

    # companion-matrix oracle for the ruled quotient: the action of T on
    # the basis {1, T} is an explicit 2x2 matrix over the base ring
    for de in range(-3, 4):
        for dq in (-3, -1, 1, 3):
            spec = PnBundleSpec(x, 1, (x.one, x.k0(2, de), x.k0(1, dq)))
            e_cls, q_cls = spec.koszul[1], spec.koszul[2]
            q_inv = q_cls.inverse()
            fwd = ((x.zero, -q_inv), (x.one, q_inv * e_cls))
            bwd = ((e_cls, x.one), (-q_cls, x.zero))
            for mat, sign in ((fwd, 1), (bwd, -1)):
                vec = (x.one, x.zero)
                for k in range(1, 7):
                    vec = (
                        mat[0][0] * vec[0] + mat[0][1] * vec[1],
                        mat[1][0] * vec[0] + mat[1][1] * vec[1],
                    )
                    t_k = LaurentPoly(x, {sign * k: x.one})
                    assert reduce_poly(t_k, spec).coeffs == vec


@criterion(7, "radical = span(fiber.H) and quotient Gram [[0,1],[1,deg E]] on the grid")
def test_criterion_7_neron_severi():
    for g, de, dq in GRID:
        s = RuledSurface.from_degrees(g, de, dq)
        lat = s.neron_severi()
        # integer-kernel oracle: the stacked Gram has rational rank 2, so
        # the kernel lattice has rank 1; a primitive generator must then
        # be (0, +-1, 0), and it is checked to pair to zero on both sides
        stacked = [list(row) for row in lat.gram] + [list(col) for col in zip(*lat.gram)]
        assert rational_rank(stacked) == 2
        assert len(lat.radical_basis) == 1
        vec = lat.radical_basis[0]
        assert tuple(map(abs, vec)) == (0, 1, 0)
        fib = s.fiber_class()
        h = s.section_class()
        v = fib - fib.twist(1)
        for other in (fib, v, h, h.twist(2), fib.twist(-1)):
            assert other.rank() == 0
            assert s.euler_form(v, other) == 0
            assert s.euler_form(other, v) == 0
        assert lat.ns_gram == ((0, 1), (1, de))
        det = lat.ns_gram[0][0] * lat.ns_gram[1][1] - lat.ns_gram[0][1] * lat.ns_gram[1][0]
        assert det == -1


@criterion(8, "commutative Hirzebruch cross-check: e-invariant equals e")
def test_criterion_8_hirzebruch():
    for e in range(0, 6):
        s = RuledSurface.from_degrees(0, -e, -e)
        h = s.section_class()
        assert s.e_invariant() == e
        assert s.e_invariant() == -s.intersect(h, h)


@criterion(9, "point-base corollary: (1-T)^(n+1) gives free abelian rank n+1")
def test_criterion_9_point_base_corollary():
    pt = point()
    for n in range(1, 5):
        koszul = tuple(pt.k0(math.comb(n + 1, q)) for q in range(n + 2))
        spec = PnBundleSpec(pt, n, koszul)
        rel = spec.relation_poly()
        binomial = LaurentPoly.from_int_coeffs(
            pt, [(-1) ** q * math.comb(n + 1, q) for q in range(n + 2)]
        )
        assert rel == binomial
        gs = group_structure(rel)
        assert gs.point_base_abelian_rank == n + 1
        assert gs.free_rank_over_base == n + 1
