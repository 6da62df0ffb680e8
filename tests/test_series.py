"""Laurent polynomial arithmetic, series inversion, and Hilbert recursion."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kzero import (
    LaurentPoly,
    NegativeExponent,
    NonUnitConstantTerm,
    RankConstraintViolation,
    TruncatedSeries,
    curve,
    hilbert_coeff_ruled,
    point,
    series_invert,
)
from kzero.bundle import PnBundleSpec
from kzero.series import _product


def random_poly(rng, base, max_deg=5, min_exp=-5):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        e = rng.randint(min_exp, max_deg)
        terms[e] = base.k0(rng.randint(-4, 4), rng.randint(-4, 4))
    return LaurentPoly(base, terms)


# -- canonical form and arithmetic -------------------------------------


def test_zero_coefficients_are_dropped():
    x = curve(0)
    p = LaurentPoly(x, {0: x.one, 3: x.zero, -2: x.k0(0, 0)})
    assert p.support() == (0,)
    assert p == LaurentPoly.one(x)


def test_duplicate_exponents_accumulate():
    x = curve(0)
    p = LaurentPoly(x, [(1, x.one), (1, x.one), (1, -x.one)])
    assert p.coeff(1) == x.one


def test_torsion_squares_kill_the_cross_term():
    # (1 + (0,1)T)(1 - (0,1)T) = 1 because (0,1)^2 = 0
    x = curve(2)
    t = x.k0(0, 1)
    left = LaurentPoly(x, {0: x.one, 1: t})
    right = LaurentPoly(x, {0: x.one, 1: -t})
    assert left * right == LaurentPoly.one(x)


def test_multiplicative_identity_and_zero():
    x = curve(1)
    rng = random.Random(7)
    for _ in range(20):
        p = random_poly(rng, x)
        assert p * LaurentPoly.one(x) == p
        assert p * LaurentPoly.zero(x) == LaurentPoly.zero(x)


def test_ring_laws_randomized():
    x = curve(1)
    rng = random.Random(11)
    for _ in range(30):
        p, q, r = (random_poly(rng, x, 3, -3) for _ in range(3))
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_shift_and_scalars():
    x = curve(0)
    p = LaurentPoly(x, {0: x.one, 2: x.k0(3, 1)})
    assert p.shift(-2).support() == (-2, 0)
    assert (p * x.k0(0, 1)).coeff(2) == x.k0(0, 3)
    assert (2 * p).coeff(0) == x.k0(2, 0)


def test_monomial_is_the_one_term_polynomial():
    x = curve(1)
    for c, k in ((x.k0(2, -1), 3), (x.k0(0, 5), -4), (x.one, 0), (x.zero, 7)):
        assert LaurentPoly.monomial(c, k) == LaurentPoly(x, {k: c})
    assert LaurentPoly.monomial(x.k0(3, 1)) == LaurentPoly(x, {0: x.k0(3, 1)})
    assert LaurentPoly.monomial(x.zero, 7) == LaurentPoly.zero(x)


# -- series inversion ---------------------------------------------------


def test_geometric_series():
    x = curve(0)
    p = LaurentPoly(x, {0: x.one, 1: -x.one})
    inv = series_invert(p, 3)
    assert inv.coeffs == (x.one, x.one, x.one, x.one)


def test_ruled_inversion_first_coefficients():
    # b_2 = E*b_1 - Q*b_0 = (3, 4 deg E - deg Q)
    for de in range(-3, 4):
        for dq in range(-3, 4):
            x = curve(1)
            e_cls, q_cls = x.k0(2, de), x.k0(1, dq)
            rel = LaurentPoly(x, {0: x.one, 1: -e_cls, 2: q_cls})
            inv = series_invert(rel, 2)
            assert inv.coeffs == (x.one, e_cls, x.k0(3, 4 * de - dq))


def test_inversion_rejects_bad_input():
    x = curve(0)
    with pytest.raises(NonUnitConstantTerm):
        series_invert(LaurentPoly(x, {0: x.k0(2, 0), 1: x.one}), 1)
    with pytest.raises(NonUnitConstantTerm):
        series_invert(LaurentPoly.zero(x), 4)
    with pytest.raises(NegativeExponent):
        series_invert(LaurentPoly(x, {-1: x.one, 0: x.one}), 2)


def test_inverse_times_poly_is_one():
    rng = random.Random(2024)
    for _ in range(50):
        x = curve(rng.randint(0, 4))
        terms = {0: x.k0(rng.choice((1, -1)), rng.randint(-3, 3))}
        for e in range(1, rng.randint(1, 5) + 1):
            terms[e] = x.k0(rng.randint(-3, 3), rng.randint(-3, 3))
        p = LaurentPoly(x, terms)
        inv = series_invert(p, 20)
        assert inv.mul_poly(p) == TruncatedSeries.one(x, 20)


@st.composite
def unit_constant_polys(draw):
    """A polynomial in T (no T^-k terms) with a unit constant term, over a point or a curve."""
    base = draw(st.one_of(st.just(point()), st.builds(curve, st.integers(0, 4))))
    big = st.integers(-(10**6), 10**6)

    def k0(rank):
        return base.k0(rank, 0 if base.is_point else draw(big))

    terms = {0: k0(draw(st.sampled_from((1, -1))))}
    terms.update({e: k0(draw(big)) for e in range(1, draw(st.integers(0, 6)) + 1)})
    return LaurentPoly(base, terms)


@settings(max_examples=200, deadline=None)
@given(unit_constant_polys(), st.integers(0, 40))
def test_poly_times_its_inverse_is_one_modulo_the_order(p, order):
    inv = series_invert(p, order)
    assert inv.order == order
    # the full product of polynomials, independent of the truncated product
    product = p * LaurentPoly(p.base, dict(enumerate(inv.coeffs)))
    assert [product.coeff(e) for e in range(order + 1)] == [p.base.one] + [p.base.zero] * order
    assert inv.mul_poly(p) == TruncatedSeries.one(p.base, order)


def test_truncated_product_rejects_negative_exponents():
    x = curve(0)
    s = TruncatedSeries.one(x, 3)
    with pytest.raises(NegativeExponent):
        s.mul_poly(LaurentPoly(x, {-1: x.one}))


def object_product(base, ar, ad, br, bd, lo, size):
    """Entries 0..size-1 of (sum_i a_i T^(lo+i)) * (sum_j b_j T^j), multiplying K0Class objects term by term."""
    out = [base.zero] * size
    for i, a in enumerate(map(base.k0, ar, ad)):
        for j, b in enumerate(map(base.k0, br, bd)):
            if lo + i + j < size:
                out[lo + i + j] += a * b
    return [c.rank for c in out], [c.degree for c in out]


@pytest.mark.parametrize(
    "ar, ad, br, bd, lo, size",
    [
        ([1, 2], [3, -1], [4, 0, -2], [1, 5, 0], 0, 4),  # the full product
        ([1, 2], [3, -1], [4, 0, -2], [1, 5, 0], 2, 6),  # lo > 0
        ([1, 2, 7], [3, -1, 2], [4, 0, -2], [1, 5, 0], 1, 3),  # truncated below the full length
        ([0, 0, 5, 0], [0, 0, 1, 0], [2, 3], [-1, 4], 0, 5),  # zero terms in the first factor
        ([0, 1], [2, 0], [1], [0], 0, 2),  # a torsion term (0, 2) is not skipped
        ([], [], [4, 0, -2], [1, 5, 0], 0, 3),  # an empty first factor
        ([1, 2], [3, -1], [], [], 1, 3),  # an empty second factor
        ([1, 2], [3, -1], [4], [1], 5, 3),  # lo past the size: nothing lands
        ([1], [0], [1], [0], 0, 0),  # no entries asked for
    ],
)
def test_product_matches_the_object_level_schoolbook(ar, ad, br, bd, lo, size):
    x = curve(1)
    assert _product(ar, ad, br, bd, lo, size) == object_product(x, ar, ad, br, bd, lo, size)


coefficient_lists = st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), max_size=7).map(
    lambda terms: ([r for r, _ in terms], [d for _, d in terms])
)


@settings(max_examples=200, deadline=None)
@given(coefficient_lists, coefficient_lists, st.integers(0, 6), st.integers(0, 16))
def test_product_matches_the_object_level_schoolbook_on_random_lists(a, b, lo, size):
    x = curve(0)
    assert _product(*a, *b, lo, size) == object_product(x, *a, *b, lo, size)


# -- ruled Hilbert coefficients -----------------------------------------


def test_hilbert_coeff_base_cases():
    x = curve(2)
    e_cls, q_cls = x.k0(2, 3), x.k0(1, -1)
    assert hilbert_coeff_ruled(e_cls, q_cls, -1) == x.zero
    assert hilbert_coeff_ruled(e_cls, q_cls, -7) == x.zero
    assert hilbert_coeff_ruled(e_cls, q_cls, 0) == x.one
    assert hilbert_coeff_ruled(e_cls, q_cls, 1) == e_cls


def test_hilbert_coeff_trivial_degrees():
    x = curve(0)
    assert hilbert_coeff_ruled(x.k0(2, 0), x.k0(1, 0), 3) == x.k0(4, 0)


def test_hilbert_coeff_rank_constraints():
    x = curve(0)
    with pytest.raises(RankConstraintViolation):
        hilbert_coeff_ruled(x.k0(3, 0), x.k0(1, 0), 2)
    with pytest.raises(RankConstraintViolation):
        hilbert_coeff_ruled(x.k0(2, 0), x.k0(2, 0), 2)


def test_hilbert_rank_law_and_recursion_match():
    x = curve(0)
    for de in range(-5, 6):
        for dq in range(-5, 6):
            e_cls, q_cls = x.k0(2, de), x.k0(1, dq)
            rel = LaurentPoly(x, {0: x.one, 1: -e_cls, 2: q_cls})
            inv = series_invert(rel, 50)
            for n in range(51):
                b = hilbert_coeff_ruled(e_cls, q_cls, n)
                assert b.rank == n + 1
                assert inv.coeff(n) == b


# -- bundle Hilbert series ----------------------------------------------


def test_hilbert_series_of_ruled_bundle():
    x = curve(3)
    e_cls, q_cls = x.k0(2, 2), x.k0(1, -1)
    spec = PnBundleSpec(x, 1, (x.one, e_cls, q_cls))
    series = series_invert(spec.relation_poly(), 2)
    assert series.coeffs == (x.one, e_cls, x.k0(3, 4 * 2 - (-1)))


def test_hilbert_series_of_commutative_projective_line():
    # 1/(1-T)^2 has coefficients 1, 2, 3, 4, ...
    pt = point()
    spec = PnBundleSpec(pt, 1, (pt.one, pt.k0(2), pt.k0(1)))
    series = series_invert(spec.relation_poly(), 3)
    assert series.ranks() == (1, 2, 3, 4)


def test_hilbert_series_binomial_oracle():
    # 1/(1-T)^(n+1) has coefficients binomial(n+i, n), computed independently
    pt = point()
    for n in range(1, 5):
        koszul = tuple(pt.k0(math.comb(n + 1, q)) for q in range(n + 2))
        spec = PnBundleSpec(pt, n, koszul)
        series = series_invert(spec.relation_poly(), 12)
        expected = tuple(math.comb(n + i, n) for i in range(13))
        assert series.ranks() == expected


def test_hilbert_series_validation_propagates():
    pt = point()
    with pytest.raises(ValueError):
        PnBundleSpec(pt, 1, (pt.k0(2), pt.k0(2), pt.k0(1)))
