"""Polynomial products and normal forms on integer arrays, against oracles.

``LaurentPoly.__mul__`` multiplies by Kronecker substitution and
``reduce_poly`` runs one synthetic-division pass over the span and one
product with NF(T^lo), found by repeated squaring; ``reference.py`` keeps
the schoolbook product and the step-by-step reduction that build a
``K0Class`` at every step.  The library must agree with them exactly,
over a point and over curves, with huge coefficients, sparse supports,
negative exponents and factors whose ranks are all zero.  The last
tests check the stored form itself: every result is trimmed, so
equality and hashing are structural.
"""

import math
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from kzero import BaseMismatch, LaurentPoly, PnBundleSpec, RuledSurface, TruncatedSeries, curve, point, reduce_poly
from kzero.series import _convolve

BIG = st.sampled_from((2**64, -(2**64), 2**64 - 1, 10**60, -(10**60)))
COEFF = st.one_of(st.integers(-9, 9), st.integers(-(2**70), 2**70), BIG)
SMALL = st.integers(-6, 6)


def bases():
    return st.one_of(st.just(point()), st.builds(curve, st.integers(0, 4)))


@st.composite
def polys(draw, base, coeff=COEFF, exponents=st.integers(-30, 30), max_terms=8, zero_ranks=False):
    """A polynomial over ``base`` with sparse support; ``zero_ranks`` makes every rank 0."""
    terms = {}
    for e in draw(st.lists(exponents, max_size=max_terms, unique=True)):
        rank = 0 if zero_ranks else draw(coeff)
        degree = 0 if base.is_point else draw(coeff)
        terms[e] = base.k0(rank, degree)
    return LaurentPoly(base, terms)


@st.composite
def poly_pairs(draw):
    base = draw(bases())
    return tuple(draw(polys(base, zero_ranks=draw(st.integers(0, 5)) == 0)) for _ in range(2))


@settings(max_examples=200, deadline=None)
@given(poly_pairs())
def test_product_matches_schoolbook(pair):
    p, q = pair
    assert p * q == reference.poly_mul(p, q)


@settings(max_examples=80, deadline=None)
@given(bases(), st.data())
def test_product_with_all_ranks_zero(base, data):
    # (0, d) classes square to zero, so the product has no rank and is
    # zero when both factors are rank-free
    p = data.draw(polys(base, zero_ranks=True))
    q = data.draw(polys(base))
    assert p * q == reference.poly_mul(p, q)
    assert q * p == reference.poly_mul(q, p)
    assert (p * p).is_zero()


@settings(max_examples=100, deadline=None)
@given(bases(), st.integers(-40, 40), COEFF, COEFF, st.data())
def test_product_with_empty_and_one_term_factors(base, e, r, d, data):
    mono = LaurentPoly(base, {e: base.k0(r, 0 if base.is_point else d)})
    q = data.draw(polys(base))
    zero = LaurentPoly.zero(base)
    assert (zero * q).is_zero() and (q * zero).is_zero()
    assert mono * q == reference.poly_mul(mono, q)


@settings(max_examples=100, deadline=None)
@given(bases(), st.data())
def test_product_ring_laws(base, data):
    a, b, c = (data.draw(polys(base, coeff=SMALL, max_terms=6)) for _ in range(3))
    one = LaurentPoly.one(base)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert one * a == a == a * one


# slot-edge factors: 2^(8j-1) - 1 is the largest bound a slot of 8j bits holds, 2^(8j-1) the smallest it does not
EDGES = st.integers(1, 9).flatmap(lambda j: st.sampled_from(((1 << 8 * j - 1) - 1, 1 << 8 * j - 1)))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 12), st.integers(1, 12), st.one_of(st.integers(1, 2**70), EDGES), st.integers(1, 2**70),
    st.booleans(), st.booleans(),
)
def test_convolve_reaches_its_coefficient_bound_exactly(la, lb, m, k, alternate, negate):
    # a_i = m s^i and b_j = +-k s^j: the product coefficient at T^n is
    # +-m k s^n times the number of pairs i + j = n, so the middle ones
    # reach _convolve's bound max|a| * max|b| * min(len a, len b)
    s = -1 if alternate else 1
    a = [m * s**i for i in range(la)]
    b = [(-k if negate else k) * s**j for j in range(lb)]
    got = _convolve(a, b)
    assert max(map(abs, got)) == m * k * min(la, lb)
    pt = point()
    assert got == reference.poly_mul(LaurentPoly.from_int_coeffs(pt, a), LaurentPoly.from_int_coeffs(pt, b)).ranks


def test_convolve_at_the_slot_edge():
    for j in range(1, 10):
        for top in ((1 << 8 * j - 1) - 1, 1 << 8 * j - 1):
            assert _convolve([top], [1, -1]) == [top, -top]
            assert _convolve([-top, top], [1]) == [-top, top]
            assert _convolve([1, 1], [top, top]) == [top, 2 * top, top]


def test_dense_degree_1000_product_is_fast():
    x = curve(3)
    p = LaurentPoly(x, {e: x.k0(e % 19 - 9, e % 17 - 8) for e in range(1001)})
    q = LaurentPoly(x, {e: x.k0(e % 13 - 6, e % 11 - 5) for e in range(-500, 501)})
    start = time.perf_counter()
    got = p * q
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"degree-1000 product took {elapsed:.2f} s"
    # spot-check two coefficients against the plain convolution
    for e in (-500, 750):
        want_r = sum(p.coeff(i).rank * q.coeff(e - i).rank for i in range(1001))
        want_d = sum(
            p.coeff(i).rank * q.coeff(e - i).degree + p.coeff(i).degree * q.coeff(e - i).rank
            for i in range(1001)
        )
        assert got.coeff(e) == x.k0(want_r, want_d)


# -- normal forms ----------------------------------------------------------


@st.composite
def specs(draw):
    """A Pn-bundle spec with n = 1..4; for even n the leading rank is -1."""
    base = draw(bases())
    n = draw(st.integers(1, 4))
    degree = (lambda: 0) if base.is_point else (lambda: draw(st.integers(-9, 9)))
    koszul = [base.one] + [base.k0(math.comb(n + 1, q), degree()) for q in range(1, n + 2)]
    return PnBundleSpec(base, n, tuple(koszul))


def divide_by_relation(p: LaurentPoly, spec):
    """The q with p = q * relation, or None; long division from the lowest term."""
    rel = spec.relation_poly()
    q = {}
    while not p.is_zero() and p.min_exp() <= p.max_exp() - spec.n - 1:
        e = p.min_exp()
        q[e] = p.coeff(e)  # the relation's constant term is 1
        p = p - rel.shift(e) * q[e]
    return LaurentPoly(rel.base, q) if p.is_zero() else None


@settings(max_examples=150, deadline=None)
@given(specs(), st.data())
def test_reduce_matches_step_by_step_reduction(spec, data):
    p = data.draw(polys(spec.base, exponents=st.integers(-12, 16)))
    assert reduce_poly(p, spec) == reference.reduce_poly(p, spec)


@settings(max_examples=150, deadline=None)
@given(specs(), st.data())
def test_reduce_is_congruent_and_idempotent(spec, data):
    p = data.draw(polys(spec.base, coeff=SMALL, exponents=st.integers(-8, 10), max_terms=5))
    nf = reduce_poly(p, spec)
    assert divide_by_relation(p - nf.as_poly(), spec) is not None
    assert reduce_poly(nf.as_poly(), spec) == nf


# -- the stored form: lo plus trimmed rank and degree lists ----------------

TINY = st.integers(-2, 2)


def assert_trimmed(p):
    """Two integer lists of one length, nonzero at both ends; zero is (0, [], [])."""
    assert len(p.ranks) == len(p.degrees)
    assert all(type(x) is int for x in p.ranks + p.degrees)
    if p.base.is_point:
        assert not any(p.degrees)
    if p.ranks:
        assert p.ranks[0] or p.degrees[0]
        assert p.ranks[-1] or p.degrees[-1]
    else:
        assert (p.lo, p.ranks, p.degrees) == (0, [], [])


@st.composite
def small_pairs(draw):
    # tiny coefficients on a narrow window, so sums and products cancel often
    base = draw(bases())
    return tuple(draw(polys(base, coeff=TINY, exponents=st.integers(-4, 4), max_terms=5)) for _ in range(2))


@settings(max_examples=300, deadline=None)
@given(small_pairs(), TINY, TINY, st.integers(-2, 2), st.integers(-40, 40))
def test_every_operation_returns_a_trimmed_polynomial(pair, r, d, k, s):
    p, q = pair
    c = p.base.k0(r, 0 if p.base.is_point else d)
    for result in (p + q, p - q, -p, p * c, c * p, p * k, k * p, p * q, p.shift(s), p - p):
        assert_trimmed(result)


@settings(max_examples=300, deadline=None)
@given(small_pairs())
def test_equality_and_hash_are_structural(pair):
    p, q = pair
    zero = LaurentPoly.zero(p.base)
    assert p - p == zero and hash(p - p) == hash(zero)
    assert (p + q) - q == p and hash((p + q) - q) == hash(p)
    rebuilt = LaurentPoly(p.base, p.terms())
    assert rebuilt == p and hash(rebuilt) == hash(p)
    assert p.support() == tuple(e for e, _ in p.terms())


@settings(max_examples=100, deadline=None)
@given(small_pairs(), st.integers(0, 4))
def test_scaling_by_a_class_over_another_base_is_rejected(pair, genus):
    p, _ = pair
    other = curve(genus + 1) if p.base == curve(genus) else curve(genus)
    with pytest.raises(BaseMismatch):
        p * other.one
    with pytest.raises(BaseMismatch):
        other.one * p


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.lists(st.tuples(TINY, TINY), min_size=1, max_size=6), st.data())
def test_series_equality_and_hash_follow_the_coefficients(genus, pairs, data):
    x = curve(genus)
    other = data.draw(st.one_of(st.just(pairs), st.lists(st.tuples(TINY, TINY), min_size=1, max_size=6)))
    s = TruncatedSeries(x, [x.k0(r, d) for r, d in pairs])
    t = TruncatedSeries(x, [x.k0(r, d) for r, d in other])
    assert (s == t) == (s.coeffs == t.coeffs)
    if s == t:
        assert hash(s) == hash(t)
    assert TruncatedSeries(x, s.coeffs) == s and s.ranks() == tuple(r for r, _ in pairs)


def test_adding_zero_to_a_far_monomial_allocates_no_span():
    # zero stores lo = 0, which is no exponent; __add__ returns the other operand, or 0 + T^k would allocate 0..k
    x, far = curve(1), 10**6
    s = RuledSurface.from_degrees(1, 1, 0)
    zero, high, low = LaurentPoly.zero(x), LaurentPoly.monomial(x.one, far), LaurentPoly.monomial(x.one, -far)
    cases = [
        (lambda: zero + high, high),
        (lambda: low - low + high, high),
        (lambda: (s.class_of({}) + s.structure_class(-far)).rep, high),
    ]
    for total, want in cases:
        tracemalloc.start()
        try:
            got = total()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 1 << 20
