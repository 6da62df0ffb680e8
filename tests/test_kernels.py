"""The integer (rank, degree) kernels against object-level reference code.

``reference.py`` holds the plain versions that build a ``K0Class`` at
every step.  The library must agree with them exactly, including on
pairings whose term pairs reach j - i >= 2, where the R^1 f_* term (the
dual of B_{j-i-2} twisted by Q^-1) enters.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from kzero import LaurentPoly, RuledSurface, TruncatedSeries, curve, hilbert_coeff_ruled, point, series_invert

GENUS = st.integers(0, 4)
DEGREE = st.integers(-8, 8)
SMALL = st.integers(-5, 5)
EXPONENT = st.integers(-6, 6)


def surfaces():
    return st.builds(RuledSurface.from_degrees, GENUS, DEGREE, DEGREE)


def class_terms(exponents=EXPONENT):
    return st.dictionaries(exponents, st.tuples(SMALL, SMALL), max_size=6)


def make_class(surface, terms):
    return surface.class_of({e: surface.base.k0(r, d) for e, (r, d) in terms.items()})


@settings(max_examples=300, deadline=None)
@given(GENUS, DEGREE, DEGREE, st.integers(-3, 60))
def test_closed_form_pieces_match_the_recursion(genus, deg_e, deg_q, n):
    x = curve(genus)
    e_cls, q_cls = x.k0(2, deg_e), x.k0(1, deg_q)
    assert hilbert_coeff_ruled(e_cls, q_cls, n) == reference.hilbert_recursion(e_cls, q_cls, n)


@settings(max_examples=100, deadline=None)
@given(GENUS, DEGREE, st.integers(0, 60))
def test_commutative_pieces_have_degree_binomial_times_deg_e(genus, deg_e, n):
    # deg Q = deg E: B_n = Sym^n E, of degree C(n+1, 2) * deg E
    x = curve(genus)
    b = hilbert_coeff_ruled(x.k0(2, deg_e), x.k0(1, deg_e), n)
    assert b.degree == math.comb(n + 1, 2) * deg_e


@settings(max_examples=200, deadline=None)
@given(surfaces(), class_terms(), class_terms())
def test_euler_form_matches_reference(surface, a_terms, b_terms):
    a, b = make_class(surface, a_terms), make_class(surface, b_terms)
    assert surface.euler_form(a, b) == reference.euler_form(surface, a, b)
    assert surface.pushforward(b) == reference.pushforward(surface, b)


@settings(max_examples=200, deadline=None)
@given(surfaces(), class_terms(st.integers(-6, 0)), class_terms(st.integers(0, 6)), st.integers(2, 8))
def test_euler_form_keeps_the_far_term_pair_values(surface, a_terms, b_terms, gap):
    # every term of b sits at least `gap` >= 2 above a term of a
    a_terms = {**a_terms, 0: (1, 0)}
    b_terms = {e + gap: c for e, c in b_terms.items()} or {gap: (1, 0)}
    a, b = make_class(surface, a_terms), make_class(surface, b_terms)
    assert surface.euler_form(a, b) == reference.euler_form(surface, a, b)
    assert surface.euler_form(b, a) == reference.euler_form(surface, b, a)


def bases():
    return st.one_of(st.just(point()), st.builds(curve, GENUS))


@st.composite
def unit_polys(draw):
    base = draw(bases())
    degree = (lambda: 0) if base.is_point else (lambda: draw(st.integers(-8, 8)))
    terms = {0: base.k0(draw(st.sampled_from((1, -1))), degree())}
    for e in range(1, draw(st.integers(0, 6)) + 1):
        terms[e] = base.k0(draw(st.integers(-8, 8)), degree())
    return LaurentPoly(base, terms)


@settings(max_examples=200, deadline=None)
@given(unit_polys(), st.integers(0, 40))
def test_series_invert_matches_reference(p, order):
    got = series_invert(p, order)
    assert got == reference.series_invert(p, order)
    assert got.mul_poly(p) == TruncatedSeries.one(p.base, order)


@settings(max_examples=200, deadline=None)
@given(GENUS, st.lists(st.tuples(SMALL, SMALL), min_size=1, max_size=30), class_terms(st.integers(0, 35)))
def test_mul_poly_matches_reference(genus, coeffs, p_terms):
    x = curve(genus)
    s = TruncatedSeries(x, [x.k0(r, d) for r, d in coeffs])
    p = LaurentPoly(x, {e: x.k0(r, d) for e, (r, d) in p_terms.items()})
    assert s.mul_poly(p) == reference.mul_poly(s, p)
