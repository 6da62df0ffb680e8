"""The integer (rank, degree) kernels against object-level reference code.

``reference.py`` holds the plain versions that build a ``K0Class`` at
every step.  The library must agree with them exactly, including on
pairings whose term pairs reach j - i >= 2, where the R^1 f_* term
enters.  The pushforward oracle runs the relation's recurrence on
classes; the Serre-dual form it replaced is kept as an oracle where the
two agree, at deg Q = deg E.
"""

import math
import random

from hypothesis import example, given, settings
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


@settings(max_examples=200, deadline=None)
@given(GENUS, DEGREE, st.integers(-20, 20))
def test_serre_dual_form_matches_the_recurrence_at_deg_q_equal_deg_e(genus, deg, m):
    s = RuledSurface.from_degrees(genus, deg, deg)
    p = reference.pushforward_of_twist(s.E, s.Q, m)
    assert p == reference.serre_dual_pushforward_of_twist(s.E, s.Q, m)
    assert s.class_of({m: s.base.one}).pushforward() == p


@settings(max_examples=300, deadline=None)
@given(surfaces(), class_terms(), st.integers(-8, 8), st.tuples(SMALL, SMALL))
def test_pushforward_and_second_argument_kill_the_relation_ideal(surface, a_terms, k, c):
    # c * T^k * (1 - E T + Q T^2), at every (g, deg E, deg Q)
    x = surface.base
    ideal = surface.class_of(surface.relation_poly().shift(k) * x.k0(*c))
    assert ideal.pushforward() == x.zero
    assert surface.euler_form(make_class(surface, a_terms), ideal) == 0


def bases():
    return st.one_of(st.just(point()), st.builds(curve, GENUS))


@st.composite
def unit_polys(draw, max_exp=6):
    base = draw(bases())
    degree = (lambda: 0) if base.is_point else (lambda: draw(st.integers(-8, 8)))
    terms = {0: base.k0(draw(st.sampled_from((1, -1))), degree())}
    for e in range(1, draw(st.integers(0, max_exp)) + 1):
        terms[e] = base.k0(draw(st.integers(-8, 8)), degree())
    return LaurentPoly(base, terms)


@st.composite
def series_and_polys(draw):
    base = draw(bases())
    degree = (lambda: 0) if base.is_point else (lambda: draw(SMALL))
    s = TruncatedSeries(base, [base.k0(draw(SMALL), degree()) for _ in range(draw(st.integers(0, 12)) + 1)])
    exps = draw(st.lists(st.integers(0, 16), max_size=8))
    return s, LaurentPoly(base, [(e, base.k0(draw(SMALL), degree())) for e in exps])


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


# ``series_invert`` and ``mul_poly`` against their index loops: equal integer tuples, on point and curve
# bases, from degree 0 up, at orders below the degree (the start-up window, where n < deg p) and above


@settings(max_examples=300, deadline=None)
@given(unit_polys(max_exp=12), st.integers(0, 14))
def test_series_invert_matches_the_index_loop(p, order):
    assert series_invert(p, order) == reference.series_invert_index_loop(p, order)


@settings(max_examples=50, deadline=None)
@given(unit_polys(max_exp=0), st.integers(0, 40))
def test_series_invert_of_a_unit_matches_the_index_loop(p, order):
    got = series_invert(p, order)
    assert got == reference.series_invert_index_loop(p, order)
    assert got.ranks() == (p.ranks[0],) + (0,) * order


@settings(max_examples=5, deadline=None)
@given(bases(), st.integers(0, 2**32 - 1))
def test_both_loops_match_the_index_loops_at_order_2000_and_degree_8(base, seed):
    rng = random.Random(seed)

    def k0():
        return base.k0(rng.randint(-9, 9), 0 if base.is_point else rng.randint(-9, 9))

    p = LaurentPoly(base, {0: base.k0(rng.choice((1, -1)), 0), **{e: k0() for e in range(1, 8)}, 8: base.k0(1, 0)})
    assert series_invert(p, 2000) == reference.series_invert_index_loop(p, 2000)
    s = TruncatedSeries(base, [k0() for _ in range(2001)])
    assert s.mul_poly(p) == reference.mul_poly_index_loop(s, p)


@settings(max_examples=300, deadline=None)
@given(series_and_polys())
@example((TruncatedSeries(point(), [point().k0(r) for r in (2, -1, 3)]), LaurentPoly.one(point())))
@example((TruncatedSeries(curve(1), [curve(1).k0(1, 2)] * 3), LaurentPoly.zero(curve(1))))
def test_mul_poly_matches_the_index_loop(sp):
    # exponents up to 16 against orders up to 12: terms past the order add nothing
    s, p = sp
    assert s.mul_poly(p) == reference.mul_poly_index_loop(s, p)
