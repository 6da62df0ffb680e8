"""The Euler pairing of a ruled surface with deg Q = deg E, against Riemann-Roch.

With deg Q = deg E the surface is numerically the commutative ruled
surface P(E) over a genus-g curve, with Q = det E.  A term c T^i is the
pullback of c twisted by O(-i); with m = i - j the derived direct image
of O(m) has rank m + 1 and degree deg E * m(m+1)/2 for every integer m
(Hartshorne, Ex. III.8.4), so Riemann-Roch on the curve gives

    chi(a T^i, b T^j) = (m+1) [(1-g) r_a r_b + r_a d_b - d_a r_b]
                        + r_a r_b deg E m(m+1)/2.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from kzero import RuledSurface

GENUS = st.integers(0, 5)
DEGREE = st.integers(-8, 8)
TERMS = st.dictionaries(st.integers(-7, 7), st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=6)


def riemann_roch(genus, deg_e, a, b):
    total = 0
    for i, (ra, da) in a.items():
        for j, (rb, db) in b.items():
            m = i - j
            total += (m + 1) * ((1 - genus) * ra * rb + ra * db - da * rb)
            total += ra * rb * deg_e * m * (m + 1) // 2
    return total


def make_class(surface, terms):
    return surface.class_of({e: surface.base.k0(r, d) for e, (r, d) in terms.items()})


@settings(max_examples=100, deadline=None)
@given(GENUS, DEGREE, TERMS, TERMS)
def test_pairing_is_riemann_roch(genus, deg_e, a, b):
    s = RuledSurface.from_degrees(genus, deg_e, deg_e)
    assert s.euler_form(make_class(s, a), make_class(s, b)) == riemann_roch(genus, deg_e, a, b)


@settings(max_examples=100, deadline=None)
@given(GENUS, DEGREE, TERMS, TERMS)
def test_pairing_vanishes_on_the_relation_ideal(genus, deg_e, a, q):
    s = RuledSurface.from_degrees(genus, deg_e, deg_e)
    x = make_class(s, a)
    ideal = s.class_of(s.relation_poly() * make_class(s, q).rep)
    assert s.euler_form(x, ideal) == 0
    assert s.euler_form(ideal, x) == 0


@settings(max_examples=100, deadline=None)
@given(GENUS, DEGREE, st.integers(-12, 12))
def test_pushforward_of_a_line_bundle(genus, deg_e, m):
    s = RuledSurface.from_degrees(genus, deg_e, deg_e)
    assert s.structure_class(m).pushforward() == s.base.k0(m + 1, deg_e * m * (m + 1) // 2)


def test_hirzebruch_f1_structure_sheaf_values():
    # F_1 = P(O + O(-1)) over P^1: chi(O, O(n)) for n = 0, -1, ..., -4
    s = RuledSurface.from_degrees(0, -1, -1)
    o = s.structure_class(0)
    assert [s.euler_form(o, s.structure_class(n)) for n in range(0, -5, -1)] == [1, 0, -2, -5, -9]
