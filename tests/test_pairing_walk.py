"""The pairing and pushforward as a walk over normal forms.

``RuledSurface.euler_form`` pairs each term a_i of its first argument
with the constant coefficient of NF(b*T^-i), stepping i by one
multiplication with T^-1 = E - Q T; ``pushforward`` reads the constant
coefficient of NF(c).  NF is the bundle module's integer normal form,
the one ``reduce_poly`` wraps; it crosses a gap by repeated squaring.
These tests hold both to the term-pair loop they replaced
(``reference.euler_form_term_pairs``, which evaluates R^1 f_* in closed
form), to Snapper's polynomial at gaps of 10^9, and to ``reduce_poly``.
"""

import math
import random
import signal
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from kzero import RuledSurface, reduce_poly

GENUS = st.integers(0, 4)
DEGREE = st.integers(-8, 8)


@contextmanager
def time_limit(seconds):
    """Fail, rather than hang, if the block runs longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"took longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def dense_class(surface, lo, coeffs):
    return surface.class_of({lo + i: surface.base.k0(r, d) for i, (r, d) in enumerate(coeffs)})


@st.composite
def long_classes(draw, surface):
    size = draw(st.integers(0, 401))
    lo = draw(st.integers(-300, 300))
    seed = draw(st.integers(0, 2**32))
    rng = random.Random(seed)
    return dense_class(surface, lo, [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(size)])


@settings(max_examples=15, deadline=None)
@given(GENUS, DEGREE, DEGREE, st.data())
def test_walk_matches_the_term_pair_loop_on_long_classes(genus, deg_e, deg_q, data):
    s = RuledSurface.from_degrees(genus, deg_e, deg_q)
    a, b = data.draw(long_classes(s)), data.draw(long_classes(s))
    assert s.euler_form(a, b) == reference.euler_form_term_pairs(s, a, b)
    assert s.pushforward(b) == reference.pushforward_term_pairs(s, b)


@pytest.mark.parametrize("genus, deg_e, deg_q", [(2, 3, -1), (3, 4, 4)])
def test_walk_matches_the_term_pair_loop_at_401_terms(genus, deg_e, deg_q):
    s = RuledSurface.from_degrees(genus, deg_e, deg_q)
    rng = random.Random(genus * 100 + deg_e * 10 + deg_q)
    a, b = (dense_class(s, lo, [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(401)]) for lo in (-200, 37))
    for x, y in ((a, b), (b, a)):
        assert s.euler_form(x, y) == reference.euler_form_term_pairs(s, x, y)
    assert s.pushforward(a) == reference.pushforward_term_pairs(s, a)


def test_2001_term_self_pairing_is_fast_and_keeps_its_value():
    # deg Q != deg E.  The value is what reference.euler_form_term_pairs
    # gives on this class; the term-pair loop takes seconds, so it is
    # pinned here and checked against the loop at 401 terms above.
    s = RuledSurface.from_degrees(2, 3, -1)
    rng = random.Random(5)
    a = dense_class(s, -1000, [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(2001)])
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        value = s.euler_form(a, a)
        best = min(best, time.perf_counter() - start)
    assert value == -22057628289
    assert best < 0.05


@pytest.mark.parametrize("genus", [0, 1, 3])
@pytest.mark.parametrize("deg", [-3, 0, 5])
@pytest.mark.parametrize("m", [-(10**9), -(10**6), -20, -1, 0, 1, 2, 20, 10**6, 10**9])
def test_far_gap_pairing_is_snappers_polynomial(genus, deg, m):
    # deg Q = deg E: chi(O, O(m)) = (m+1)(1-g) + C(m+1, 2) deg E, C as a polynomial in m
    s = RuledSurface.from_degrees(genus, deg, deg)
    with time_limit(5):
        value = s.euler_form(s.structure_class(0), s.structure_class(m))
    assert value == (m + 1) * (1 - genus) + (m + 1) * m // 2 * deg


@pytest.mark.parametrize("genus, deg_e, deg_q", [(0, 1, 1), (2, 3, -1), (1, -4, 6)])
@pytest.mark.parametrize("m", [10**9, -(10**9), 10**9 + 1])
def test_far_gap_pushforward_does_not_walk_the_gap(genus, deg_e, deg_q, m):
    s = RuledSurface.from_degrees(genus, deg_e, deg_q)
    c = s.class_of({m: s.base.k0(3, -2), m + 1: s.base.k0(-1, 5)})
    with time_limit(5):
        got = c.pushforward()
        pairing = s.euler_form(s.fiber_class(), c)
    assert got == reference.pushforward_term_pairs(s, c)
    assert pairing == reference.euler_form_term_pairs(s, s.fiber_class(), c)


CLASS_TERMS = st.dictionaries(st.integers(-12, 12), st.tuples(st.integers(-5, 5), st.integers(-5, 5)), max_size=8)


def make_class(surface, terms):
    return surface.class_of({e: surface.base.k0(r, d) for e, (r, d) in terms.items()})


def normal_form(surface, c):
    return surface.class_of(reduce_poly(c.rep, surface.bundle_spec()).as_poly())


@settings(max_examples=300, deadline=None)
@given(GENUS, DEGREE, DEGREE, CLASS_TERMS, CLASS_TERMS)
def test_second_argument_may_be_replaced_by_its_normal_form(genus, deg_e, deg_q, a_terms, b_terms):
    s = RuledSurface.from_degrees(genus, deg_e, deg_q)
    a, b = make_class(s, a_terms), make_class(s, b_terms)
    nb = normal_form(s, b)
    assert s.euler_form(a, b) == s.euler_form(a, nb)
    assert s.pushforward(b) == s.pushforward(nb)
    if deg_q == deg_e:
        # on the commutative locus the first argument is reduced as well
        assert s.euler_form(normal_form(s, a), b) == s.euler_form(a, b)


def test_first_argument_is_not_reduced_off_the_commutative_locus():
    # g = 1, deg E = 2, deg Q = 1: NF(T^2) = (-1, 1) + (2, 0) T pairs with O
    # to 3, while T^2 as given pairs to 7.  Reducing the first argument
    # would break invariance under a common twist (module docstring).
    s = RuledSurface.from_degrees(1, 2, 1)
    a, o = s.structure_class(-2), s.structure_class(0)
    assert normal_form(s, a).rep.terms() == ((0, s.base.k0(-1, 1)), (1, s.base.k0(2, 0)))
    assert s.euler_form(a, o) == 7
    assert s.euler_form(normal_form(s, a), o) == 3
    assert s.euler_form(a.twist(5), o.twist(5)) == 7
