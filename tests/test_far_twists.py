"""Normal forms far from the basis, for every fiber dimension n.

``reduce_poly`` and ``twist`` divide over the span of a class and then
multiply by NF(T^lo), which is found by repeated squaring, so a twist by
T^k costs O(log |k|) products of normal forms.  These tests hold that to
Snapper's polynomial for commutative Koszul data at twists up to 10^9,
to the group law of twisting, and to ``reference.reduce_poly``, the
step-by-step reduction.  The last test bounds the time and memory of a
far twist.
"""

import math
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from kzero import PnBundleSpec, curve, euler_form_base, pullback, reduce_poly, twist
from test_bundle import bundle_specs, laurent_polys
from test_pairing_walk import time_limit

FAR = st.integers(-(10**9), 10**9)


def poly_binomial(x, k):
    """C(x, k) = x(x-1)...(x-k+1)/k!, the polynomial in x, so defined for negative x too."""
    falling = 1
    for i in range(k):
        falling *= x - i
    return falling // math.factorial(k)


def wedge_spec(n, genus, deg_e):
    """Koszul data E_q = wedge^q E of a rank-(n+1) bundle E of degree deg_e on a genus-g curve."""
    x = curve(genus)
    degrees = [0] + [math.comb(n, q - 1) * deg_e for q in range(1, n + 2)]
    return PnBundleSpec(x, n, tuple(x.k0(math.comb(n + 1, q), d) for q, d in enumerate(degrees)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("genus", [0, 1, 2])
@pytest.mark.parametrize("deg_e", [-4, -1, 0, 3])
def test_far_pushforward_is_snappers_polynomial(n, genus, deg_e):
    # chi_X(O, Rf_* O(m)) = C(m+n, n)(1-g) + C(m+n, n+1) deg E, and O(m) is T^-m
    spec = wedge_spec(n, genus, deg_e)
    one = pullback(spec.base.one, spec)
    far = [10**6, -(10**6), 10**9, -(10**9), 10**9 + 7]
    with time_limit(5):
        for m in list(range(-12, 13)) + far:
            pushed = twist(one, -m).coeffs[0]
            want = poly_binomial(m + n, n) * (1 - genus) + poly_binomial(m + n, n + 1) * deg_e
            assert euler_form_base(spec.base.one, pushed) == want, m


@settings(max_examples=100, deadline=None)
@given(bundle_specs(), st.data(), FAR, FAR)
def test_twists_compose_at_far_exponents(spec, data, a, b):
    c = reduce_poly(data.draw(laurent_polys(spec.base)), spec)
    assert twist(twist(c, a), b) == twist(c, a + b)
    assert twist(twist(c, a), -a) == c


@settings(max_examples=40, deadline=None)
@given(bundle_specs(), st.data(), st.integers(-300, 300))
def test_twist_is_the_stepwise_reduction(spec, data, k):
    p = data.draw(laurent_polys(spec.base))
    c = reduce_poly(p, spec)
    assert twist(c, k) == reference.reduce_poly(c.as_poly().shift(k), spec)
    assert reduce_poly(p.shift(k), spec) == reference.reduce_poly(p.shift(k), spec)


def test_a_twist_by_a_million_is_fast_and_small():
    # pinned from a step-by-step reduction over all 10^6 exponents
    x = curve(1)
    spec = PnBundleSpec(x, 2, (x.k0(1, 0), x.k0(3, 2), x.k0(3, 1), x.k0(1, 0)))
    one = pullback(x.one, spec)
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        got = twist(one, 10**6)
        best = min(best, time.perf_counter() - start)
    tracemalloc.start()
    try:
        twist(one, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(c.rank, c.degree) for c in got.coeffs] == [
        (499998500001, -8333208333874999125000450000),
        (-999998000000, 16666458333833333041666650000),
        (499999500000, -8333250000125000083333200000),
    ]
    assert best < 0.05
    assert peak < 2**20
