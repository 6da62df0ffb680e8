"""Object-level reference implementations, kept as test oracles.

These are the straightforward versions of the kernels in
``kzero.series``, ``kzero.bundle`` and ``kzero.surface``: every step
builds and multiplies ``K0Class`` objects.  The library computes the
same values on plain integer (rank, degree) pairs; the tests require
exact agreement.
"""

from kzero import BundleClass, K0Class, LaurentPoly, TruncatedSeries, euler_form_base


def poly_mul(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Schoolbook product: every term of p times every term of q."""
    out = {}
    for e1, c1 in p.terms():
        for e2, c2 in q.terms():
            e = e1 + e2
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return LaurentPoly(p.base, out)


def reduce_poly(p: LaurentPoly, spec) -> BundleClass:
    """Clear the lowest negative exponent, then the highest above n, one at a time.

    Each step subtracts a whole shifted multiple of the relation and
    builds a new polynomial.
    """
    rel = spec.relation_poly()
    top = spec.n + 1
    lead_inv = rel.coeff(top).inverse()
    while not p.is_zero() and p.min_exp() < 0:
        e = p.min_exp()
        p = p - rel.shift(e) * p.coeff(e)
    while not p.is_zero() and p.max_exp() > spec.n:
        e = p.max_exp()
        p = p - rel.shift(e - top) * (p.coeff(e) * lead_inv)
    return BundleClass(spec, tuple(p.coeff(i) for i in range(spec.n + 1)))


def hilbert_recursion(E: K0Class, Q: K0Class, n: int) -> K0Class:
    """B_n = 0 for n < 0, B_0 = 1, and B_n = E*B_{n-1} - Q*B_{n-2}."""
    if n < 0:
        return E.base.zero
    prev, cur = E.base.zero, E.base.one
    for _ in range(n):
        prev, cur = cur, E * cur - Q * prev
    return cur


def pushforward_of_twist(E: K0Class, Q: K0Class, m: int) -> K0Class:
    """P(m) = Rf_* O(-m), from the relation P(k) - E*P(k+1) + Q*P(k+2) = 0.

    P(m) = B_{-m} for m <= 0 and P(1) = 0; above that the recurrence runs
    forwards, P(k+2) = Q^-1 * (E*P(k+1) - P(k)).
    """
    if m <= 0:
        return hilbert_recursion(E, Q, -m)
    q_inv = Q.inverse()
    prev, cur = E.base.one, E.base.zero
    for _ in range(m - 1):
        prev, cur = cur, q_inv * (E * cur - prev)
    return cur


def serre_dual_pushforward_of_twist(E: K0Class, Q: K0Class, m: int) -> K0Class:
    """B_{-m} - dual(B_{m-2}) * Q^-1: the Serre-dual form, equal to P(m) only at deg Q = deg E."""
    return hilbert_recursion(E, Q, -m) - hilbert_recursion(E, Q, m - 2).dual() * Q.inverse()


def pushforward(surface, c) -> K0Class:
    """sum_i c_i * P(i), one term at a time."""
    total = surface.base.zero
    for i, coeff in c.rep.terms():
        total = total + coeff * pushforward_of_twist(surface.E, surface.Q, i)
    return total


def euler_form(surface, a, b) -> int:
    """sum over every term pair (i, j) of euler_form_base(a_i, b_j * P(j - i))."""
    total = 0
    for i, ai in a.rep.terms():
        for j, bj in b.rep.terms():
            total += euler_form_base(ai, bj * pushforward_of_twist(surface.E, surface.Q, j - i))
    return total


def series_invert(p: LaurentPoly, order: int) -> TruncatedSeries:
    """b_0 = p_0^-1 and b_n = -p_0^-1 * sum_{k=1}^{min(n, deg p)} p_k * b_{n-k}."""
    inv0 = p.coeff(0).inverse()
    deg = p.max_exp()
    coeffs = [inv0]
    for n in range(1, order + 1):
        acc = p.base.zero
        for k in range(1, min(n, deg) + 1):
            acc = acc + p.coeff(k) * coeffs[n - k]
        coeffs.append(-(inv0 * acc))
    return TruncatedSeries(p.base, coeffs)


def mul_poly(s: TruncatedSeries, p: LaurentPoly) -> TruncatedSeries:
    """Truncated product of a series with a polynomial in T (no T^-k terms)."""
    out = []
    for n in range(s.order + 1):
        acc = s.base.zero
        for e, c in p.terms():
            if 0 <= n - e <= s.order:
                acc = acc + c * s.coeffs[n - e]
        out.append(acc)
    return TruncatedSeries(s.base, out)
