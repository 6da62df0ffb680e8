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


def pushforward(surface, c) -> K0Class:
    """sum_i c_i * (B_{-i} - dual(B_{i-2}) * Q^-1), one term at a time."""
    q_inv = surface.Q.inverse()
    total = surface.base.zero
    for i, coeff in c.rep.terms():
        b = hilbert_recursion(surface.E, surface.Q, -i)
        r1 = hilbert_recursion(surface.E, surface.Q, i - 2).dual() * q_inv
        total = total + coeff * (b - r1)
    return total


def euler_form(surface, a, b) -> int:
    """The pairing summed over every term pair (i, j) of the two classes."""
    E, Q = surface.E, surface.Q
    q_inv = Q.inverse()
    total = 0
    for i, ai in a.rep.terms():
        for j, bj in b.rep.terms():
            r1 = hilbert_recursion(E, Q, j - i - 2).dual() * q_inv
            total += euler_form_base(ai, bj * hilbert_recursion(E, Q, i - j) - bj * r1)
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
