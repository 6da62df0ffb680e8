"""Object-level reference implementations, kept as test oracles.

These are the straightforward versions of the kernels in
``kzero.series``, ``kzero.bundle`` and ``kzero.surface``: every step
builds and multiplies ``K0Class`` objects.  The library computes the
same values on plain integer (rank, degree) pairs; the tests require
exact agreement.

``euler_form_term_pairs`` and ``pushforward_term_pairs`` are the
pairing and pushforward of ``kzero.surface`` as they were before the
normal-form walk: every term pair, with P(m) = Rf_* O(-m) in closed form
on integers, at a cost of |a|*|b| closed forms.  ``pushed_twist`` is
that closed form of R^1 f_*; the library no longer uses it.

``series_invert_index_loop`` and ``mul_poly_index_loop`` are the
integer loops of ``kzero.series`` as they were before they read the
series by negative index and by zip; the tests require equal tuples.

``integer_kernel_reference`` is the list form of ``kzero.intlinalg``'s
column Hermite reduction, which the library runs on packed columns for
wide matrices; the tests require the very same kernel vectors.
"""

from itertools import count

from kzero import BundleClass, K0Class, LaurentPoly, TruncatedSeries, euler_form_base
from kzero.series import ruled_piece


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


def pushed_twist(deg_e: int, deg_q: int, m: int) -> tuple[int, int]:
    """(rank, degree) of P(m) = B_{-m} - Q^-(m-1) * B_{m-2}, in closed form.

    Q^-(m-1) * B_{m-2} = (m-1, deg B_{m-2} - (m-1)^2 deg Q), and B_k = 0
    for k < 0, so at most one of the two terms is nonzero.
    """
    br, bd = ruled_piece(deg_e, deg_q, -m)
    kr, kd = ruled_piece(deg_e, deg_q, m - 2)
    return br - kr, bd - kd + kr * kr * deg_q


def _push_terms(surface, rep: LaurentPoly, shift: int) -> tuple[int, int]:
    """(rank, degree) pushed down from sum_j c_j T^(j - shift), one P(m) per term."""
    de, dq = surface.E.degree, surface.Q.degree
    rank = degree = 0
    for j, cr, cd in zip(count(rep.lo), rep.ranks, rep.degrees):
        xr, xd = pushed_twist(de, dq, j - shift)
        rank += cr * xr
        degree += cr * xd + cd * xr
    return rank, degree


def pushforward_term_pairs(surface, c) -> K0Class:
    """sum_j c_j * P(j) on integers."""
    return surface.base.k0(*_push_terms(surface, c.rep, 0))


def euler_form_term_pairs(surface, a, b) -> int:
    """sum over every term pair (i, j) of euler_form_base(a_i, b_j * P(j - i)), on integers."""
    g1 = 1 - surface.genus
    total = 0
    for i, ar, ad in zip(count(a.rep.lo), a.rep.ranks, a.rep.degrees):
        r, d = _push_terms(surface, b.rep, i)
        total += g1 * ar * r + ar * d - ad * r
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


def series_invert_index_loop(p: LaurentPoly, order: int) -> TruncatedSeries:
    """``series_invert``'s integer loop as it was, finding b_(n-k) and min(n, deg p) again for every term."""
    pr, pd = p.ranks, p.degrees
    r0, d0 = pr[0], pd[0]
    deg = len(pr) - 1
    br, bd = [r0], [-d0]
    for n in range(1, order + 1):
        acc_r = acc_d = 0
        for k in range(1, min(n, deg) + 1):
            r = br[n - k]
            acc_r += pr[k] * r
            acc_d += pr[k] * bd[n - k] + pd[k] * r
        br.append(-r0 * acc_r)
        bd.append(d0 * acc_r - r0 * acc_d)
    return TruncatedSeries._dense(p.base, br, bd)


def mul_poly_index_loop(s: TruncatedSeries, p: LaurentPoly) -> TruncatedSeries:
    """``TruncatedSeries.mul_poly``'s integer loop as it was, computing n - e for every term."""
    ranks, degrees = s.ranks(), s._degrees
    out_r, out_d = [0] * len(ranks), [0] * len(ranks)
    for e, cr, cd in zip(range(p.lo, len(ranks)), p.ranks, p.degrees):
        for n in range(e, len(ranks)):
            r = ranks[n - e]
            out_r[n] += cr * r
            out_d[n] += cr * degrees[n - e] + cd * r
    return TruncatedSeries._dense(s.base, out_r, out_d)


def integer_kernel_reference(mat) -> list[list[int]]:
    """Kernel basis by column Hermite reduction on lists, one entry at a time."""
    rows = [list(map(int, row)) for row in mat]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    m = len(rows)
    n = len(rows[0]) if m else 0
    # column j: the matrix column followed by the j-th identity column
    cols = [[row[j] for row in rows] + [int(i == j) for i in range(n)] for j in range(n)]
    rank = 0
    for i in range(m):
        while True:
            live = [k for k in range(rank, n) if cols[k][i]]
            if not live:
                break
            p = min(live, key=lambda k: abs(cols[k][i]))
            cols[rank], cols[p] = cols[p], cols[rank]
            pivot = cols[rank]
            if len(live) == 1:
                rank += 1
                break
            # entries above row i are zero in every non-pivot column
            for k in range(rank + 1, n):
                col = cols[k]
                q = col[i] // pivot[i]
                if q:
                    col[i:] = [x - q * y for x, y in zip(col[i:], pivot[i:])]
    return [col[m:] for col in cols[rank:]]
