"""Independent oracles for the benchmark's outputs.

Nothing here imports ``kzero``.  Every check recomputes the answer (or a
property that pins it down) from the mathematics with plain Python
integers and ``fractions.Fraction``, so a wrong program output cannot
also be the oracle's answer.

A numerical class over the base is a pair ``(rank, degree)`` of ints; a
Laurent polynomial is a dict ``{exponent: (rank, degree)}`` with no zero
pairs stored.  Over a point every degree is zero.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

ZERO = (0, 0)
ONE = (1, 0)


# -- the base ring Z[eps]/eps^2 ----------------------------------------


def pair_mul(a, b):
    """(r1 + eps d1)(r2 + eps d2) with eps^2 = 0."""
    return (a[0] * b[0], a[0] * b[1] + a[1] * b[0])


def pair_unit_inverse(a):
    """Inverse of a class of rank +1 or -1."""
    if a[0] not in (1, -1):
        raise ValueError(f"{a} is not a unit")
    return (a[0], -a[1])


def poly_clean(p):
    return {e: c for e, c in p.items() if c != ZERO}


def poly_mul(p, q):
    """Convolution of two Laurent polynomials over Z[eps]/eps^2."""
    out = {}
    for e1, (r1, d1) in p.items():
        for e2, (r2, d2) in q.items():
            r, d = out.get(e1 + e2, ZERO)
            out[e1 + e2] = (r + r1 * r2, d + r1 * d2 + d1 * r2)
    return poly_clean(out)


# -- series inversion ----------------------------------------------------


def inverse_defects(p, coeffs):
    """Indices n <= N where (p * b)_n differs from the n-th coefficient of 1.

    ``p`` has no negative exponents and ``coeffs`` is b_0 .. b_N, so an
    empty result means p * b = 1 modulo T^(N+1).
    """
    bad = []
    terms = sorted(p.items())
    for n in range(len(coeffs)):
        r = d = 0
        for e, (pr, pd) in terms:
            if e > n:
                break
            br, bd = coeffs[n - e]
            r += pr * br
            d += pr * bd + pd * br
        if (r, d) != (ONE if n == 0 else ZERO):
            bad.append(n)
    return bad


def int_inverse_defects(relation, ranks):
    """``inverse_defects`` for integer coefficients (a point base)."""
    return inverse_defects(
        {e: (c, 0) for e, c in enumerate(relation) if c}, [(b, 0) for b in ranks]
    )


def rank_law(n, order):
    """Ranks of the graded pieces of a P^n-bundle: binomial(n+i, n), i = 0..order."""
    return [math.comb(n + i, n) for i in range(order + 1)]


# -- normal forms ----------------------------------------------------------


def exact_quotient(f, rel):
    """The Laurent polynomial q with f = q * rel, or None if there is none.

    ``rel`` has its lowest term at T^0 and a unit coefficient there, so
    the quotient is determined from the bottom up; the division is exact
    exactly when the top ``deg rel`` coefficients of the remainder vanish.
    """
    f = poly_clean(f)
    if not f:
        return {}
    top = max(rel)
    if min(rel) != 0:
        raise ValueError("relation must start at T^0")
    inv0 = pair_unit_inverse(rel[0])
    lo, hi = min(f), max(f)
    rem = dict(f)
    q = {}
    for k in range(lo, hi - top + 1):
        c = rem.pop(k, ZERO)
        if c == ZERO:
            continue
        qk = pair_mul(c, inv0)
        q[k] = qk
        for l, rl in rel.items():
            if l:
                r, d = rem.get(k + l, ZERO)
                pr, pd = pair_mul(qk, rl)
                rem[k + l] = (r - pr, d - pd)
    if poly_clean(rem):
        return None
    return q


def is_normal_form_of(p, reduced, rel, n):
    """``reduced`` lies in degrees 0..n and p - reduced is a multiple of rel.

    Together these pin the normal form down uniquely, because a nonzero
    multiple of a relation with unit end coefficients spans more than
    n + 1 consecutive degrees.
    """
    if any(e < 0 or e > n for e in poly_clean(reduced)):
        return False
    diff = dict(p)
    for e, (r, d) in reduced.items():
        r0, d0 = diff.get(e, ZERO)
        diff[e] = (r0 - r, d0 - d)
    return exact_quotient(diff, rel) is not None


def pn_point_relation(n):
    """(1 - T)^(n+1): the Koszul relation of P^n over a point."""
    return {q: ((-1) ** q * math.comb(n + 1, q), 0) for q in range(n + 2)}


# -- Euler pairing on a commutative ruled surface ---------------------------


def rr_pairing(genus, deg_e, a, b):
    """chi(a, b) on the ruled surface P(E) over a genus-g curve, deg Q = deg E.

    A term c T^i is the pullback of c twisted by O(-i).  With m = i - j the
    derived direct image of O(m) has rank m + 1 and degree
    deg E * m(m+1)/2 for every integer m (Sym^m E for m >= 0, nothing at
    m = -1, and minus the dual of Sym^(-m-2) E tensor det E below), so
    Riemann-Roch on the curve gives

        chi(a T^i, b T^j) = (m+1)[(1-g) r_a r_b + r_a d_b - d_a r_b]
                            + r_a r_b deg E m(m+1)/2.
    """
    total = 0
    for i, (ra, da) in a.items():
        for j, (rb, db) in b.items():
            m = i - j
            total += (m + 1) * ((1 - genus) * ra * rb + ra * db - da * rb)
            total += ra * rb * deg_e * m * (m + 1) // 2
    return total


def ruled_relation(deg_e, deg_q):
    """1 - E T + Q T^2 with rank E = 2 and rank Q = 1."""
    return {0: ONE, 1: (-2, -deg_e), 2: (1, deg_q)}


def ruled_identities(deg_e):
    """The paper's intersection numbers on a quantum ruled surface.

    fiber.fiber = 0, fiber.H = H.fiber = 1, H.H = deg E, the e-invariant
    -deg E, and the Neron-Severi Gram matrix [[0, 1], [1, deg E]] in the
    basis (fiber, H).
    """
    return {
        "intersection_table": {"fiber.fiber": 0, "fiber.H": 1, "H.fiber": 1, "H.H": deg_e},
        "e_invariant": -deg_e,
        "gram_ns": [[0, 1], [1, deg_e]],
    }


# -- integer kernels ---------------------------------------------------------


def rational_rank(mat):
    """Rank over Q by exact Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / p[col]
                rows[i] = [x - f * y for x, y in zip(rows[i], p)]
        rank += 1
    return rank


def in_kernel(mat, vec):
    return all(sum(a * x for a, x in zip(row, vec)) == 0 for row in mat)


def _det(mat):
    # Bareiss fraction-free elimination: exact, integer intermediate values
    a = [list(row) for row in mat]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def is_saturated(basis):
    """The rows span a saturated rank-k sublattice of Z^n.

    That holds exactly when the k x k minors have gcd 1 (a zero gcd would
    mean the rows are dependent).
    """
    if not basis:
        return True
    k, n = len(basis), len(basis[0])
    g = 0
    for cols in itertools.combinations(range(n), k):
        g = math.gcd(g, _det([[row[c] for c in cols] for row in basis]))
        if g == 1:
            return True
    return False


def kernel_defects(mat, basis):
    """Reasons the rows of ``basis`` are not a basis of ker(mat) in Z^n."""
    ncols = len(mat[0])
    out = []
    want = ncols - rational_rank(mat)
    if len(basis) != want:
        out.append(f"kernel rank {len(basis)} != {want}")
    if any(len(v) != ncols for v in basis):
        out.append("kernel vector of the wrong length")
        return out
    if not all(in_kernel(mat, v) for v in basis):
        out.append("a basis vector is not in the kernel")
    if basis and rational_rank(basis) != len(basis):
        out.append("basis vectors are dependent")
    elif not is_saturated(basis):
        out.append("basis does not span a saturated lattice")
    return out


# -- the verify sweep ----------------------------------------------------------


def verify_check_counts(gmax=5, dmax=5, trials=200):
    """Checks each ``kzero verify`` suite defines on its grid.

    Per surface (g, deg E, deg Q): four intersection identities and two
    lattice checks; per (deg E, deg Q) pair: two rank-law checks; one
    inversion identity per random trial.
    """
    surfaces = (gmax + 1) * (2 * dmax + 1) ** 2
    return {
        "intersection identities": 4 * surfaces,
        "hilbert rank law": 2 * (2 * dmax + 1) ** 2,
        "series inversion identity": trials,
        "radical and Neron-Severi lattice": 2 * surfaces,
    }
