"""Laurent polynomials and truncated power series over the numerical base ring.

The graded Grothendieck group of the base is the ring of Laurent
polynomials in one variable ``T`` with :class:`~kzero.base.K0Class`
coefficients; Hilbert series of graded algebras live in the matching
power-series ring.  This module provides both, plus truncated series
inversion and the Hilbert pieces of a ruled quotient algebra.

The kernels run on plain integer lists: a class is r + eps*d with
eps^2 = 0, so a polynomial is a lowest exponent plus dense lists of
ranks and degrees (``LaurentPoly._arrays``), and ``K0Class`` objects are
built only for the coefficients of a result.  Products of polynomials
go through one big-integer multiplication per list pair (Kronecker
substitution); series inversion and truncated products convolve the
lists directly.
"""

from __future__ import annotations

from math import comb

from .base import BaseSpace, K0Class
from .errors import (
    BaseMismatch,
    NegativeExponent,
    NonUnitConstantTerm,
    RankConstraintViolation,
    ValidationError,
)


class LaurentPoly:
    """Finitely supported polynomial in T and T^-1 with K0Class coefficients.

    Zero coefficients are never stored, so ``==`` is structural equality.
    Instances are immutable; every operation returns a fresh polynomial.
    """

    __slots__ = ("base", "_terms")

    def __init__(self, base: BaseSpace, terms=()):
        data: dict[int, K0Class] = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for exp, coeff in items:
            if not isinstance(exp, int):
                raise ValidationError(f"exponent {exp!r} is not an integer")
            if coeff.base != base:
                raise BaseMismatch(f"coefficient base {coeff.base!r} != {base!r}")
            data[exp] = data[exp] + coeff if exp in data else coeff
        self.base = base
        self._terms = {e: c for e, c in data.items() if not c.is_zero()}

    @classmethod
    def zero(cls, base: BaseSpace) -> LaurentPoly:
        return cls(base)

    @classmethod
    def one(cls, base: BaseSpace) -> LaurentPoly:
        return cls(base, {0: base.one})

    @classmethod
    def monomial(cls, coeff: K0Class, exp: int = 0) -> LaurentPoly:
        return cls(coeff.base, {exp: coeff})

    @classmethod
    def from_coeffs(cls, base: BaseSpace, coeffs, start: int = 0) -> LaurentPoly:
        return cls(base, {start + i: c for i, c in enumerate(coeffs)})

    @classmethod
    def from_int_coeffs(cls, base: BaseSpace, ints, start: int = 0) -> LaurentPoly:
        """Polynomial with pure rank coefficients (c, 0)."""
        return cls(base, {start + i: base.k0(int(c)) for i, c in enumerate(ints)})

    def terms(self):
        """Pairs (exponent, coefficient) in increasing exponent order."""
        return tuple(sorted(self._terms.items()))

    def coeff(self, exp: int) -> K0Class:
        return self._terms.get(exp, self.base.zero)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._terms))

    def is_zero(self) -> bool:
        return not self._terms

    def min_exp(self) -> int:
        if not self._terms:
            raise ValueError("the zero polynomial has no support")
        return min(self._terms)

    def max_exp(self) -> int:
        if not self._terms:
            raise ValueError("the zero polynomial has no support")
        return max(self._terms)

    def _arrays(self) -> tuple[int, list[int], list[int]]:
        """(lo, ranks, degrees): dense lists over the exponents lo .. max_exp; (0, [], []) for 0."""
        if not self._terms:
            return 0, [], []
        lo, hi = min(self._terms), max(self._terms)
        ranks, degrees = [0] * (hi - lo + 1), [0] * (hi - lo + 1)
        for e, c in self._terms.items():
            ranks[e - lo], degrees[e - lo] = c.rank, c.degree
        return lo, ranks, degrees

    @classmethod
    def _from_arrays(cls, base: BaseSpace, lo: int, ranks, degrees) -> LaurentPoly:
        """The polynomial sum (ranks[i], degrees[i]) T^(lo+i); zero coefficients are skipped."""
        p = cls.__new__(cls)
        p.base = base
        p._terms = {lo + i: K0Class(base, r, d) for i, (r, d) in enumerate(zip(ranks, degrees)) if r or d}
        return p

    def _require_same_base(self, other: LaurentPoly) -> None:
        if self.base != other.base:
            raise BaseMismatch(f"mixed bases {self.base!r} and {other.base!r}")

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._require_same_base(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out[e] + c if e in out else c
        return LaurentPoly(self.base, out)

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly(self.base, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        """Product with a polynomial, a class or an integer.

        Two polynomials multiply on their dense arrays: ranks ra*rb and
        degrees ra*db + da*rb, three integer convolutions by Kronecker
        substitution.  The cost grows with the exponent spans, not with
        the number of terms, so (1 + T^k)^2 takes time and memory linear
        in k.
        """
        if isinstance(other, LaurentPoly):
            self._require_same_base(other)
            if not self._terms or not other._terms:
                return LaurentPoly(self.base)
            lo1, ra, da = self._arrays()
            lo2, rb, db = other._arrays()
            degrees = [x + y for x, y in zip(_convolve(ra, db), _convolve(da, rb))]
            return LaurentPoly._from_arrays(self.base, lo1 + lo2, _convolve(ra, rb), degrees)
        if isinstance(other, K0Class):
            return LaurentPoly(self.base, {e: c * other for e, c in self._terms.items()})
        if isinstance(other, int):
            return LaurentPoly(self.base, {e: c * other for e, c in self._terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (K0Class, int)):
            return self.__mul__(other)
        return NotImplemented

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by T^k."""
        return LaurentPoly(self.base, {e + k: c for e, c in self._terms.items()})

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.base == other.base and self._terms == other._terms

    def __hash__(self):
        return hash((self.base, frozenset(self._terms.items())))

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = []
        for e, c in sorted(self._terms.items()):
            if e == 0:
                mono = f"{c!r}"
            elif e == 1:
                mono = f"{c!r}*T"
            else:
                mono = f"{c!r}*T^{e}"
            parts.append(mono)
        return " + ".join(parts)


class TruncatedSeries:
    """Coefficients c_0 .. c_N of a power series, modulo T^(N+1)."""

    __slots__ = ("base", "coeffs")

    def __init__(self, base: BaseSpace, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValidationError("a truncated series needs at least order 0")
        for c in coeffs:
            if c.base != base:
                raise BaseMismatch(f"coefficient base {c.base!r} != {base!r}")
        self.base = base
        self.coeffs = coeffs

    @classmethod
    def one(cls, base: BaseSpace, order: int) -> TruncatedSeries:
        return cls(base, [base.one] + [base.zero] * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> K0Class:
        if not 0 <= i <= self.order:
            raise IndexError(f"coefficient {i} outside truncation order {self.order}")
        return self.coeffs[i]

    def ranks(self) -> tuple[int, ...]:
        return tuple(c.rank for c in self.coeffs)

    def degrees(self) -> tuple[int, ...]:
        return tuple(c.degree for c in self.coeffs)

    def mul_poly(self, p: LaurentPoly) -> TruncatedSeries:
        """Product with a polynomial, truncated to the same order.

        The polynomial must have no negative exponents, otherwise the top
        coefficients of the product would depend on coefficients beyond
        the truncation.
        """
        if p.base != self.base:
            raise BaseMismatch(f"mixed bases {p.base!r} and {self.base!r}")
        if not p.is_zero() and p.min_exp() < 0:
            raise NegativeExponent("cannot multiply a truncated series by T^-k terms")
        ranks, degrees = self.ranks(), self.degrees()
        out_r, out_d = [0] * len(ranks), [0] * len(ranks)
        for e, c in p.terms():
            cr, cd = c.rank, c.degree
            for n in range(e, len(ranks)):
                r = ranks[n - e]
                out_r[n] += cr * r
                out_d[n] += cr * degrees[n - e] + cd * r
        return TruncatedSeries(self.base, map(self.base.k0, out_r, out_d))

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.base == other.base and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.base, self.coeffs))

    def __repr__(self):
        return "[" + ", ".join(repr(c) for c in self.coeffs) + f"] + O(T^{self.order + 1})"


def series_invert(p: LaurentPoly, order: int) -> TruncatedSeries:
    """Invert a polynomial with unit constant term in the power-series ring.

    Returns b with b_0 = p_0^-1 and

        b_n = -p_0^-1 * sum_{k=1}^{min(n, deg p)} p_k * b_{n-k},

    so that p * b = 1 modulo T^(order+1).
    """
    if order < 0:
        raise ValidationError("truncation order must be >= 0")
    lo, pr, pd = p._arrays()
    if lo < 0:
        raise NegativeExponent("only power series (no T^-k terms) can be inverted")
    if lo > 0 or not pr or pr[0] not in (1, -1):
        raise NonUnitConstantTerm(f"constant term {p.coeff(0)!r} is not a unit")
    # (r0 + eps*d0)^-1 = r0 - eps*d0, as r0 = +-1
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
    return TruncatedSeries(p.base, map(p.base.k0, br, bd))


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """The coefficient list of (sum a_i x^i)(sum b_j x^j), for nonempty lists.

    Kronecker substitution: each list is packed into one integer with
    k-byte slots at x = 256^k and the two integers are multiplied once.
    No product coefficient exceeds bound = max|a| * max|b| * min(len a,
    len b) in size, so a slot of k bytes holds it with its sign, and
    adding 2^(8k-1) to every slot makes all slots non-negative before the
    bytes are split apart.
    """
    n = len(a) + len(b) - 1
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    if not bound:
        return [0] * n
    k = bound.bit_length() // 8 + 1
    half = 1 << (8 * k - 1)
    offset = int.from_bytes(half.to_bytes(k, "little") * n, "little")
    raw = (_pack(a, k) * _pack(b, k) + offset).to_bytes(n * k, "little")
    return [int.from_bytes(raw[i : i + k], "little") - half for i in range(0, n * k, k)]


def _pack(xs: list[int], k: int) -> int:
    """sum xs[i] * 256^(k*i), for entries below 2^(8k-1) in size."""
    zero = bytes(k)
    pos = b"".join(x.to_bytes(k, "little") if x > 0 else zero for x in xs)
    neg = b"".join((-x).to_bytes(k, "little") if x < 0 else zero for x in xs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _check_ruled_pair(E: K0Class, Q: K0Class) -> None:
    if E.base != Q.base:
        raise BaseMismatch(f"mixed bases {E.base!r} and {Q.base!r}")
    if E.rank != 2:
        raise RankConstraintViolation(f"rank(E) must be 2, got {E.rank}")
    if Q.rank != 1:
        raise RankConstraintViolation(f"rank(Q) must be 1, got {Q.rank}")


def ruled_piece(deg_e: int, deg_q: int, n: int) -> tuple[int, int]:
    """(rank, degree) of B_n = E*B_{n-1} - Q*B_{n-2} in closed form; (0, 0) for n < 0."""
    if n < 0:
        return 0, 0
    return n + 1, deg_e * comb(n + 2, 3) - deg_q * comb(n + 1, 3)


def hilbert_coeff_ruled(E: K0Class, Q: K0Class, n: int) -> K0Class:
    """Class of the degree-n piece of the ruled coordinate ring.

    B_n = 0 for n < 0, B_0 = 1, and B_n = E*B_{n-1} - Q*B_{n-2};
    equivalently the T^n coefficient of 1/(1 - E T + Q T^2).  The rank of
    B_n is n+1 for every n >= 0.  Evaluated in O(1) by :func:`ruled_piece`.
    """
    _check_ruled_pair(E, Q)
    return E.base.k0(*ruled_piece(E.degree, Q.degree, n))


def hilbert_series_pn(spec, order: int) -> TruncatedSeries:
    """Hilbert series of a projective-space bundle, to the given order.

    This is the inverse of the bundle's alternating relation polynomial;
    ``spec`` is any object with a ``relation_poly()`` method, e.g. a
    :class:`~kzero.bundle.PnBundleSpec`.
    """
    return series_invert(spec.relation_poly(), order)
