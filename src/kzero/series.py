"""Laurent polynomials and truncated power series over the numerical base ring.

The graded Grothendieck group of the base is the ring of Laurent
polynomials in one variable ``T`` with :class:`~kzero.base.K0Class`
coefficients; Hilbert series of graded algebras live in the matching
power-series ring.  This module provides both, plus truncated series
inversion and the Hilbert pieces of a ruled quotient algebra.

A class is r + eps*d with eps^2 = 0, so both types store integer lists
only: a polynomial is a lowest exponent ``lo`` plus dense ``ranks`` and
``degrees``, a series the ranks and degrees of c_0 .. c_N.  The kernels
work on these lists; ``K0Class`` objects are built only for callers who
ask for coefficients (``terms()``, ``coeff()``, ``coeffs``) or a
``repr``.  Polynomial products take one big-integer multiplication per
list pair (Kronecker substitution, by this module's slot codec); inversion
convolves directly, and truncated and normal-form products share ``_product``.
"""

from __future__ import annotations

from itertools import count
from math import comb
from operator import index

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

    The coefficient of T^(lo+i) is (ranks[i], degrees[i]).  The lists are
    trimmed to nonzero end coefficients and zero is (0, [], []), so ``==``
    is structural equality.  Memory and time grow with the exponent span,
    not the number of terms.  Instances are immutable.
    """

    __slots__ = ("base", "lo", "ranks", "degrees")

    def __init__(self, base: BaseSpace, terms=()):
        items = list(terms.items() if hasattr(terms, "items") else terms)
        for exp, coeff in items:
            if not isinstance(exp, int):
                raise ValidationError(f"exponent {exp!r} is not an integer")
            if coeff.base != base:
                raise BaseMismatch(f"coefficient base {coeff.base!r} != {base!r}")
        exps = [exp for exp, _ in items] or [0]
        lo = min(exps)
        size = max(exps) - lo + 1
        ranks, degrees = [0] * size, [0] * size
        for exp, coeff in items:
            ranks[exp - lo] += coeff.rank
            degrees[exp - lo] += coeff.degree
        self._store(base, lo, ranks, degrees)

    @classmethod
    def _dense(cls, base: BaseSpace, lo: int, ranks: list[int], degrees: list[int]) -> LaurentPoly:
        """The polynomial sum (ranks[i], degrees[i]) T^(lo+i), trimmed by ``_store``."""
        p = cls.__new__(cls)
        p._store(base, lo, ranks, degrees)
        return p

    def _store(self, base: BaseSpace, lo: int, ranks: list[int], degrees: list[int]) -> None:
        start, end = 0, len(ranks)
        while start < end and not (ranks[start] or degrees[start]):
            start += 1
        while end > start and not (ranks[end - 1] or degrees[end - 1]):
            end -= 1
        self.base, self.lo = base, lo + start if start < end else 0
        self.ranks, self.degrees = ranks[start:end], degrees[start:end]

    @classmethod
    def zero(cls, base: BaseSpace) -> LaurentPoly:
        return cls._dense(base, 0, [], [])

    @classmethod
    def one(cls, base: BaseSpace) -> LaurentPoly:
        return cls._dense(base, 0, [1], [0])

    @classmethod
    def monomial(cls, coeff: K0Class, exp: int = 0) -> LaurentPoly:
        return cls(coeff.base, {exp: coeff})

    @classmethod
    def from_int_coeffs(cls, base: BaseSpace, ints) -> LaurentPoly:
        """Polynomial sum (c_i, 0) T^i with pure rank coefficients, each read by ``operator.index``."""
        ranks = []
        for i, c in enumerate(ints):
            try:
                ranks.append(index(c))
            except TypeError as err:
                raise ValidationError(f"coefficient {i}: {err}") from None
        return cls._dense(base, 0, ranks, [0] * len(ranks))

    def terms(self):
        """Pairs (exponent, coefficient) in increasing exponent order."""
        k0 = self.base.k0
        return tuple((e, k0(r, d)) for e, r, d in zip(count(self.lo), self.ranks, self.degrees) if r or d)

    def coeff(self, exp: int) -> K0Class:
        i = exp - self.lo
        return self.base.k0(self.ranks[i], self.degrees[i]) if 0 <= i < len(self.ranks) else self.base.zero

    def support(self) -> tuple[int, ...]:
        return tuple(e for e, r, d in zip(count(self.lo), self.ranks, self.degrees) if r or d)

    def is_zero(self) -> bool:
        return not self.ranks

    def min_exp(self) -> int:
        if not self.ranks:
            raise ValueError("the zero polynomial has no support")
        return self.lo

    def max_exp(self) -> int:
        return self.min_exp() + len(self.ranks) - 1

    _require_same_base = K0Class._require_same_base

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._require_same_base(other)
        if not self.ranks or not other.ranks:
            return other if not self.ranks else self
        lo = min(self.lo, other.lo)
        size = max(self.lo + len(self.ranks), other.lo + len(other.ranks)) - lo
        ranks, degrees = [0] * size, [0] * size
        for p in (self, other):
            for i, r, d in zip(count(p.lo - lo), p.ranks, p.degrees):
                ranks[i] += r
                degrees[i] += d
        return LaurentPoly._dense(self.base, lo, ranks, degrees)

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> LaurentPoly:
        return self * -1

    def __mul__(self, other):
        """Product with a polynomial, a class or an integer.

        Two polynomials multiply on their lists: ranks ra*rb and degrees
        ra*db + da*rb, three integer convolutions by Kronecker
        substitution.  The cost grows with the exponent spans, not with
        the number of terms, so (1 + T^k)^2 takes time and memory linear
        in k.  A class (r, d) scales every coefficient; an integer k
        acts as the class (k, 0).
        """
        if isinstance(other, LaurentPoly):
            self._require_same_base(other)
            ra, da, rb, db = self.ranks, self.degrees, other.ranks, other.degrees
            degrees = [x + y for x, y in zip(_convolve(ra, db), _convolve(da, rb))]
            return LaurentPoly._dense(self.base, self.lo + other.lo, _convolve(ra, rb), degrees)
        if isinstance(other, K0Class):
            self._require_same_base(other)
            r, d = other.rank, other.degree
        elif isinstance(other, int):
            r, d = other, 0
        else:
            return NotImplemented
        degrees = [r * y + d * x for x, y in zip(self.ranks, self.degrees)]
        return LaurentPoly._dense(self.base, self.lo, [r * x for x in self.ranks], degrees)

    __rmul__ = __mul__

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by T^k."""
        if not isinstance(k, int):
            raise ValidationError(f"exponent {k!r} is not an integer")
        return LaurentPoly._dense(self.base, self.lo + k, self.ranks, self.degrees)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (self.base, self.lo, self.ranks, self.degrees) == (other.base, other.lo, other.ranks, other.degrees)

    def __hash__(self):
        return hash((self.base, self.lo, tuple(self.ranks), tuple(self.degrees)))

    def __repr__(self):
        monomials = (f"{c!r}" if e == 0 else f"{c!r}*T" if e == 1 else f"{c!r}*T^{e}" for e, c in self.terms())
        return " + ".join(monomials) or "0"


class TruncatedSeries:
    """Coefficients c_0 .. c_N of a power series, modulo T^(N+1), stored as rank and degree tuples."""

    __slots__ = ("base", "_ranks", "_degrees")

    def __init__(self, base: BaseSpace, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValidationError("a truncated series needs at least order 0")
        for c in coeffs:
            if c.base is not base and c.base != base:
                raise BaseMismatch(f"coefficient base {c.base!r} != {base!r}")
        self.base = base
        self._ranks = tuple(c.rank for c in coeffs)
        self._degrees = tuple(c.degree for c in coeffs)

    @classmethod
    def _dense(cls, base: BaseSpace, ranks, degrees) -> TruncatedSeries:
        s = cls.__new__(cls)
        s.base, s._ranks, s._degrees = base, tuple(ranks), tuple(degrees)
        return s

    @classmethod
    def one(cls, base: BaseSpace, order: int) -> TruncatedSeries:
        order = _order(order)
        return cls._dense(base, [1] + [0] * order, [0] + [0] * order)

    @property
    def order(self) -> int:
        return len(self._ranks) - 1

    @property
    def coeffs(self) -> tuple[K0Class, ...]:
        return tuple(map(self.base.k0, self._ranks, self._degrees))

    def coeff(self, i: int) -> K0Class:
        if not 0 <= i <= self.order:
            raise IndexError(f"coefficient {i} outside truncation order {self.order}")
        return self.base.k0(self._ranks[i], self._degrees[i])

    def ranks(self) -> tuple[int, ...]:
        return self._ranks

    def mul_poly(self, p: LaurentPoly) -> TruncatedSeries:
        """Product with a polynomial, truncated to the same order.

        The polynomial must have no negative exponents, otherwise the top
        coefficients of the product would depend on coefficients beyond
        the truncation.
        """
        p._require_same_base(self)
        if p.lo < 0:
            raise NegativeExponent("cannot multiply a truncated series by T^-k terms")
        return self._dense(self.base, *_product(p.ranks, p.degrees, self._ranks, self._degrees, p.lo, len(self._ranks)))

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.base, self._ranks, self._degrees) == (other.base, other._ranks, other._degrees)

    def __hash__(self):
        return hash((self.base, self._ranks, self._degrees))

    def __repr__(self):
        return "[" + ", ".join(repr(c) for c in self.coeffs) + f"] + O(T^{self.order + 1})"


def series_invert(p: LaurentPoly, order: int) -> TruncatedSeries:
    """Invert a polynomial with unit constant term in the power-series ring.

    Returns b with b_0 = p_0^-1 and

        b_n = -p_0^-1 * sum_{k=1}^{min(n, deg p)} p_k * b_{n-k},

    so that p * b = 1 modulo T^(order+1).
    """
    order = _order(order)
    lo, pr, pd = p.lo, p.ranks, p.degrees
    if lo < 0:
        raise NegativeExponent("only power series (no T^-k terms) can be inverted")
    if lo > 0 or not pr or pr[0] not in (1, -1):
        raise NonUnitConstantTerm(f"constant term {p.coeff(0)!r} is not a unit")
    # (r0 + eps*d0)^-1 = r0 - eps*d0, as r0 = +-1
    r0, d0 = pr[0], pd[0]
    # while b_n is built, b holds b_0 .. b_(n-1), so b_(n-k) is b[-k]; terms past the order are never read
    terms = [(-k, pr[k], pd[k]) for k in range(1, min(len(pr) - 1, order) + 1)]
    br, bd = [r0], [-d0]
    for n in range(1, order + 1):
        acc_r = acc_d = 0
        for k, cr, cd in terms[:n] if n < len(terms) else terms:
            r = br[k]
            acc_r += cr * r
            acc_d += cr * bd[k] + cd * r
        br.append(-r0 * acc_r)
        bd.append(d0 * acc_r - r0 * acc_d)
    return TruncatedSeries._dense(p.base, br, bd)


def _order(order) -> int:
    """A truncation order read by ``operator.index``; ``ValidationError`` unless an integer >= 0."""
    try:
        order = index(order)
    except TypeError as err:
        raise ValidationError(f"truncation order: {err}") from None
    if order < 0:
        raise ValidationError("truncation order must be >= 0")
    return order


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """The coefficient list of (sum a_i x^i)(sum b_j x^j); zeros if a list is empty.

    Kronecker substitution: each list is packed into one integer with
    signed slots of w bits at x = 2^w and the two integers are multiplied
    once.  No product coefficient exceeds bound = max|a| * max|b| *
    min(len a, len b), so ``_slot_width(bound.bit_length())`` bits hold it.
    """
    n = len(a) + len(b) - 1
    bound = max(map(abs, a), default=0) * max(map(abs, b), default=0) * min(len(a), len(b))
    if not bound:
        return [0] * n
    w = _slot_width(bound.bit_length())
    return _unpack(_pack(a, w) * _pack(b, w), n, w)


def _product(ar, ad, br, bd, lo: int, size: int) -> tuple[list[int], list[int]]:
    """Entries 0..size-1 of (sum_i a_i T^(lo+i)) * (sum_j b_j T^j) by schoolbook, a_i = (ar[i], ad[i]), b_j alike."""
    out_r, out_d = [0] * size, [0] * size
    for e, xr, xd in zip(range(lo, size), ar, ad):
        if xr or xd:
            for n, yr, yd in zip(range(e, size), br, bd):
                out_r[n] += xr * yr
                out_d[n] += xr * yd + xd * yr
    return out_r, out_d


def _slot_width(bits: int) -> int:
    """Whole-byte width of a slot that holds a signed magnitude of ``bits`` bits."""
    return 8 * (bits // 8 + 1)


def _offset(slots: int, width: int) -> int:
    """``half`` in each of ``slots`` slots: added, it makes every digit nonnegative."""
    return int.from_bytes((bytes(width // 8 - 1) + b"\x80") * slots, "little")


def _pack(entries: list[int], width: int) -> int:
    """sum entries[j] * 2^(width*j), for whole-byte ``width`` and entries in [-2^(width-1), 2^(width-1))."""
    half = 1 << (width - 1)
    data = b"".join((x + half).to_bytes(width // 8, "little") for x in entries)
    return int.from_bytes(data, "little") - _offset(len(entries), width)


def _unpack(packed: int, slots: int, width: int) -> list[int]:
    """The entries of ``_pack``, also of a sum or product of packings whose slots all stay in range."""
    half, w = 1 << (width - 1), width // 8
    data = (packed + _offset(slots, width)).to_bytes(slots * w, "little")
    return [int.from_bytes(data[j : j + w], "little") - half for j in range(0, slots * w, w)]


def _check_ruled_pair(E: K0Class, Q: K0Class) -> None:
    E._require_same_base(Q)
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
