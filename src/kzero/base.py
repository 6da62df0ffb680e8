"""Numerical Grothendieck classes of the base space.

Everything in this package is built over a base that is either a single
point or a smooth projective curve of genus ``g``.  On a curve the Euler
pairing of coherent-sheaf classes factors through the pair
(rank, degree) by Riemann-Roch, so a class is stored as an integer pair
and the divisible (Jacobian) part of the Grothendieck group is
deliberately dropped.  On a point there is no degree; it is pinned to
zero so one code path serves both bases.

Plain Python integers are used throughout: ranks and degrees may grow
without bound and never overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BaseMismatch, NotAUnit, ValidationError

POINT = "point"
CURVE = "curve"


@dataclass(frozen=True)
class BaseSpace:
    """A point, or a smooth projective curve of the given genus."""

    kind: str
    genus: int = 0

    def __post_init__(self):
        if self.kind not in (POINT, CURVE):
            raise ValidationError(f"unknown base kind {self.kind!r}")
        if not isinstance(self.genus, int) or self.genus < 0:
            raise ValidationError("genus must be a non-negative integer")
        if self.kind == POINT and self.genus != 0:
            raise ValidationError("a point has no genus")

    @property
    def is_point(self) -> bool:
        return self.kind == POINT

    def k0(self, rank: int, degree: int = 0) -> K0Class:
        return K0Class(self, rank, degree)

    @property
    def zero(self) -> K0Class:
        return K0Class(self, 0, 0)

    @property
    def one(self) -> K0Class:
        """Class of the structure sheaf, the identity of the ring."""
        return K0Class(self, 1, 0)

    def __repr__(self):
        return "point" if self.is_point else f"curve(genus={self.genus})"


def point() -> BaseSpace:
    return BaseSpace(POINT)


def curve(genus: int) -> BaseSpace:
    return BaseSpace(CURVE, genus)


@dataclass(frozen=True)
class K0Class:
    """A numerical class (rank, degree) over a fixed base.

    Addition is componentwise.  The product is the one induced by the
    tensor product of sheaves,

        (r1, d1) * (r2, d2) = (r1*r2, r1*d2 + d1*r2),

    so line-bundle classes add degrees and torsion classes square to
    zero.  The identity is ``(1, 0)`` and the units are exactly the
    classes of rank +1 or -1.
    """

    base: BaseSpace
    rank: int
    degree: int = 0

    def __post_init__(self):
        if not isinstance(self.rank, int) or not isinstance(self.degree, int):
            raise ValidationError("rank and degree must be integers")
        if self.degree and self.base.is_point:
            raise ValidationError("classes over a point have degree 0")

    def _require_same_base(self, other: K0Class) -> None:
        if self.base is not other.base and self.base != other.base:
            raise BaseMismatch(f"mixed bases {self.base!r} and {other.base!r}")

    def is_zero(self) -> bool:
        return self.rank == 0 and self.degree == 0

    def __add__(self, other: K0Class) -> K0Class:
        if not isinstance(other, K0Class):
            return NotImplemented
        self._require_same_base(other)
        return K0Class(self.base, self.rank + other.rank, self.degree + other.degree)

    def __sub__(self, other: K0Class) -> K0Class:
        if not isinstance(other, K0Class):
            return NotImplemented
        self._require_same_base(other)
        return K0Class(self.base, self.rank - other.rank, self.degree - other.degree)

    def __neg__(self) -> K0Class:
        return K0Class(self.base, -self.rank, -self.degree)

    def __mul__(self, other):
        if isinstance(other, K0Class):
            self._require_same_base(other)
            return K0Class(
                self.base,
                self.rank * other.rank,
                self.rank * other.degree + self.degree * other.rank,
            )
        if isinstance(other, int):
            return K0Class(self.base, other * self.rank, other * self.degree)
        return NotImplemented

    __rmul__ = __mul__

    def dual(self) -> K0Class:
        """Class of the dual: the rank survives and the degree flips sign."""
        return K0Class(self.base, self.rank, -self.degree)

    def is_unit(self) -> bool:
        return self.rank in (1, -1)

    def inverse(self) -> K0Class:
        if not self.is_unit():
            raise NotAUnit(f"rank {self.rank} class has no inverse")
        return K0Class(self.base, self.rank, -self.degree)

    def __repr__(self):
        return f"({self.rank},{self.degree})"


def euler_form_base(a: K0Class, b: K0Class) -> int:
    """Euler pairing sum((-1)^i dim Ext^i(a, b)) on the base.

    On a genus-g curve this is (1-g)*r(a)*r(b) + r(a)*d(b) - d(a)*r(b);
    over a point all degrees vanish and it collapses to the product of
    ranks.
    """
    a._require_same_base(b)
    g = a.base.genus
    return (1 - g) * a.rank * b.rank + a.rank * b.degree - a.degree * b.rank
