"""Quotient presentation of the Grothendieck group of a quantum Pn-bundle.

For a bundle with n-dimensional fibers over the base, the Grothendieck
group is K0(base)[T, T^-1] modulo the ideal generated by the alternating
relation polynomial

    sum_{q=0}^{n+1} (-1)^q [E_q] T^q

built from the Koszul classes E_0, ..., E_{n+1} of the fiber algebra.
Connectedness forces E_0 = 1 and the top class has rank 1, so the
relation is invertible at both ends: every element of the quotient has a
unique normal form supported on exponents 0..n, and the quotient is a
free module over the base ring with basis 1, T, ..., T^n.
:func:`reduce_poly` finds it by one pass of synthetic division on the
polynomial's integer rank and degree lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .base import BaseSpace, K0Class
from .errors import BaseMismatch, NotAUnit, RankConstraintViolation, ValidationError
from .series import LaurentPoly


@dataclass(frozen=True)
class PnBundleSpec:
    """Base space, fiber dimension n, and the n+2 Koszul classes.

    The class in slot q must have rank binomial(n+1, q); slot 0 must be
    the identity class.  Slot n+1 then has rank 1 automatically, which is
    what makes normal-form reduction possible from above.
    """

    base: BaseSpace
    n: int
    koszul: tuple[K0Class, ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValidationError("fiber dimension n must be a positive integer")
        object.__setattr__(self, "koszul", tuple(self.koszul))
        if len(self.koszul) != self.n + 2:
            raise ValidationError(
                f"need {self.n + 2} Koszul classes E_0..E_{self.n + 1}, got {len(self.koszul)}"
            )
        for q, cls in enumerate(self.koszul):
            if cls.base != self.base:
                raise BaseMismatch(f"Koszul class E_{q} lives over {cls.base!r}, not {self.base!r}")
            want = math.comb(self.n + 1, q)
            if cls.rank != want:
                raise RankConstraintViolation(
                    f"rank(E_{q}) must be binomial({self.n + 1},{q}) = {want}, got {cls.rank}"
                )
        if self.koszul[0] != self.base.one:
            raise ValidationError(
                f"E_0 must be the identity class (1,0) of a connected algebra, got {self.koszul[0]!r}"
            )

    def relation_poly(self) -> LaurentPoly:
        """The alternating sum sum_q (-1)^q E_q T^q generating the ideal."""
        return LaurentPoly(
            self.base,
            {q: (cls if q % 2 == 0 else -cls) for q, cls in enumerate(self.koszul)},
        )


@dataclass(frozen=True)
class BundleClass:
    """Normal form of a Grothendieck class: coefficients of 1, T, ..., T^n."""

    spec: PnBundleSpec
    coeffs: tuple[K0Class, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if len(self.coeffs) != self.spec.n + 1:
            raise ValidationError(
                f"normal form needs {self.spec.n + 1} coefficients, got {len(self.coeffs)}"
            )
        for c in self.coeffs:
            if c.base != self.spec.base:
                raise BaseMismatch(f"coefficient over {c.base!r}, spec over {self.spec.base!r}")

    def as_poly(self) -> LaurentPoly:
        return LaurentPoly(self.spec.base, dict(enumerate(self.coeffs)))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __add__(self, other: BundleClass) -> BundleClass:
        if not isinstance(other, BundleClass):
            return NotImplemented
        if self.spec != other.spec:
            raise BaseMismatch("classes belong to different bundle specs")
        return BundleClass(self.spec, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: BundleClass) -> BundleClass:
        if not isinstance(other, BundleClass):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> BundleClass:
        return BundleClass(self.spec, tuple(-c for c in self.coeffs))

    def twist(self, k: int) -> BundleClass:
        return twist(self, k)


def reduce_poly(p: LaurentPoly, spec: PnBundleSpec) -> BundleClass:
    """Unique representative of p with T-degree <= n modulo the relation ideal.

    One pass of synthetic division on dense rank and degree lists over
    the exponents min(lo, 0) .. max(hi, n) of p.  Upwards from the lowest
    exponent, each negative-exponent coefficient c is cleared by
    subtracting c * T^e * relation, whose constant term is (1, 0).  Then,
    downwards from the highest exponent, each coefficient c above n is
    cleared by subtracting c * lead^-1 * T^(e-n-1) * relation; the
    leading class lead = (r, d) has r = +-1, so lead^-1 = (r, -d).  Each
    step subtracts a multiple of the relation, so the output is
    congruent to the input.  The cost is about (n + 2) steps per exponent
    in the span of p, however few terms p has.
    """
    if p.base != spec.base:
        raise BaseMismatch(f"polynomial over {p.base!r}, spec over {spec.base!r}")
    top = spec.n + 1
    rel = spec.relation_poly()
    rel_r, rel_d, lo, pr, pd = rel.ranks, rel.degrees, p.lo, p.ranks, p.degrees
    start = min(lo, 0)
    pad, tail = [0] * (lo - start), [0] * (top - lo - len(pr))
    ranks, degrees = pad + pr + tail, pad + pd + tail
    # ranks[i], degrees[i] hold the coefficient of T^(start + i)
    for i in range(-start):
        r, d = ranks[i], degrees[i]
        if r or d:
            for q in range(top + 1):
                ranks[i + q] -= r * rel_r[q]
                degrees[i + q] -= r * rel_d[q] + d * rel_r[q]
    lead_r, lead_d = rel_r[top], rel_d[top]
    for i in range(len(ranks) - 1, top - start - 1, -1):
        r, d = ranks[i], degrees[i]
        if r or d:
            mr, md = r * lead_r, d * lead_r - r * lead_d
            for q in range(top + 1):
                ranks[i - top + q] -= mr * rel_r[q]
                degrees[i - top + q] -= mr * rel_d[q] + md * rel_r[q]
    out = slice(-start, top - start)
    return BundleClass(spec, tuple(map(spec.base.k0, ranks[out], degrees[out])))


def pullback(f: K0Class, spec: PnBundleSpec) -> BundleClass:
    """Image of a base class under pullback: the constant coefficient."""
    if f.base != spec.base:
        raise BaseMismatch(f"class over {f.base!r}, spec over {spec.base!r}")
    return BundleClass(spec, (f,) + (spec.base.zero,) * spec.n)


def twist(c: BundleClass, k: int) -> BundleClass:
    """Degree shift M -> M(-k), i.e. multiplication by T^k, renormalized."""
    return reduce_poly(c.as_poly().shift(k), c.spec)


def rho_of(f: K0Class, spec: PnBundleSpec) -> LaurentPoly:
    """Image in the relation ideal of a base class pushed onto the bundle.

    A class supported on the base generates the ideal element
    f * relation; in particular the identity maps to the relation itself.
    """
    return spec.relation_poly() * f


@dataclass(frozen=True)
class GroupStructure:
    """Shape of the quotient group: free of rank n+1 over the base ring.

    Over a point the base ring is Z, so the quotient is also reported as
    a free abelian group of the same rank.
    """

    free_rank_over_base: int
    point_base_abelian_rank: Optional[int] = None


def group_structure(spec: PnBundleSpec) -> GroupStructure:
    rank = spec.n + 1
    return GroupStructure(rank, rank if spec.base.is_point else None)


def free_abelian_rank(relation: LaurentPoly) -> int:
    """Rank of Z[T]/(relation) as a free abelian group, over a point base.

    Needs constant term 1 (connectedness) and a leading coefficient of
    rank +1 or -1; with a non-unit leading coefficient the quotient is
    not finitely generated as a group and the computation is refused.
    """
    if not relation.base.is_point:
        raise ValidationError("free abelian rank is only defined over a point base")
    if relation.is_zero() or relation.min_exp() != 0 or relation.coeff(0) != relation.base.one:
        raise ValidationError("relation must be a polynomial with constant term 1")
    lead = relation.coeff(relation.max_exp())
    if not lead.is_unit():
        raise NotAUnit(
            f"leading coefficient {lead!r} is not a unit; the quotient is not a finite-rank group"
        )
    return relation.max_exp()
