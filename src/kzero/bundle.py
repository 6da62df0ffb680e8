"""Quotient presentation of the Grothendieck group of a quantum Pn-bundle.

For a bundle with n-dimensional fibers over the base, the Grothendieck
group is K0(base)[T, T^-1] modulo the ideal generated by the alternating
relation polynomial

    sum_{q=0}^{n+1} (-1)^q [E_q] T^q

built from the Koszul classes E_0, ..., E_{n+1} of the fiber algebra.
Connectedness forces E_0 = 1 and the top class has rank 1, so the
relation is invertible at both ends: every element of the quotient has a
unique normal form NF supported on exponents 0..n, and the quotient is a
free module over the base ring with basis 1, T, ..., T^n.  One integer
routine, on the schoolbook product of :mod:`kzero.series`, computes NF for
:func:`reduce_poly`, :func:`twist` and :mod:`kzero.surface` (n = 1).  Rf_*O = O
and Rf_*O(-j) = 0 for 1 <= j <= n, so the pushforward is NF's constant term.
The relation's lists come from the one Koszul rule, ``series._koszul_relation``,
and the one rank rule, :func:`group_structure`, reads deg h off any relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .base import BaseSpace, K0Class
from .errors import BaseMismatch, NotAUnit, ValidationError
from .series import LaurentPoly, _koszul_relation, _product


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
    _relation: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if type(self.n) is not int or self.n < 1:
            raise ValidationError("fiber dimension n must be a positive integer")
        object.__setattr__(self, "koszul", tuple(self.koszul))
        if len(self.koszul) != self.n + 2:
            raise ValidationError(
                f"need {self.n + 2} Koszul classes E_0..E_{self.n + 1}, got {len(self.koszul)}"
            )
        object.__setattr__(self, "_relation", _koszul_relation(self, self.koszul))

    def relation_poly(self) -> LaurentPoly:
        """The alternating sum sum_q (-1)^q E_q T^q generating the ideal."""
        return LaurentPoly._dense(self.base, 0, *self._relation)


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
            c._require_same_base(self.spec)

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

    __sub__ = K0Class.__sub__

    def __neg__(self) -> BundleClass:
        return BundleClass(self.spec, tuple(-c for c in self.coeffs))

    def twist(self, k: int) -> BundleClass:
        return twist(self, k)


def reduce_poly(p: LaurentPoly, spec: PnBundleSpec) -> BundleClass:
    """Unique representative of p with T-degree <= n modulo the relation ideal.

    :func:`_normal_form` of p's lists, in O(n * span p + n^2 * log |p.lo|)
    steps.  Coefficient 0 is the pushforward to the base, as Rf_*O = O and
    Rf_*O(-j) = 0 for 1 <= j <= n.
    """
    p._require_same_base(spec)
    ranks, degrees = _normal_form(spec._relation, p.lo, p.ranks, p.degrees)
    return BundleClass(spec, tuple(map(spec.base.k0, ranks, degrees)))


def _normal_form(rel, lo: int, ranks: list[int], degrees: list[int]) -> tuple[list[int], list[int]]:
    """NF(sum_i (ranks[i], degrees[i]) T^(lo+i)) as rank and degree lists of length n+1.

    ``rel`` holds the relation's lists rho_0 = (1, 0), ..., rho_{n+1}.  Synthetic division,
    needed only past n+1 terms, leaves the class on exponents lo..lo+n; then it is multiplied
    by NF(T^lo), by repeated squaring of NF(T) = T or, for lo < 0, of NF(T^-1) = -sum_{q>=1}
    rho_q T^(q-1), each product ``series._product`` then ``_divide``: O(n^2 log |lo|) for the gap.
    """
    rel_r, rel_d = rel
    top = len(rel_r) - 1
    pad = [0] * (top - len(ranks))
    ranks, degrees = ranks + pad, degrees + pad  # fresh lists, which _divide clears in place
    if len(ranks) > top:
        ranks, degrees = _divide(rel_r, rel_d, ranks, degrees)
    if lo > 0:
        xr, xd = [0, 1] + [0] * (top - 2), [0] * top
    elif lo < 0:
        xr, xd, lo = [-r for r in rel_r[1:]], [-d for d in rel_d[1:]], -lo
    while lo:
        if lo & 1:
            ranks, degrees = _divide(rel_r, rel_d, *_product(ranks, degrees, xr, xd, 0, 2 * top - 1))
        lo >>= 1
        if lo:
            xr, xd = _divide(rel_r, rel_d, *_product(xr, xd, xr, xd, 0, 2 * top - 1))
    return ranks, degrees


def _divide(rel_r, rel_d, ranks: list[int], degrees: list[int]) -> tuple[list[int], list[int]]:
    """Clear entries n+1 and up, top down, in place; return entries 0..n.

    Entry i is cleared by subtracting it times lead^-1 * T^(i-n-1) times
    the relation; lead = (s, e) has s = +-1, so lead^-1 = (s, -e).
    """
    top = len(rel_r) - 1
    lead_r, lead_d = rel_r[top], rel_d[top]
    for i in range(len(ranks) - 1, top - 1, -1):
        r, d = ranks[i], degrees[i]
        mr, md = r * lead_r, d * lead_r - r * lead_d
        for q in range(top):
            ranks[i - top + q] -= mr * rel_r[q]
            degrees[i - top + q] -= mr * rel_d[q] + md * rel_r[q]
    del ranks[top:], degrees[top:]
    return ranks, degrees


def pullback(f: K0Class, spec: PnBundleSpec) -> BundleClass:
    """Image of a base class under pullback: the constant coefficient."""
    return BundleClass(spec, (f,) + (spec.base.zero,) * spec.n)


def twist(c: BundleClass, k: int) -> BundleClass:
    """Degree shift M -> M(-k), i.e. multiplication by T^k, renormalized."""
    return reduce_poly(c.as_poly().shift(k), c.spec)


@dataclass(frozen=True)
class GroupStructure:
    """Shape of the quotient group: free of rank deg h over the base ring.

    Over a point the base ring is Z, so the quotient is also reported as
    a free abelian group of the same rank.
    """

    free_rank_over_base: int
    point_base_abelian_rank: int | None = None


def group_structure(relation: LaurentPoly) -> GroupStructure:
    """Rank of K0(base)[T, T^-1]/(relation) over the base ring: deg h, for every mode.

    Needs constant term 1 (connectedness) and a unit leading coefficient,
    of rank +1 or -1; otherwise the quotient is not finitely generated.
    """
    if relation.is_zero() or relation.min_exp() != 0 or relation.coeff(0) != relation.base.one:
        raise ValidationError("relation must be a polynomial with constant term 1")
    lead = relation.coeff(relation.max_exp())
    if not lead.is_unit():
        raise NotAUnit(f"leading coefficient {lead!r} is not a unit; the quotient is not a finite-rank group")
    rank = relation.max_exp()
    return GroupStructure(rank, rank if relation.base.is_point else None)
