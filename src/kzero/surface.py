"""Intersection theory of quantum ruled surfaces.

A quantum ruled surface is the noncommutative projectivization
``P(E) -> X`` of a rank-2 bimodule over a smooth projective curve of
genus g, determined together with an invertible rank-1 class Q.  Its
Grothendieck group is K0(X)[T]/(1 - E T + Q T^2), the n = 1 case of
:mod:`kzero.bundle`: free over K0(X) with basis {1, T}, where the
exponent-i coefficient of a class records a pullback from the curve
twisted by -i.  The relation's lists come from the bundle's Koszul rule,
``series._koszul_relation`` with E_1 = E and E_2 = Q, and its rank from
``bundle.group_structure``; a surface builds no bundle spec.

The Euler pairing of two surface classes is evaluated by pushing the
second argument down to the curve.  Rf_*O = O and Rf_*O(-1) = 0, so the
pushforward of c is the constant coefficient x of its normal form
NF(c) = x + y*T, found by the bundle module's integer routine.  So it is
well defined on K0, and the pairing kills the relation ideal in its
second argument.  A common twist of both arguments is an
auto-equivalence, so only the relative twist matters:

    (a, b)  =  sum_i euler_form_base(a_i, x_i),   NF(b*T^-i) = x_i + y_i*T,

where i -> i+1 multiplies by T^-1 = E - Q T: (x, y) -> (x*E + y, -x*Q).
A pairing costs O(span a + span b + log gap) integer steps.

When deg Q = deg E the surface is numerically the commutative P(E) with
Q = det E: R^1 f_* O(-m) is the Serre dual dual(B_{m-2})*Q^-1, and the
pairing is the Riemann-Roch pairing, zero on the ideal from both sides.
Otherwise it can depend on the representative of its first argument,
which is paired term by term as given.  That keeps it invariant under a
common twist; off this locus no pairing of this numerical model is both
twist invariant and well defined in its first argument (a two-sided
model needs the left and right degrees of Van den Bergh, Trans. AMS 2012).

Intersection numbers of curve-like (total rank zero) classes are the
negated Euler pairing.  On the rank-zero part of the lattice,
fiber - fiber(-1) is a point class, so it spans the two-sided radical
of the pairing: ``neron_severi`` reads this off the 3x3 Gram (one normal
form per column, walked down each row) by exact checks, not an integer
kernel.  Modding it out leaves a rank-2 lattice with basis a fiber and
the section class H = [O] - [O(-1)], whose intersection matrix is
[[0, 1], [1, deg E]].  The integer e = -H.H = -deg E is the analogue of
the classical numerical invariant of a ruled surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .base import CURVE, K0Class, curve
from .bundle import PnBundleSpec, _normal_form
from .errors import BaseMismatch, InvariantViolation
from .series import LaurentPoly, _index, _koszul_relation, hilbert_coeff_ruled


@dataclass(frozen=True)
class RuledSurface:
    """A quantum ruled surface over a genus-g curve.

    ``E`` is the rank-2 class of the defining bimodule pushed to the
    curve, ``Q`` the rank-1 class of the invertible relation submodule.
    """

    genus: int
    E: K0Class
    Q: K0Class
    _relation: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.E.base.kind, self.E.base.genus) != (CURVE, self.genus) or type(self.genus) is not int:
            # curve(genus) raises BaseSpace's genus rule first, for a bool, float or negative genus
            raise BaseMismatch(f"E and Q must live over {curve(self.genus)!r}")
        object.__setattr__(self, "_relation", _koszul_relation(self.E, (self.E, self.Q), 1))

    @classmethod
    def from_degrees(cls, genus: int, deg_e: int, deg_q: int) -> RuledSurface:
        x = curve(genus)
        return cls(genus, x.k0(2, deg_e), x.k0(1, deg_q))

    @property
    def base(self):
        return self.E.base

    def hilbert_coeff(self, n: int) -> K0Class:
        """Class B_n of the degree-n piece of the coordinate ring."""
        return hilbert_coeff_ruled(self.E, self.Q, n)

    def bundle_spec(self) -> PnBundleSpec:
        return PnBundleSpec(self.base, 1, (self.base.one, self.E, self.Q))

    relation_poly = PnBundleSpec.relation_poly  # 1 - E T + Q T^2

    # -- classes -----------------------------------------------------

    def class_of(self, terms) -> SurfaceClass:
        rep = terms if isinstance(terms, LaurentPoly) else LaurentPoly(self.base, terms)
        return SurfaceClass(self, rep)

    def structure_class(self, n: int = 0) -> SurfaceClass:
        """Class of O(n); the exponent -n carries the identity coefficient."""
        return SurfaceClass(self, LaurentPoly._dense(self.base, -_index(n, "exponent"), [1], [0]))

    def fiber_class(self) -> SurfaceClass:
        """Pullback of a point class: (0,1) in degree zero."""
        return SurfaceClass(self, LaurentPoly._dense(self.base, 0, [0], [1]))

    def section_class(self) -> SurfaceClass:
        """The K-theoretic section H = [O] - [O(-1)]."""
        return SurfaceClass(self, LaurentPoly._dense(self.base, 0, [1, -1], [0, 0]))

    # -- pairings ----------------------------------------------------

    def pushforward(self, c: SurfaceClass) -> K0Class:
        """K-theoretic derived pushforward to the curve, [f_*] - [R^1 f_*]: x of NF(c)."""
        self._require_own(c)
        ranks, degrees = _normal_form(self._relation, c.rep.lo, c.rep.ranks, c.rep.degrees)
        return self.base.k0(ranks[0], degrees[0])

    def euler_form(self, a: SurfaceClass, b: SurfaceClass) -> int:
        """Alternating sum of Ext dimensions between two surface classes.

        Walks NF(b*T^-i) over the exponents i of ``a``: O(span a + span b + log gap).
        ``a`` is paired term by term as given (see the module docstring).
        """
        self._require_own(a)
        self._require_own(b)
        return self._walk(_normal_form(self._relation, b.rep.lo - a.rep.lo, b.rep.ranks, b.rep.degrees), a.rep)

    def _walk(self, nf, a: LaurentPoly) -> int:
        """The pairing loop: sum_i euler_form_base(a_i, x_i), NF(b*T^-(a.lo+i)) = x_i + y_i*T, from nf at i = 0."""
        g1, de, dq = 1 - self.genus, self.E.degree, self.Q.degree
        (xr, yr), (xd, yd) = nf
        total = 0
        for ar, ad in zip(a.ranks, a.degrees):
            total += g1 * ar * xr + ar * xd - ad * xr
            xr, xd, yr, yd = 2 * xr + yr, 2 * xd + de * xr + yd, -xr, -xd - dq * xr
        return total

    def intersect(self, a: SurfaceClass, b: SurfaceClass) -> int:
        """Intersection number of curve-like classes: minus the Euler form."""
        return -self.euler_form(a, b)

    def e_invariant(self) -> int:
        """-H.H = -deg E, the numerical invariant of the ruling."""
        return -self.E.degree

    def neron_severi(self) -> IntersectionLattice:
        """Rank-zero lattice, its Euler Gram matrix, radical, and quotient.

        The rank-zero subgroup of the surface's Grothendieck lattice has
        basis {fiber, fiber - fiber(-1), H}.  The two-sided radical of
        the Euler pairing is Z*(0, 1, 0), read off the Gram: its middle
        row and column are zero, and its outer 2x2 block (fiber and H) is
        nonsingular, or InvariantViolation is raised.  The quotient is the
        Neron-Severi lattice with basis {fiber, H} and the intersection
        (negated Euler) pairing.
        """
        u = self.fiber_class()
        v = SurfaceClass(self, LaurentPoly._dense(self.base, 0, [0, 0], [1, -1]))  # fiber - fiber(-1)
        w = self.section_class()
        basis = (u, v, w)
        names = ("fiber", "fiber.H", "H")
        # every basis class starts at T^0, so NF(c) starts each row's walk down column c
        columns = [_normal_form(self._relation, 0, c.rep.ranks, c.rep.degrees) for c in basis]
        gram = tuple(tuple(self._walk(nf, r.rep) for nf in columns) for r in basis)
        (uu, uv, uw), middle_row, (wu, wv, ww) = gram
        if any(middle_row) or uv or wv or uu * ww == uw * wu:
            raise InvariantViolation("radical does not complement the fiber and section classes")
        ns_gram = ((-uu, -uw), (-wu, -ww))
        return IntersectionLattice(basis, names, gram, ((0, 1, 0),), (u, w), ("fiber", "H"), ns_gram)

    def _require_own(self, c: SurfaceClass) -> None:
        if c.surface is not self and c.surface != self:
            raise BaseMismatch("class belongs to a different surface")


@dataclass(frozen=True)
class SurfaceClass:
    """A Grothendieck class on a ruled surface.

    ``rep`` is a Laurent polynomial whose exponent-i coefficient is the
    class of a pullback from the curve twisted by -i.  Representatives are
    not normalized modulo the relation ideal.  The pushforward, and a
    pairing's second argument, do not depend on the choice; a pairing's
    first argument does not when deg Q = deg E, but in general it can.
    """

    surface: RuledSurface
    rep: LaurentPoly

    def __post_init__(self):
        self.rep._require_same_base(self.surface)

    def coeff(self, i: int) -> K0Class:
        return self.rep.coeff(i)

    def rank(self) -> int:
        """Total rank: the sum of the ranks of all coefficients."""
        return sum(self.rep.ranks)

    def twist(self, k: int) -> SurfaceClass:
        """Degree shift M -> M(-k)."""
        return SurfaceClass(self.surface, self.rep.shift(k))

    def pushforward(self) -> K0Class:
        return self.surface.pushforward(self)

    def __add__(self, other: SurfaceClass) -> SurfaceClass:
        if not isinstance(other, SurfaceClass):
            return NotImplemented
        self.surface._require_own(other)
        return SurfaceClass(self.surface, self.rep + other.rep)

    __sub__ = K0Class.__sub__

    def __neg__(self) -> SurfaceClass:
        return SurfaceClass(self.surface, -self.rep)

    def __mul__(self, other):
        if isinstance(other, int):
            return SurfaceClass(self.surface, self.rep * other)
        return NotImplemented

    __rmul__ = __mul__


@dataclass(frozen=True)
class IntersectionLattice:
    """Gram data of the rank-zero lattice of a ruled surface.

    ``gram`` is the Euler pairing on ``basis``; ``radical_basis``,
    ((0, 1, 0),), spans the two-sided radical in coordinates of that
    basis; ``ns_gram`` is the intersection pairing on the quotient basis
    ``ns_basis`` = (fiber, H).
    """

    basis: tuple[SurfaceClass, ...]
    basis_names: tuple[str, ...]
    gram: tuple[tuple[int, ...], ...]
    radical_basis: tuple[tuple[int, ...], ...]
    ns_basis: tuple[SurfaceClass, ...]
    ns_basis_names: tuple[str, ...]
    ns_gram: tuple[tuple[int, ...], ...]
