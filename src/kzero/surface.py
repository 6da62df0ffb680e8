"""Intersection theory of quantum ruled surfaces.

A quantum ruled surface is the noncommutative projectivization
``P(E) -> X`` of a rank-2 bimodule over a smooth projective curve of
genus g, determined together with an invertible rank-1 class Q.  Its
Grothendieck group is K0(X)[T]/(1 - E T + Q T^2), the n = 1 case of
:mod:`kzero.bundle`: free over K0(X) with basis {1, T}, where the
exponent-i coefficient of a class records a pullback from the curve
twisted by -i.

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
negated Euler pairing.  On the rank-zero part of the lattice, the
radical of the pairing is spanned by fiber - fiber(-1); modding it out
leaves a rank-2 lattice with basis a fiber and the section class
H = [O] - [O(-1)], whose intersection matrix is [[0, 1], [1, deg E]]:
its 3x3 Gram costs one normal form per column, walked down each row.
The integer e = -H.H = -deg E is the analogue of the classical
numerical invariant of a ruled surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .base import CURVE, K0Class, curve
from .bundle import PnBundleSpec, _normal_form
from .errors import BaseMismatch, InvariantViolation
from .intlinalg import integer_kernel
from .series import LaurentPoly, _check_ruled_pair, ruled_piece


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
        if not (isinstance(self.genus, int) and (self.E.base.kind, self.E.base.genus) == (CURVE, self.genus)):
            raise BaseMismatch(f"E and Q must live over {curve(self.genus)!r}")
        _check_ruled_pair(self.E, self.Q)
        object.__setattr__(self, "_relation", ([1, -self.E.rank, self.Q.rank], [0, -self.E.degree, self.Q.degree]))

    @classmethod
    def from_degrees(cls, genus: int, deg_e: int, deg_q: int) -> RuledSurface:
        x = curve(genus)
        return cls(genus, x.k0(2, deg_e), x.k0(1, deg_q))

    @property
    def base(self):
        return self.E.base

    def hilbert_coeff(self, n: int) -> K0Class:
        """Class B_n of the degree-n piece of the coordinate ring."""
        return self.base.k0(*ruled_piece(self.E.degree, self.Q.degree, n))

    def bundle_spec(self) -> PnBundleSpec:
        return PnBundleSpec(self.base, 1, (self.base.one, self.E, self.Q))

    def relation_poly(self) -> LaurentPoly:
        """1 - E T + Q T^2, the generator of the relation ideal."""
        return LaurentPoly._dense(self.base, 0, *self._relation)

    # -- classes -----------------------------------------------------

    def class_of(self, terms) -> SurfaceClass:
        rep = terms if isinstance(terms, LaurentPoly) else LaurentPoly(self.base, terms)
        return SurfaceClass(self, rep)

    def structure_class(self, n: int = 0) -> SurfaceClass:
        """Class of O(n); the exponent -n carries the identity coefficient."""
        return self.class_of({-n: self.base.one})

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
        if a.surface is not self or b.surface is not self:
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
        the Euler pairing is computed as the integer kernel of the Gram
        matrix stacked on its transpose; the quotient is the
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
        stacked = [list(row) for row in gram]
        stacked += [[gram[i][j] for i in range(3)] for j in range(3)]
        radical = tuple(tuple(vec) for vec in integer_kernel(stacked))
        # {fiber, r, H} is a basis of the rank-zero lattice exactly when the
        # one radical vector r has det [(1,0,0), r, (0,0,1)] = r[1] = +-1
        if len(radical) != 1 or radical[0][1] not in (1, -1):
            raise InvariantViolation("radical does not complement the fiber and section classes")
        ns_gram = (
            (-gram[0][0], -gram[0][2]),
            (-gram[2][0], -gram[2][2]),
        )
        return IntersectionLattice(basis, names, gram, radical, (u, w), ("fiber", "H"), ns_gram)

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
        if self.rep.base is not self.surface.base and self.rep.base != self.surface.base:
            raise BaseMismatch(f"representative over {self.rep.base!r}, surface over {self.surface.base!r}")

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

    def __sub__(self, other: SurfaceClass) -> SurfaceClass:
        if not isinstance(other, SurfaceClass):
            return NotImplemented
        return self + (-other)

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

    ``gram`` is the Euler pairing on ``basis``; ``radical_basis`` holds
    coordinate vectors (in that basis) spanning the two-sided radical;
    ``ns_gram`` is the intersection pairing on the quotient basis
    ``ns_basis`` = (fiber, H).
    """

    basis: tuple[SurfaceClass, ...]
    basis_names: tuple[str, ...]
    gram: tuple[tuple[int, ...], ...]
    radical_basis: tuple[tuple[int, ...], ...]
    ns_basis: tuple[SurfaceClass, ...]
    ns_basis_names: tuple[str, ...]
    ns_gram: tuple[tuple[int, ...], ...]
