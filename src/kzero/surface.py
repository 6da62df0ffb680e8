"""Intersection theory of quantum ruled surfaces.

A quantum ruled surface is the noncommutative projectivization
``P(E) -> X`` of a rank-2 bimodule over a smooth projective curve of
genus g, determined together with an invertible rank-1 class Q.  Its
Grothendieck group is K0(X)[T]/(1 - E T + Q T^2), free over K0(X) with
basis {1, T}, where the exponent-i coefficient of a class records a
pullback from the curve twisted by -i.

The Euler pairing of two surface classes is evaluated by pushing the
second argument down to the curve.  Twisting both arguments by the same
amount is an auto-equivalence, so only the relative twist matters.  Let
P(m) be the class of Rf_* O(-m): P(m) = B_{-m}, the graded pieces of the
homogeneous coordinate ring, for m <= 0, and P(1) = 0.  The relation
forces P(k) - E*P(k+1) + Q*P(k+2) = 0, so R^1 f_* O(-m) = Q^(1-m)*B_{m-2}
for m >= 2, and

    (a T^i, b T^j)  =  euler_form_base(a, b*B_{i-j} - b*Q^(i-j+1)*B_{j-i-2})

extended biadditively, with B_k = 0 for k < 0.  By the closed form
B_n = (n+1, deg E*C(n+2,3) - deg Q*C(n+1,3)) for n >= 0, each term pair
costs O(1): a few integer multiplications on (rank, degree) pairs.

So the pushforward is well defined on K0, and the pairing vanishes on the
relation ideal in its second argument.  When deg Q = deg E the surface is
numerically the commutative P(E) with Q = det E: R^1 f_* O(-m) is the
Serre dual dual(B_{m-2})*Q^-1, and the pairing is the Riemann-Roch
pairing, zero on the ideal from both sides.  Otherwise it can depend on
the representative of its first argument, so it is the Euler form of K0
only on that locus.

Intersection numbers of curve-like (total rank zero) classes are the
negated Euler pairing.  On the rank-zero part of the lattice, the
radical of the pairing is spanned by fiber - fiber(-1); modding it out
leaves a rank-2 lattice with basis a fiber and the section class
H = [O] - [O(-1)], whose intersection matrix is [[0, 1], [1, deg E]].
The integer e = -H.H = -deg E is the analogue of the classical
numerical invariant of a ruled surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .base import K0Class, curve
from .bundle import PnBundleSpec
from .errors import BaseMismatch, InvariantViolation
from .intlinalg import integer_kernel
from .series import LaurentPoly, _check_ruled_pair, hilbert_coeff_ruled, ruled_piece


@dataclass(frozen=True)
class RuledSurface:
    """A quantum ruled surface over a genus-g curve.

    ``E`` is the rank-2 class of the defining bimodule pushed to the
    curve, ``Q`` the rank-1 class of the invertible relation submodule.
    """

    genus: int
    E: K0Class
    Q: K0Class

    def __post_init__(self):
        if self.E.base != curve(self.genus):
            raise BaseMismatch(f"E and Q must live over {curve(self.genus)!r}")
        _check_ruled_pair(self.E, self.Q)

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

    def relation_poly(self) -> LaurentPoly:
        """1 - E T + Q T^2, the generator of the relation ideal."""
        return self.bundle_spec().relation_poly()

    # -- classes -----------------------------------------------------

    def class_of(self, terms) -> SurfaceClass:
        rep = terms if isinstance(terms, LaurentPoly) else LaurentPoly(self.base, terms)
        return SurfaceClass(self, rep)

    def zero_class(self) -> SurfaceClass:
        return SurfaceClass(self, LaurentPoly.zero(self.base))

    def structure_class(self, n: int = 0) -> SurfaceClass:
        """Class of O(n); the exponent -n carries the identity coefficient."""
        return self.class_of({-n: self.base.one})

    def fiber_class(self) -> SurfaceClass:
        """Pullback of a point class: (0,1) in degree zero."""
        return self.class_of({0: self.base.k0(0, 1)})

    def section_class(self) -> SurfaceClass:
        """The K-theoretic section H = [O] - [O(-1)]."""
        return self.class_of({0: self.base.one, 1: -self.base.one})

    # -- pairings ----------------------------------------------------

    def pushforward(self, c: SurfaceClass) -> K0Class:
        """K-theoretic derived pushforward to the curve, [f_*] - [R^1 f_*]."""
        self._require_own(c)
        return self.base.k0(*self._push(c.rep, 0))

    def euler_form(self, a: SurfaceClass, b: SurfaceClass) -> int:
        """Alternating sum of Ext dimensions between two surface classes."""
        self._require_own(a)
        self._require_own(b)
        g1 = 1 - self.genus
        total = 0
        for i, ar, ad in zip(count(a.rep.lo), a.rep.ranks, a.rep.degrees):
            # euler_form_base((ar, ad), push of b twisted by i), on integers
            r, d = self._push(b.rep, i)
            total += g1 * ar * r + ar * d - ad * r
        return total

    def _push(self, p: LaurentPoly, shift: int) -> tuple[int, int]:
        """(rank, degree) pushed down from sum_j c_j T^(j - shift).

        T^m goes to P(m) = B_{-m} - Q^-(m-1) * B_{m-2}, where
        Q^-(m-1) * B_{m-2} = (m-1, deg B_{m-2} - (m-1)^2 deg Q).
        """
        de, dq = self.E.degree, self.Q.degree
        rank = degree = 0
        for m, cr, cd in zip(count(p.lo - shift), p.ranks, p.degrees):
            br, bd = ruled_piece(de, dq, -m)
            kr, kd = ruled_piece(de, dq, m - 2)
            xr, xd = br - kr, bd - kd + kr * kr * dq
            rank += cr * xr
            degree += cr * xd + cd * xr
        return rank, degree

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
        v = u - u.twist(1)
        w = self.section_class()
        basis = (u, v, w)
        names = ("fiber", "fiber.H", "H")
        gram = tuple(tuple(self.euler_form(r, c) for c in basis) for r in basis)
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
        if c.surface != self:
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
        if self.rep.base != self.surface.base:
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
