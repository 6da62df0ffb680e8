"""Quotient-ring normal forms, pullback, twist, and group structure."""

import dataclasses
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form

from kzero import (
    BaseMismatch,
    LaurentPoly,
    NotAUnit,
    PnBundleSpec,
    RankConstraintViolation,
    ValidationError,
    curve,
    group_structure,
    point,
    pullback,
    reduce_poly,
    twist,
)
from kzero.bundle import _normal_form


def ruled_spec(genus=0, deg_e=0, deg_q=0):
    x = curve(genus)
    return PnBundleSpec(x, 1, (x.one, x.k0(2, deg_e), x.k0(1, deg_q)))


def point_pn_spec(n):
    pt = point()
    return PnBundleSpec(pt, n, tuple(pt.k0(math.comb(n + 1, q)) for q in range(n + 2)))


def random_laurent(rng, base, lo=-6, hi=8):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        degree = 0 if base.is_point else rng.randint(-4, 4)
        terms[rng.randint(lo, hi)] = base.k0(rng.randint(-4, 4), degree)
    return LaurentPoly(base, terms)


# -- spec validation ----------------------------------------------------


def test_relation_poly_of_ruled_spec():
    spec = ruled_spec(1, 3, -2)
    x = spec.base
    rel = spec.relation_poly()
    assert rel == LaurentPoly(x, {0: x.one, 1: -x.k0(2, 3), 2: x.k0(1, -2)})


def test_relation_poly_of_commutative_plane():
    # exterior powers of a trivial rank-3 bundle give (1-T)^3
    spec = point_pn_spec(2)
    pt = spec.base
    assert spec.relation_poly() == LaurentPoly.from_int_coeffs(pt, [1, -3, 3, -1])


def test_rank_constraints_enforced():
    x = curve(0)
    with pytest.raises(RankConstraintViolation):
        PnBundleSpec(x, 1, (x.one, x.k0(5, 0), x.k0(1, 0)))
    with pytest.raises(ValidationError):
        PnBundleSpec(x, 1, (x.k0(1, 2), x.k0(2, 0), x.k0(1, 0)))
    with pytest.raises(ValidationError):
        PnBundleSpec(x, 1, (x.one, x.k0(2, 0)))
    with pytest.raises(ValidationError):
        PnBundleSpec(x, 0, (x.one, x.one))


# -- reduction -----------------------------------------------------------


def test_relation_reduces_to_zero():
    for spec in (ruled_spec(2, -1, 4), point_pn_spec(2), point_pn_spec(3)):
        assert reduce_poly(spec.relation_poly(), spec).is_zero()


def test_reduce_of_t_squared_in_ruled_case():
    # solve 1 - E T + Q T^2 = 0 for T^2 and verify by multiplying back
    for de in range(-3, 4):
        for dq in range(-3, 4):
            spec = ruled_spec(0, de, dq)
            x = spec.base
            got = reduce_poly(LaurentPoly(x, {2: x.one}), spec)
            assert got.coeffs == (-x.k0(1, -dq), x.k0(2, de - 2 * dq))
            # congruence check: T^2 - normal form lies in the ideal
            diff = LaurentPoly(x, {2: x.one}) - got.as_poly()
            assert reduce_poly(diff, spec).is_zero()


def test_reduce_consistency_of_both_elimination_rules():
    spec = ruled_spec(1, 2, -3)
    x = spec.base
    t_pos = LaurentPoly(x, {1: x.one})
    t_neg = LaurentPoly(x, {-1: x.one})
    assert (t_pos * t_neg) == LaurentPoly.one(x)
    lhs = reduce_poly(reduce_poly(t_pos, spec).as_poly() * reduce_poly(t_neg, spec).as_poly(), spec)
    assert lhs.as_poly() == LaurentPoly.one(x)


def test_reduce_is_idempotent_and_multiplicative():
    rng = random.Random(31)
    for spec in (ruled_spec(0, 1, -1), point_pn_spec(2)):
        base = spec.base
        for _ in range(100):
            p = random_laurent(rng, base)
            q = random_laurent(rng, base)
            rp = reduce_poly(p, spec)
            assert reduce_poly(rp.as_poly(), spec) == rp
            assert reduce_poly(p * q, spec) == reduce_poly(rp.as_poly() * reduce_poly(q, spec).as_poly(), spec)


def test_reduce_kills_multiples_of_the_relation():
    rng = random.Random(32)
    spec = ruled_spec(3, -2, 1)
    rel = spec.relation_poly()
    for _ in range(100):
        p = random_laurent(rng, spec.base)
        q = random_laurent(rng, spec.base, -3, 4)
        assert reduce_poly(p + rel * q, spec) == reduce_poly(p, spec)


# -- companion-matrix oracle ----------------------------------------------


def companion_apply(mat, vec):
    # columns of mat are the images of the basis vectors 1 and T
    (a11, a12), (a21, a22) = mat
    return (a11 * vec[0] + a12 * vec[1], a21 * vec[0] + a22 * vec[1])


def test_powers_of_t_match_companion_matrix():
    for de in range(-2, 3):
        for dq in (-2, -1, 1, 2):
            spec = ruled_spec(0, de, dq)
            x = spec.base
            e_cls, q_cls = spec.koszul[1], spec.koszul[2]
            q_inv = q_cls.inverse()
            fwd = ((x.zero, -q_inv), (x.one, q_inv * e_cls))
            bwd = ((e_cls, x.one), (-q_cls, x.zero))
            for mat, sign in ((fwd, 1), (bwd, -1)):
                vec = (x.one, x.zero)
                for k in range(1, 7):
                    vec = companion_apply(mat, vec)
                    t_power = LaurentPoly(x, {sign * k: x.one})
                    assert reduce_poly(t_power, spec).coeffs == vec


def companion_powers(spec, lo, count):
    """NF(T^lo), ..., NF(T^(lo+count-1)) as coefficient tuples, stepping the companion matrix from NF(1).

    With rho_q = (-1)^q E_q: T * T^n = -rho_(n+1)^-1 * sum_(q<=n) rho_q T^q, and
    T^-1 = -sum_(q>=1) rho_q T^(q-1) since rho_0 = 1.
    """
    x, n = spec.base, spec.n
    rho = [(-1) ** q * c for q, c in enumerate(spec.koszul)]
    lead_inv = rho[-1].inverse()

    def up(v):
        return tuple((v[i - 1] if i else x.zero) - v[n] * lead_inv * rho[i] for i in range(n + 1))

    def down(v):
        return tuple((v[i + 1] if i < n else x.zero) - v[0] * rho[i + 1] for i in range(n + 1))

    v = (x.one,) + (x.zero,) * n
    for _ in range(abs(lo)):
        v = up(v) if lo > 0 else down(v)
    powers = []
    for _ in range(count):
        powers.append(v)
        v = up(v)
    return powers


# -- twist, pullback, rho ----------------------------------------------


def test_twist_round_trip():
    rng = random.Random(41)
    spec = ruled_spec(2, 3, -1)
    for _ in range(30):
        c = reduce_poly(random_laurent(rng, spec.base), spec)
        assert twist(twist(c, 1), -1) == c
        assert twist(twist(c, -4), 4) == c


def test_twist_of_identity_matches_reduce():
    spec = ruled_spec(0, -1, 2)
    x = spec.base
    unit = pullback(x.one, spec)
    assert twist(unit, 2) == reduce_poly(LaurentPoly(x, {2: x.one}), spec)


def test_pullback_embeds_constant():
    spec = ruled_spec(1, 0, 0)
    x = spec.base
    c = pullback(x.k0(3, -2), spec)
    assert c.coeffs == (x.k0(3, -2), x.zero)


def test_a_class_scales_the_relation_polynomial():
    spec = ruled_spec(0, 1, 1)
    x = spec.base
    assert spec.relation_poly() * x.one == spec.relation_poly()
    assert (spec.relation_poly() * x.zero).is_zero()
    got = spec.relation_poly() * x.k0(0, 1)
    assert got == LaurentPoly(x, {0: x.k0(0, 1), 1: -x.k0(0, 2), 2: x.k0(0, 1)})


def test_base_mismatch_rejected():
    spec = ruled_spec(0, 0, 0)
    other = curve(1)
    with pytest.raises(BaseMismatch):
        reduce_poly(LaurentPoly.one(other), spec)
    with pytest.raises(BaseMismatch):
        pullback(other.one, spec)


# -- the group law on normal forms -----------------------------------------


@st.composite
def bundle_specs(draw):
    """A Pn-bundle with n = 1..4 over a point or a curve, Koszul degrees drawn freely."""
    base = draw(st.one_of(st.just(point()), st.builds(curve, st.integers(0, 3))))
    n = draw(st.integers(1, 4))
    degree = st.just(0) if base.is_point else st.integers(-5, 5)
    degrees = [0] + draw(st.lists(degree, min_size=n + 1, max_size=n + 1))
    return PnBundleSpec(base, n, tuple(base.k0(math.comb(n + 1, q), d) for q, d in enumerate(degrees)))


@st.composite
def laurent_polys(draw, base):
    exps = draw(st.lists(st.integers(-8, 10), max_size=6, unique=True))
    coeff = st.integers(-20, 20)
    return LaurentPoly(base, {e: base.k0(draw(coeff), 0 if base.is_point else draw(coeff)) for e in exps})


@settings(max_examples=150, deadline=None)
@given(bundle_specs(), st.data())
def test_normal_forms_add_subtract_and_negate_like_polynomials(spec, data):
    p, q = (data.draw(laurent_polys(spec.base)) for _ in range(2))
    rp, rq = reduce_poly(p, spec), reduce_poly(q, spec)
    assert reduce_poly(p + q, spec) == rp + rq
    assert reduce_poly(p - q, spec) == rp - rq
    assert reduce_poly(-p, spec) == -rp
    assert (rp - rp).is_zero()


@settings(max_examples=100, deadline=None)
@given(bundle_specs(), st.data(), st.integers(-6, 6))
def test_twist_method_is_the_twist_function(spec, data, k):
    c = reduce_poly(data.draw(laurent_polys(spec.base)), spec)
    assert c.twist(k) == twist(c, k)


@settings(max_examples=50, deadline=None)
@given(bundle_specs(), bundle_specs())
def test_classes_of_different_specs_do_not_add(spec, other):
    assume(spec != other)
    a, b = pullback(spec.base.one, spec), pullback(other.base.one, other)
    with pytest.raises(BaseMismatch):
        a + b
    with pytest.raises(BaseMismatch):
        a - b


# -- group structure ------------------------------------------------------


def test_group_structure_reports():
    gs = group_structure(point_pn_spec(2).relation_poly())
    assert gs.free_rank_over_base == 3
    assert gs.point_base_abelian_rank == 3

    gs = group_structure(ruled_spec(2, 1, 1).relation_poly())
    assert gs.free_rank_over_base == 2
    assert gs.point_base_abelian_rank is None

    x = curve(0)
    koszul = tuple(x.k0(math.comb(4, q)) for q in range(5))
    gs = group_structure(PnBundleSpec(x, 3, koszul).relation_poly())
    assert gs.free_rank_over_base == 4


def test_group_structure_of_point_relations():
    pt = point()
    for n in range(1, 5):
        rel = point_pn_spec(n).relation_poly()
        assert group_structure(rel).point_base_abelian_rank == n + 1
    assert group_structure(LaurentPoly.from_int_coeffs(pt, [1, -2, 2, -1, 1])).point_base_abelian_rank == 4


def test_group_structure_refusals():
    pt = point()
    with pytest.raises(NotAUnit):
        group_structure(LaurentPoly.from_int_coeffs(pt, [1, -2]))
    with pytest.raises(ValidationError):
        group_structure(LaurentPoly.from_int_coeffs(pt, [2, -1]))
    # the rank rule holds over any base: a curve relation has a free rank and no abelian rank
    gs = group_structure(LaurentPoly.from_int_coeffs(curve(0), [1, -1]))
    assert (gs.free_rank_over_base, gs.point_base_abelian_rank) == (1, None)


def test_point_quotient_is_free_by_presentation_oracle():
    # present Z[T]/(p) on generators T^0..T^{2m-1} with relations T^i p,
    # i < m; the Smith form (sympy's, as an independent oracle) must be m
    # ones, leaving a free group of rank m
    for n in range(1, 5):
        coeffs = [(-1) ** q * math.comb(n + 1, q) for q in range(n + 2)]
        m = n + 1
        rows = []
        for i in range(m):
            row = [0] * (2 * m)
            for j, c in enumerate(coeffs):
                row[i + j] = c
            rows.append(row)
        d = smith_normal_form(Matrix(rows), domain=ZZ)
        invariants = [d[i, i] for i in range(m)]
        assert invariants == [1] * m


# -- the cached relation ----------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(bundle_specs(), st.data(), st.integers(-6, 6))
def test_the_spec_keeps_the_alternating_koszul_lists_unchanged(spec, data, k):
    want = (
        [(-1) ** q * c.rank for q, c in enumerate(spec.koszul)],
        [(-1) ** q * c.degree for q, c in enumerate(spec.koszul)],
    )
    assert spec._relation == want
    c = reduce_poly(data.draw(laurent_polys(spec.base)), spec)
    assert c.twist(k).twist(-k) == c == twist(twist(c, -k), k)
    assert spec.relation_poly() == LaurentPoly(spec.base, {q: (-1) ** q * e for q, e in enumerate(spec.koszul)})
    assert reduce_poly(spec.relation_poly().shift(k), spec).is_zero()
    assert spec._relation == want


def test_the_cached_relation_stays_out_of_eq_hash_and_repr():
    a, b = point_pn_spec(2), point_pn_spec(2)
    object.__setattr__(b, "_relation", ([1], [0]))
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "_relation" not in repr(a)
    (rel,) = (f for f in dataclasses.fields(PnBundleSpec) if f.name == "_relation")
    assert (rel.init, rel.repr, rel.compare) == (False, False, False)


# -- classes that need no division -------------------------------------------


@settings(max_examples=100, deadline=None)
@given(bundle_specs(), st.data(), st.integers(-70, 70))
def test_classes_on_at_most_n_plus_1_exponents_skip_the_division(spec, data, lo):
    x, top = spec.base, spec.n + 1
    size = data.draw(st.integers(0, top))
    ranks = data.draw(st.lists(st.integers(-20, 20), min_size=size, max_size=size))
    degree = st.just(0) if x.is_point else st.integers(-20, 20)
    degrees = data.draw(st.lists(degree, min_size=size, max_size=size))
    given_lists = (list(ranks), list(degrees))
    nf = _normal_form(spec._relation, lo, ranks, degrees)
    # at lo = 0 no product follows either, so the padded copies are what comes back
    for out in (nf, _normal_form(spec._relation, 0, ranks, degrees)):
        assert not {id(ranks), id(degrees)} & {id(out[0]), id(out[1])} and out[0] is not out[1]
    assert (ranks, degrees) == given_lists
    # zeros up to n+2 terms leave the class alone but send it down the division route
    zeros = [0] * (top + 1 - size)
    assert nf == _normal_form(spec._relation, lo, ranks + zeros, degrees + zeros)
    want = [x.zero] * top
    for r, d, power in zip(ranks, degrees, companion_powers(spec, lo, size)):
        want = [w + x.k0(r, d) * c for w, c in zip(want, power)]
    assert reduce_poly(LaurentPoly._dense(x, lo, ranks, degrees), spec).coeffs == tuple(want)
    assert tuple(map(x.k0, *nf)) == tuple(want)
