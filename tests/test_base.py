"""Ring and pairing laws of numerical base classes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kzero import (
    BaseMismatch,
    NotAUnit,
    ValidationError,
    curve,
    euler_form_base,
    point,
)


def small_classes(base, bound=2):
    out = []
    for r in range(-bound, bound + 1):
        for d in range(-bound, bound + 1):
            if base.is_point and d != 0:
                continue
            out.append(base.k0(r, d))
    return out


# -- construction ----------------------------------------------------


def test_point_classes_have_no_degree():
    with pytest.raises(ValidationError):
        point().k0(1, 3)
    assert point().k0(4).degree == 0


def test_genus_must_be_nonnegative():
    with pytest.raises(ValidationError):
        curve(-1)
    with pytest.raises(ValidationError):
        point().__class__("point", 2)


def test_mixed_bases_rejected():
    with pytest.raises(BaseMismatch):
        curve(0).one + curve(1).one
    with pytest.raises(BaseMismatch):
        euler_form_base(curve(0).one, point().one)


# -- group and ring structure ----------------------------------------


def test_addition_examples():
    x = curve(3)
    assert x.k0(1, 0) + x.k0(0, 1) == x.k0(1, 1)
    assert x.k0(2, -3) + x.k0(-2, 3) == x.zero
    assert x.zero + x.k0(5, 7) == x.k0(5, 7)


def test_product_of_line_bundles_adds_degrees():
    # oracle: O(a) (x) O(b) = O(a+b), rank 1 and degree a+b
    x = curve(1)
    for a in range(-2, 3):
        for b in range(-2, 3):
            assert x.k0(1, a) * x.k0(1, b) == x.k0(1, a + b)


def test_product_of_torsion_classes_vanishes():
    # oracle: point sheaves at distinct points have disjoint support
    x = curve(0)
    assert x.k0(0, 1) * x.k0(0, 1) == x.zero
    assert x.k0(0, 3) * x.k0(0, -2) == x.zero


def test_identity_element():
    x = curve(2)
    for c in small_classes(x):
        assert x.one * c == c
        assert c * x.one == c


def test_ring_laws_on_grid():
    x = curve(2)
    grid = small_classes(x, 2)
    for a in grid:
        for b in grid:
            assert a * b == b * a
            assert a * (b + b) == a * b + a * b
    small = small_classes(x, 1)
    for a in small:
        for b in small:
            for c in small:
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


def test_integer_scalars():
    x = curve(0)
    assert 3 * x.k0(2, -1) == x.k0(6, -3)
    assert x.k0(2, -1) * -1 == -x.k0(2, -1)


# -- duality ----------------------------------------------------------


def test_dual_of_split_rank_two_bundle():
    # oracle: dual of O(a) (+) O(b) is O(-a) (+) O(-b)
    x = curve(1)
    for a in range(-3, 4):
        for b in range(-3, 4):
            cls = x.k0(1, a) + x.k0(1, b)
            assert cls.dual() == x.k0(1, -a) + x.k0(1, -b)
    assert x.k0(2, 5).dual() == x.k0(2, -5)


def test_dual_is_a_ring_involution():
    x = curve(2)
    for a in small_classes(x):
        assert a.dual().dual() == a
        for b in small_classes(x, 1):
            assert (a * b).dual() == a.dual() * b.dual()
    assert x.one.dual() == x.one


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.integers(-(10**40), 10**40), st.integers(-(10**40), 10**40))
def test_dual_is_an_involution(genus, rank, degree):
    a = curve(genus).k0(rank, degree)
    assert a.dual().dual() == a
    assert a.dual() == curve(genus).k0(rank, -degree)
    b = point().k0(rank, 0)  # no degree to flip: dual is the identity over a point
    assert b.dual() == b


# -- units -------------------------------------------------------------


def test_unit_inverses():
    x = curve(4)
    assert x.k0(1, -3).inverse() == x.k0(1, 3)
    assert x.k0(-1, 2).inverse() == x.k0(-1, -2)
    for d in range(-4, 5):
        for r in (1, -1):
            u = x.k0(r, d)
            assert u.is_unit()
            assert u * u.inverse() == x.one


def test_non_units_refuse_inversion():
    x = curve(0)
    for r in (0, 2, -3, 5):
        assert not x.k0(r, 1).is_unit()
        with pytest.raises(NotAUnit):
            x.k0(r, 0).inverse()


# -- Euler pairing -----------------------------------------------------


def test_euler_form_curve_table():
    # the four basic pairings on a genus-g curve
    for g in range(0, 11):
        x = curve(g)
        o, p = x.one, x.k0(0, 1)
        assert euler_form_base(o, o) == 1 - g
        assert euler_form_base(o, p) == 1
        assert euler_form_base(p, o) == -1
        assert euler_form_base(p, p) == 0


def test_euler_form_on_point_is_rank_product():
    pt = point()
    for r1 in range(-3, 4):
        for r2 in range(-3, 4):
            assert euler_form_base(pt.k0(r1), pt.k0(r2)) == r1 * r2


def test_euler_form_biadditive():
    x = curve(3)
    grid = small_classes(x, 1)
    for a in grid:
        for b in grid:
            for c in grid:
                assert euler_form_base(a + b, c) == euler_form_base(a, c) + euler_form_base(b, c)
                assert euler_form_base(a, b + c) == euler_form_base(a, b) + euler_form_base(a, c)


def test_euler_form_antisymmetry_law():
    # (a,b) + (b,a) = 2(1-g) rank(a) rank(b); the degree part cancels
    for g in (0, 2, 5):
        x = curve(g)
        for a in small_classes(x, 2):
            for b in small_classes(x, 2):
                lhs = euler_form_base(a, b) + euler_form_base(b, a)
                assert lhs == 2 * (1 - g) * a.rank * b.rank
