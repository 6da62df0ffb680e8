"""Every input check raises its own named error class, and mixed-type arithmetic is a TypeError."""

import operator
from fractions import Fraction

import pytest

from kzero import (
    BaseMismatch,
    BaseSpace,
    BundleClass,
    K0Class,
    LaurentPoly,
    PnBundleSpec,
    RuledSurface,
    SurfaceClass,
    TruncatedSeries,
    ValidationError,
    curve,
    hilbert_coeff_ruled,
    point,
    pullback,
    reduce_poly,
    series_invert,
)
from kzero.cli import main

X, Y = curve(1), curve(2)
P1 = PnBundleSpec(X, 1, (X.one, X.k0(2, 1), X.k0(1, 0)))
SURFACE = RuledSurface.from_degrees(1, 1, 0)
SERIES = series_invert(LaurentPoly(X, {0: X.one, 1: X.k0(2, 1)}), 3)

CASES = {
    "unknown base kind": (ValidationError, lambda: BaseSpace("torus")),
    "float rank": (ValidationError, lambda: K0Class(X, 1.0)),
    "bool rank": (ValidationError, lambda: K0Class(X, True, False)),
    "bool genus": (ValidationError, lambda: curve(True)),
    "bool fiber dimension": (ValidationError, lambda: PnBundleSpec(X, True, (X.one, X.k0(2), X.k0(1)))),
    "bool surface genus": (ValidationError, lambda: RuledSurface(True, X.k0(2, 1), X.k0(1))),
    "float surface genus": (ValidationError, lambda: RuledSurface(1.5, X.k0(2, 1), X.k0(1))),
    "negative surface genus": (ValidationError, lambda: RuledSurface(-1, X.k0(2, 1), X.k0(1))),
    "surface genus other than its classes'": (BaseMismatch, lambda: RuledSurface(2, X.k0(2, 1), X.k0(1))),
    "float Hilbert degree of a surface": (ValidationError, lambda: SURFACE.hilbert_coeff(2.5)),
    "string Hilbert degree": (ValidationError, lambda: hilbert_coeff_ruled(X.k0(2, 1), X.k0(1), "3")),
    "Koszul class over another base": (BaseMismatch, lambda: PnBundleSpec(X, 1, (X.one, Y.k0(2), X.k0(1)))),
    "n coefficients for n + 1 slots": (ValidationError, lambda: BundleClass(P1, (X.one,))),
    "bundle coefficient over another base": (BaseMismatch, lambda: BundleClass(P1, (X.one, Y.one))),
    "non-int exponent": (ValidationError, lambda: LaurentPoly(X, {1.0: X.one})),
    "polynomial coefficient over another base": (BaseMismatch, lambda: LaurentPoly(X, {0: Y.one})),
    "support of zero": (ValueError, lambda: LaurentPoly.zero(X).min_exp()),
    "non-int shift": (ValidationError, lambda: LaurentPoly.one(X).shift(1.5)),
    "empty truncated series": (ValidationError, lambda: TruncatedSeries(X, [])),
    "series of mixed bases": (BaseMismatch, lambda: TruncatedSeries(X, [X.one, Y.one])),
    "coefficient past the order": (IndexError, lambda: SERIES.coeff(SERIES.order + 1)),
    "negative inversion order": (ValidationError, lambda: series_invert(LaurentPoly.one(X), -1)),
    "float inversion order": (ValidationError, lambda: series_invert(LaurentPoly.one(X), 2.5)),
    "string inversion order": (ValidationError, lambda: series_invert(LaurentPoly.one(X), "3")),
    "negative order of the series one": (ValidationError, lambda: TruncatedSeries.one(X, -1)),
    "float rank coefficient": (ValidationError, lambda: LaurentPoly.from_int_coeffs(X, [1, 2.5])),
    "string rank coefficient": (ValidationError, lambda: LaurentPoly.from_int_coeffs(X, ["7"])),
    "Fraction rank coefficient": (ValidationError, lambda: LaurentPoly.from_int_coeffs(X, [1, 2, Fraction(4, 1)])),
    "surface class over another base": (BaseMismatch, lambda: SurfaceClass(SURFACE, LaurentPoly.one(Y))),
}


@pytest.mark.parametrize("error, build", CASES.values(), ids=CASES)
def test_each_input_check_raises_its_named_class(error, build):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error


MIXED_BASES = {
    "pullback of a class over another base": lambda: pullback(Y.one, P1),
    "reduce_poly of a polynomial over another base": lambda: reduce_poly(LaurentPoly.one(Y), P1),
    "bundle coefficient over another base": lambda: BundleClass(P1, (X.one, Y.one)),
    "series of mixed bases": lambda: TruncatedSeries(X, [X.one, Y.one]),
}


@pytest.mark.parametrize("build", MIXED_BASES.values(), ids=MIXED_BASES)
def test_a_base_mismatch_has_one_message(build):
    with pytest.raises(BaseMismatch, match="^mixed bases ") as info:
        build()
    assert type(info.value) is BaseMismatch


def test_a_non_integer_rank_coefficient_is_named_by_its_position():
    with pytest.raises(ValidationError, match="^coefficient 2: 'float' object cannot be interpreted as an integer$"):
        LaurentPoly.from_int_coeffs(X, [1, True, 2.0])
    assert LaurentPoly.from_int_coeffs(X, [1, True, 2]).ranks == [1, 1, 2]


class Three:
    def __index__(self):
        return 3


def test_coefficients_and_truncation_orders_follow_one_integer_rule():
    # operator.index decides both: an __index__ type is read, a float is named
    assert LaurentPoly.from_int_coeffs(X, [Three()]) == LaurentPoly.from_int_coeffs(X, [3])
    assert TruncatedSeries.one(X, Three()) == TruncatedSeries.one(X, 3)
    assert series_invert(LaurentPoly.one(X), Three()) == TruncatedSeries.one(X, 3)
    with pytest.raises(ValidationError, match="^truncation order: 'float' object cannot be interpreted as an integer$"):
        TruncatedSeries.one(X, 2.0)


def test_a_ruled_job_over_a_point_exits_one_with_its_message(capsys):
    assert main(["run", "--mode", "ruled", "--point", "--deg-e", "0", "--deg-q", "0"]) == 1
    assert capsys.readouterr() == ("", "error: ruled mode needs a curve base\n")


VALUES = {
    "K0Class": X.k0(2, 1),
    "LaurentPoly": LaurentPoly(X, {0: X.one, 2: X.k0(1, 3)}),
    "BundleClass": BundleClass(P1, (X.one, X.k0(1, 1))),
    "SurfaceClass": SURFACE.section_class(),
}
OTHERS = (object(), "T", 1.5, None)


@pytest.mark.parametrize("op", (operator.add, operator.sub, operator.mul), ids=("+", "-", "*"))
@pytest.mark.parametrize("value", VALUES.values(), ids=VALUES)
def test_mixed_type_arithmetic_is_a_type_error(value, op):
    for other in OTHERS:
        with pytest.raises(TypeError):
            op(value, other)
        with pytest.raises(TypeError):
            op(other, value)


EQUALITY = {**VALUES, "TruncatedSeries": SERIES, "PnBundleSpec": P1, "RuledSurface": SURFACE}


@pytest.mark.parametrize("value", EQUALITY.values(), ids=EQUALITY)
def test_equality_with_another_type_is_false(value):
    for other in (*OTHERS, 1, (), point()):
        assert (value == other) is False
        assert (other == value) is False
        assert value != other
