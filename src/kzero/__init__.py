"""Exact Grothendieck-group computations for quantum projective-space bundles.

The package computes, in exact integer arithmetic, the Grothendieck
group K0 of a noncommutative projective-space bundle over a point or a
smooth projective curve, and the full numerical intersection theory of
quantum ruled surfaces: Euler pairings, intersection numbers, the
Neron-Severi lattice, and the e-invariant.

Quick tour::

    >>> from kzero import RuledSurface
    >>> s = RuledSurface.from_degrees(genus=0, deg_e=-1, deg_q=-1)
    >>> f, h = s.fiber_class(), s.section_class()
    >>> s.intersect(f, f), s.intersect(f, h), s.intersect(h, h)
    (0, 1, -1)
    >>> s.e_invariant()
    1
"""

from .base import BaseSpace, K0Class, curve, euler_form_base, point
from .bundle import (
    BundleClass,
    GroupStructure,
    PnBundleSpec,
    group_structure,
    pullback,
    reduce_poly,
    twist,
)
from .errors import (
    BaseMismatch,
    InvariantViolation,
    NegativeExponent,
    NonUnitConstantTerm,
    NotAUnit,
    ParseError,
    RankConstraintViolation,
    ValidationError,
)
from .intlinalg import integer_kernel
from .series import (
    LaurentPoly,
    TruncatedSeries,
    hilbert_coeff_ruled,
    series_invert,
)
from .surface import IntersectionLattice, RuledSurface, SurfaceClass

__version__ = "0.1.0"

__all__ = [
    "BaseSpace",
    "K0Class",
    "curve",
    "point",
    "euler_form_base",
    "LaurentPoly",
    "TruncatedSeries",
    "series_invert",
    "hilbert_coeff_ruled",
    "PnBundleSpec",
    "BundleClass",
    "GroupStructure",
    "reduce_poly",
    "pullback",
    "twist",
    "group_structure",
    "RuledSurface",
    "SurfaceClass",
    "IntersectionLattice",
    "integer_kernel",
    "ValidationError",
    "ParseError",
    "BaseMismatch",
    "NotAUnit",
    "RankConstraintViolation",
    "InvariantViolation",
    "NonUnitConstantTerm",
    "NegativeExponent",
]
