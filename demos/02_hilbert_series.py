"""Hilbert series of projective-space bundles by exact series inversion.

The graded pieces of a bundle's homogeneous coordinate ring are the
coefficients of the inverse of its alternating Koszul relation
polynomial.  For a ruled surface this is the three-term recursion
B_n = E*B_{n-1} - Q*B_{n-2}; for quantum projective n-space over a point
it reproduces the binomial coefficients.
"""

import math

from kzero import PnBundleSpec, curve, point, series_invert

# -- ruled surface over a genus-1 curve ---------------------------------

X = curve(1)
spec = PnBundleSpec(X, 1, (X.one, X.k0(2, -1), X.k0(1, -1)))
relation = spec.relation_poly()
print(f"ruled relation polynomial: {relation!r}")

series = series_invert(relation, 8)
print("graded pieces B_0..B_8 (rank grows by one each step):")
for n, cls in enumerate(series.coeffs):
    print(f"  B_{n} = {cls}")

# sanity: multiplying back gives 1 modulo T^9
product = series.mul_poly(relation)
print(f"relation * series = {product!r}")

# -- quantum projective plane over a point -------------------------------

pt = point()
plane = PnBundleSpec(pt, 2, tuple(pt.k0(math.comb(3, q)) for q in range(4)))
print(f"\nquantum P^2 relation: {plane.relation_poly()!r}   (this is (1-T)^3)")
print(f"hilbert ranks: {series_invert(plane.relation_poly(), 9).ranks()}")
print(f"binomials    : {tuple(math.comb(i + 2, 2) for i in range(10))}")

# -- an inversion that is refused ----------------------------------------

from kzero import NonUnitConstantTerm
from kzero.series import LaurentPoly

try:
    series_invert(LaurentPoly(pt, {0: pt.k0(2), 1: pt.one}), 3)
except NonUnitConstantTerm as exc:
    print(f"\nrefused as expected: {exc}")
