"""Normal forms in the Grothendieck ring of a bundle.

The Grothendieck group of a quantum P^n-bundle is the Laurent ring over
the base modulo the Koszul relation; because the relation is invertible
at both ends, every class reduces to a unique polynomial of degree at
most n.  This script reduces powers of T on a ruled surface and shows
the twist action and the pushed-forward ideal generator.
"""

from kzero import LaurentPoly, PnBundleSpec, curve, pullback, reduce_poly, twist

X = curve(0)
spec = PnBundleSpec(X, 1, (X.one, X.k0(2, 1), X.k0(1, -1)))
print(f"relation: {spec.relation_poly()!r}")
print("normal forms of T^k on the basis {1, T}:")
for k in range(-4, 5):
    cls = reduce_poly(LaurentPoly(X, {k: X.one}), spec)
    print(f"  T^{k:+}  ->  {cls.as_poly()!r}")

print("\nthe relation itself reduces to zero:",
      repr(reduce_poly(spec.relation_poly(), spec).as_poly()))

unit = pullback(X.one, spec)
print("\ntwisting the structure class by +1 then -1 returns it:",
      twist(twist(unit, 1), -1) == unit)

print(f"\nideal generator attached to a point class: {spec.relation_poly() * X.k0(0, 1)!r}")
