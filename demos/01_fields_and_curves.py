"""Finite fields and curve basics.

Builds prime and extension fields with reproducible moduli, runs the curve
group law, counts points, and checks the Hasse bound along the way.
"""

from ellmassey import ec, ff

# Extension fields use the lexicographically smallest irreducible modulus,
# so GF(25) is the same object in every run.
F25 = ff.make_field(5, 2)
print("GF(25) modulus (ascending coefficients):", F25.modulus)  # X^2 + 2

x = F25.element((0, 1))
print("x * x =", (x * x).coeffs, " (reduction by X^2 + 2 gives -2 = 3)")
print("Frobenius of x:", ff.frobenius_power(x).coeffs, " and twice:", ff.frobenius_power(ff.frobenius_power(x)).coeffs)

# Root finding: X^2 + 1 has no roots mod 3 but two in GF(9).
F3, F9 = ff.make_field(3, 1), ff.make_field(3, 2)
print("roots of X^2+1 in GF(3):", ff.roots_in_field([1, 0, 1], F3))
print("roots of X^2+1 in GF(9):", [r.coeffs for r in ff.roots_in_field([1, 0, 1], F9)])

# A curve over GF(7) with exactly nine points, all killed by 3.
F7 = ff.make_field(7, 1)
E = ec.curve_new(F7, 0, 2)
print("\nE: y^2 = x^3 + 2 over GF(7)")
print("discriminant:", E.disc, " j-invariant:", E.j)
N = ec.count_points(E)
print("#E(F_7) =", N, " trace:", 7 + 1 - N)

P = E.point(0, 3)
print("P =", P, " 2P =", ec.scalar_mul(2, P), " 3P =", ec.scalar_mul(3, P))

# The one-parameter family with prescribed j-invariant.
for t0 in (1, 2, 3):
    curve = ec.igusa_curve(F7, t0)
    print(f"family member with j = {t0}: a = b = {curve.a}, j check = {curve.j}")
