"""Torsion bases, the Frobenius matrix, and Weil pairing identities.

Locates the field where the full n-torsion lives, extracts a deterministic
basis, and shows the determinant identity det(A) = q together with the
Galois equivariance of the pairing.
"""

from ellmassey import ec, ff, galois

F7 = ff.make_field(7, 1)
E = ec.curve_new(F7, 0, 2)

# The 3-torsion is already rational; the 9-torsion needs a cubic extension.
for n in (3, 9):
    basis = ec.torsion_basis(E, n)
    print(f"E[{n}] lives over GF(7^{basis.k})")
    print("  P =", basis.P, " Q =", basis.Q)
    A = ec.frobenius_matrix(basis)
    print("  Frobenius matrix:", A, " det =", galois.mat_det(A, n), "= 7 mod", n)

basis = ec.torsion_basis(E, 9)
zeta = ec.weil_pairing(basis.P, basis.Q, 9)
print("\nWeil pairing of the basis:", zeta.coeffs)
print("zeta^9 =", (zeta**9).coeffs, " zeta^3 =", (zeta**3).coeffs, "(primitive ninth root)")

# Galois equivariance: pairing the Frobenius images raises zeta to q = det A.
lhs = ec.weil_pairing(ec.frobenius_endo(basis.P, 7), ec.frobenius_endo(basis.Q, 7), 9)
print("e(phi P, phi Q) =", lhs.coeffs, " e(P,Q)^7 =", (zeta**7).coeffs)

# Alternating: e(P, P) = 1, and e(Q, P) inverts e(P, Q).
print("e(P, P) =", ec.weil_pairing(basis.P, basis.P, 9).coeffs)
prod = ec.weil_pairing(basis.P, basis.Q, 9) * ec.weil_pairing(basis.Q, basis.P, 9)
print("e(P,Q) * e(Q,P) =", prod.coeffs)
