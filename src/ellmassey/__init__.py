"""Triple Massey products on elliptic curves over finite fields.

The package decides whether triple Massey products in H^1(E, Z/l) vanish,
via closed-form criteria driven by the Frobenius action on torsion, and
cross-checks every verdict with an independent homomorphism-lifting oracle
into unitriangular matrix groups.
"""

__all__ = ["ff", "ec", "unitri", "galois", "massey", "oracle", "cli"]

__version__ = "0.1.0"
