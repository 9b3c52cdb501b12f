"""Unitriangular matrix groups U3(Z/l), U4(Z/l) and the subgroup H of U4(Z/3).

A U4 element is stored by its six free entries (a1, a2, a3, u, v, w):

    [1 a1 u  v ]
    [0 1  a2 w ]
    [0 0  1  a3]
    [0 0  0  1 ]

and a U3 element by its three, (a, b, c) for [[1, a, c], [0, 1, b], [0, 0, 1]].
Products, inverses and generic powers come from the ordinary matrix product
written out in these coordinates (tests check against literal matrix
multiplication). The closed forms for the l-th power and for
commutators exist alongside as an independent route; for l > 3 they give
the exponent-l law, while U4(Z/3) has elements of order 9, exactly those
with a1*a2*a3 nonzero.

The subgroup H consists of the matrices with a1 = a2 = a3; its raw tuples
reuse the U4 layout.
"""

from __future__ import annotations

from math import comb

from .errors import ModulusMismatch

# -- raw tuple core (no modulus checks; callers keep l consistent) ----------

U4_ID = (0, 0, 0, 0, 0, 0)
U3_ID = (0, 0, 0)


def u4_mul_raw(l: int, m, n):
    a1, a2, a3, u, v, w = m
    b1, b2, b3, x, y, z = n
    return (
        (a1 + b1) % l,
        (a2 + b2) % l,
        (a3 + b3) % l,
        (u + x + a1 * b2) % l,
        (v + y + a1 * z + u * b3) % l,
        (w + z + a2 * b3) % l,
    )


def u4_inv_raw(l: int, m):
    a1, a2, a3, u, v, w = m
    return (
        -a1 % l,
        -a2 % l,
        -a3 % l,
        (a1 * a2 - u) % l,
        (-v + a1 * w + u * a3 - a1 * a2 * a3) % l,
        (a2 * a3 - w) % l,
    )


def u4_pow_raw(l: int, m, e: int):
    if e < 0:
        return u4_pow_raw(l, u4_inv_raw(l, m), -e)
    acc, base = U4_ID, m
    while e:
        if e & 1:
            acc = u4_mul_raw(l, acc, base)
        base = u4_mul_raw(l, base, base)
        e >>= 1
    return acc


def u4_pow_l_closed_raw(l: int, m):
    """The l-th power in closed form: entries l*a_i, l*u + C(l,2)a1a2, etc."""
    a1, a2, a3, u, v, w = m
    c2 = comb(l, 2)
    c3 = comb(l, 3)
    return (
        l * a1 % l,
        l * a2 % l,
        l * a3 % l,
        (l * u + c2 * a1 * a2) % l,
        (l * v + c2 * a1 * w + c2 * a3 * u + c3 * a1 * a2 * a3) % l,
        (l * w + c2 * a2 * a3) % l,
    )


def u4_commutator_closed_raw(l: int, m, n):
    """[M, N] = M N M^-1 N^-1 without multiplying matrices out."""
    a1, a2, a3, u, v, w = m
    b1, b2, b3, x, y, z = n
    e13 = (a1 * b2 - a2 * b1) % l
    e24 = (a2 * b3 - a3 * b2) % l
    e14 = ((a1 * z - w * b1) - (a3 * x - b3 * u) - e13 * (a3 + b3)) % l
    return (0, 0, 0, e13, e14, e24)


def u3_mul_raw(l: int, m, n):
    a, b, c = m
    d, e, f = n
    return ((a + d) % l, (b + e) % l, (c + f + a * e) % l)


def u3_inv_raw(l: int, m):
    a, b, c = m
    return (-a % l, -b % l, (a * b - c) % l)


def u3_pow_raw(l: int, m, e: int):
    if e < 0:
        return u3_pow_raw(l, u3_inv_raw(l, m), -e)
    acc, base = U3_ID, m
    while e:
        if e & 1:
            acc = u3_mul_raw(l, acc, base)
        base = u3_mul_raw(l, base, base)
        e >>= 1
    return acc


# -- wrapped public types ----------------------------------------------------

class U4Matrix:
    """Element of U4(Z/l) by its free entries; immutable."""

    __slots__ = ("l", "entries")

    def __init__(self, l: int, a1: int, a2: int, a3: int, u: int, v: int, w: int):
        self.l = l
        self.entries = (a1 % l, a2 % l, a3 % l, u % l, v % l, w % l)

    @classmethod
    def from_raw(cls, l: int, raw) -> "U4Matrix":
        return cls(l, *raw)

    def _check(self, other: "U4Matrix"):
        if self.l != other.l:
            raise ModulusMismatch(f"moduli differ: {self.l} vs {other.l}")

    def __mul__(self, other: "U4Matrix") -> "U4Matrix":
        self._check(other)
        return U4Matrix.from_raw(self.l, u4_mul_raw(self.l, self.entries, other.entries))

    def inverse(self) -> "U4Matrix":
        return U4Matrix.from_raw(self.l, u4_inv_raw(self.l, self.entries))

    def __pow__(self, e: int) -> "U4Matrix":
        return U4Matrix.from_raw(self.l, u4_pow_raw(self.l, self.entries, e))

    def matrix(self) -> list[list[int]]:
        """The literal 4x4 matrix, row-major."""
        a1, a2, a3, u, v, w = self.entries
        return [[1, a1, u, v], [0, 1, a2, w], [0, 0, 1, a3], [0, 0, 0, 1]]

    def is_identity(self) -> bool:
        return self.entries == U4_ID

    def __eq__(self, other):
        return (
            isinstance(other, U4Matrix)
            and self.l == other.l
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.l, self.entries))

    def __repr__(self):
        return f"U4Matrix(l={self.l}, {self.entries})"


def u4_identity(l: int) -> U4Matrix:
    return U4Matrix(l, 0, 0, 0, 0, 0, 0)


def u4_pow_closed(m: U4Matrix, e: int) -> U4Matrix:
    """m^e, splitting off closed-form l-th powers: m^e = (m^l)^(e//l) * m^(e%l)."""
    if e < 0:
        return u4_pow_closed(m.inverse(), -e)
    l = m.l
    head = u4_pow_raw(l, u4_pow_l_closed_raw(l, m.entries), e // l)
    tail = u4_pow_raw(l, m.entries, e % l)
    return U4Matrix.from_raw(l, u4_mul_raw(l, head, tail))


def u4_commutator_closed(m: U4Matrix, n: U4Matrix) -> U4Matrix:
    m._check(n)
    return U4Matrix.from_raw(m.l, u4_commutator_closed_raw(m.l, m.entries, n.entries))


def mod_center(m: U4Matrix) -> U4Matrix:
    """Canonical coset representative modulo the center (v pinned to 0)."""
    a1, a2, a3, u, _, w = m.entries
    return U4Matrix(m.l, a1, a2, a3, u, 0, w)


class HMatrix:
    """Element N(a, u, v, w) of the subgroup H <= U4(Z/3): a on the whole
    superdiagonal. Order 9 exactly when a != 0."""

    __slots__ = ("a", "u", "v", "w")

    def __init__(self, a: int, u: int, v: int, w: int):
        self.a = a % 3
        self.u = u % 3
        self.v = v % 3
        self.w = w % 3

    def to_u4(self) -> U4Matrix:
        return U4Matrix(3, self.a, self.a, self.a, self.u, self.v, self.w)

    @classmethod
    def from_u4(cls, m: U4Matrix) -> "HMatrix":
        a1, a2, a3, u, v, w = m.entries
        if m.l != 3 or not (a1 == a2 == a3):
            raise ModulusMismatch("matrix is not in H <= U4(Z/3)")
        return cls(a1, u, v, w)

    def __mul__(self, other: "HMatrix") -> "HMatrix":
        return HMatrix.from_u4(self.to_u4() * other.to_u4())

    def order(self) -> int:
        if self.to_u4().is_identity():
            return 1
        return 9 if self.a != 0 else 3

    def __eq__(self, other):
        return isinstance(other, HMatrix) and (self.a, self.u, self.v, self.w) == (
            other.a,
            other.u,
            other.v,
            other.w,
        )

    def __hash__(self):
        return hash((self.a, self.u, self.v, self.w))

    def __repr__(self):
        return f"HMatrix(a={self.a}, u={self.u}, v={self.v}, w={self.w})"


def h_elements():
    """All 81 elements of H in lexicographic order."""
    for a in range(3):
        for u in range(3):
            for v in range(3):
                for w in range(3):
                    yield HMatrix(a, u, v, w)
