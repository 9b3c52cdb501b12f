"""Unitriangular arithmetic: coordinate formulas vs literal matrices, closed forms."""

import itertools
import random

import pytest

from ellmassey import unitri
from ellmassey.errors import ModulusMismatch
from ellmassey.unitri import HMatrix, U4Matrix, u3_inv_raw, u3_mul_raw, u3_pow_raw, u4_identity


def matmul4(l, A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(4)) % l for j in range(4)] for i in range(4)]


def matmul3(l, A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(3)) % l for j in range(3)] for i in range(3)]


def all_u4(l):
    for entries in itertools.product(range(l), repeat=6):
        yield U4Matrix(l, *entries)


def random_u4(l, rng):
    return U4Matrix(l, *(rng.randrange(l) for _ in range(6)))


@pytest.mark.parametrize("l", [3, 5, 7])
def test_u4_mul_matches_matrix_product(l):
    rng = random.Random(l)
    for _ in range(500):
        m, n = random_u4(l, rng), random_u4(l, rng)
        assert (m * n).matrix() == matmul4(l, m.matrix(), n.matrix())


@pytest.mark.parametrize("l", [3, 5, 7])
def test_u4_identity_and_inverse(l):
    rng = random.Random(l + 1)
    ident = u4_identity(l)
    for _ in range(200):
        m = random_u4(l, rng)
        assert m * ident == m and ident * m == m
        assert m * m.inverse() == ident
        assert m.inverse() * m == ident


def test_u4_noncommutativity_witness():
    # M(1,0,0,...)*M(0,1,0,...) and the reverse order differ at the (1,3) entry by 1
    l = 5
    m = U4Matrix(l, 1, 0, 0, 0, 0, 0)
    n = U4Matrix(l, 0, 1, 0, 0, 0, 0)
    ab = (m * n).entries
    ba = (n * m).entries
    assert (ab[3] - ba[3]) % l == 1
    assert ab[:3] == ba[:3]


def test_u4_pow_closed_cube_example():
    # l=3: M(1,1,1,0,0,0)^3 keeps only the (1,4) entry a1 a2 a3 = 1
    m = U4Matrix(3, 1, 1, 1, 0, 0, 0)
    cube_generic = m * m * m
    assert cube_generic.entries == (0, 0, 0, 0, 1, 0)
    assert unitri.u4_pow_closed(m, 3) == cube_generic


def test_u4_exponent_l_for_l_greater_3():
    rng = random.Random(42)
    for l in (5, 7):
        for _ in range(300):
            m = random_u4(l, rng)
            assert unitri.u4_pow_closed(m, l).is_identity()
            assert (m**l).is_identity()


def test_u4_order9_iff_a1a2a3_nonzero():
    for m in all_u4(3):
        a1, a2, a3 = m.entries[:3]
        e3 = m**3
        if (a1 * a2 * a3) % 3 != 0:
            assert not e3.is_identity() and (m**9).is_identity()
        else:
            assert e3.is_identity()


def test_u4_pow_closed_exhaustive_l3():
    for m in all_u4(3):
        assert unitri.u4_pow_closed(m, 3) == m * m * m


@pytest.mark.parametrize("l", [5, 7])
def test_u4_pow_closed_random_exponents(l):
    rng = random.Random(l * 11)
    for _ in range(300):
        m = random_u4(l, rng)
        e = rng.randrange(0, 4 * l)
        generic = u4_identity(l)
        for _ in range(e):
            generic = generic * m
        assert unitri.u4_pow_closed(m, e) == generic


def test_commutator_closed_exhaustive_l3():
    mats = list(all_u4(3))
    for m in mats:
        mi = m.inverse()
        for n in mats:
            generic = m * n * mi * n.inverse()
            assert unitri.u4_commutator_closed(m, n) == generic


@pytest.mark.parametrize("l", [5, 7])
def test_commutator_closed_random(l):
    rng = random.Random(l * 13)
    for _ in range(2000):
        m, n = random_u4(l, rng), random_u4(l, rng)
        generic = m * n * m.inverse() * n.inverse()
        assert unitri.u4_commutator_closed(m, n) == generic


def test_commutator_self_is_identity():
    rng = random.Random(8)
    for l in (3, 5, 7):
        for _ in range(50):
            m = random_u4(l, rng)
            assert unitri.u4_commutator_closed(m, m).is_identity()


def test_commutator_single_axis_example():
    l = 7
    m = U4Matrix(l, 1, 0, 0, 0, 0, 0)
    n = U4Matrix(l, 0, 1, 0, 0, 0, 0)
    c = unitri.u4_commutator_closed(m, n)
    assert c.entries == (0, 0, 0, 1, 0, 0)  # only the (1,3) entry survives


def test_commutator_of_h1_elements_trivial():
    # a1 = a2 = a3 = 0 on both sides: the derived subgroup is abelian
    rng = random.Random(9)
    for l in (3, 5, 7):
        for _ in range(200):
            m = U4Matrix(l, 0, 0, 0, rng.randrange(l), rng.randrange(l), rng.randrange(l))
            n = U4Matrix(l, 0, 0, 0, rng.randrange(l), rng.randrange(l), rng.randrange(l))
            assert unitri.u4_commutator_closed(m, n).is_identity()
            assert (m * n) == (n * m)


def test_mod_center():
    m = U4Matrix(3, 1, 2, 0, 1, 2, 1)
    r = unitri.mod_center(m)
    assert r.entries == (1, 2, 0, 1, 0, 1)
    z = U4Matrix(3, 0, 0, 0, 0, 2, 0)
    assert unitri.mod_center(z).is_identity()
    assert unitri.mod_center(m * z) == unitri.mod_center(m)


def test_modulus_mismatch():
    with pytest.raises(ModulusMismatch):
        U4Matrix(3, 1, 0, 0, 0, 0, 0) * U4Matrix(5, 1, 0, 0, 0, 0, 0)


@pytest.mark.parametrize("l", [3, 5, 7])
def test_exponent_law_ell_prime(l):
    lp = 9 if l == 3 else l
    rng = random.Random(l * 17)
    for _ in range(200):
        m = random_u4(l, rng)
        assert (m**lp).is_identity()


def u3_matrix(m):
    a, b, c = m
    return [[1, a, c], [0, 1, b], [0, 0, 1]]


@pytest.mark.parametrize("l", [3, 5, 7])
def test_u3_mul_matches_matrix_product(l):
    """The raw U3 product, inverse and powers against literal 3x3 matrices."""
    identity = u3_matrix((0, 0, 0))
    rng = random.Random(l * 19)
    for _ in range(400):
        m = (rng.randrange(l), rng.randrange(l), rng.randrange(l))
        n = (rng.randrange(l), rng.randrange(l), rng.randrange(l))
        M, inv = u3_matrix(m), u3_inv_raw(l, m)
        assert u3_matrix(u3_mul_raw(l, m, n)) == matmul3(l, M, u3_matrix(n))
        assert matmul3(l, M, u3_matrix(inv)) == identity
        power, inv_power = identity, identity
        for e in range(l + 1):
            assert u3_matrix(u3_pow_raw(l, m, e)) == power
            assert u3_matrix(u3_pow_raw(l, m, -e)) == inv_power
            power = matmul3(l, power, M)
            inv_power = matmul3(l, inv_power, u3_matrix(inv))
        assert u3_pow_raw(l, m, l) == (0, 0, 0)


def test_h_closed_under_multiplication():
    els = list(unitri.h_elements())
    assert len(els) == 81
    for m in els:
        for n in els:
            prod = m * n  # from_u4 raises if the product left H
            assert isinstance(prod, HMatrix)


def test_h_center_and_derived_subgroup():
    els = list(unitri.h_elements())
    center = [m for m in els if all((m * n) == (n * m) for n in els)]
    assert sorted((m.a, m.u, m.v, m.w) for m in center) == sorted(
        (0, u, v, u) for u in range(3) for v in range(3)
    )
    derived = set()
    for m in els:
        for n in els:
            mu, nu = m.to_u4(), n.to_u4()
            c = mu * nu * mu.inverse() * nu.inverse()
            derived.add(HMatrix.from_u4(c))
    assert sorted((m.a, m.u, m.v, m.w) for m in derived) == sorted(
        (0, 0, v, 0) for v in range(3)
    )


def test_h_order9_iff_a_nonzero():
    for m in unitri.h_elements():
        u4 = m.to_u4()
        if m.a != 0:
            assert not (u4**3).is_identity() and (u4**9).is_identity()
            assert m.order() == 9
        elif not u4.is_identity():
            assert (u4**3).is_identity()
            assert m.order() == 3
