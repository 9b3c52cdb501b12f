"""Field construction, arithmetic laws, Frobenius, and root finding."""

import itertools
import random

import pytest

from ellmassey import ff
from ellmassey.errors import (
    DegreeTooLarge,
    FieldMismatch,
    NotPrime,
    UnsupportedField,
    ZeroPolynomial,
)


def brute_irreducible_quadratics(p):
    """Oracle: all irreducible monic quadratics over GF(p) by exhaustive root scan."""
    out = []
    for a, b in itertools.product(range(p), repeat=2):
        if all((x * x + a * x + b) % p != 0 for x in range(p)):
            out.append((b, a, 1))
    return out


def test_make_field_prime_modulus_is_x():
    F = ff.make_field(5, 1)
    assert F.modulus == (0, 1)
    assert F.order == 5


def test_make_field_f4_unique_quadratic():
    # X^2 + X + 1 is the only irreducible monic quadratic over GF(2)
    F = ff.make_field(2, 2)
    assert F.modulus == (1, 1, 1)
    assert brute_irreducible_quadratics(2) == [(1, 1, 1)]


def test_make_field_f25_smallest_modulus():
    # scan order is X^2, X^2+1, X^2+2, ..., X^2+X, ...: first irreducible wins
    F = ff.make_field(5, 2)
    assert F.modulus == (2, 0, 1)  # X^2 + 2
    oracle = brute_irreducible_quadratics(5)
    smallest = min(oracle, key=lambda m: (m[1], m[0]))
    assert F.modulus == smallest


def test_make_field_errors():
    with pytest.raises(NotPrime):
        ff.make_field(6, 1)
    with pytest.raises(DegreeTooLarge):
        ff.make_field(5, 97)
    with pytest.raises(DegreeTooLarge):
        ff.make_field(5, 0)


def test_make_field_moduli_irreducible_by_scan():
    # no roots and no quadratic factors at the sizes we can brute force
    for p, k in [(3, 2), (3, 3), (7, 2), (5, 3), (11, 2)]:
        F = ff.make_field(p, k)
        assert all(
            sum(c * pow(x, i, p) for i, c in enumerate(F.modulus)) % p != 0
            for x in range(p)
        )


@pytest.mark.parametrize("p,k", [(5, 1), (2, 2), (5, 2), (7, 3), (11, 2), (3, 4)])
def test_field_axioms_random(p, k):
    F = ff.make_field(p, k)
    rng = random.Random(1234)
    els = list(F.elements()) if F.order <= 200 else None

    def rand_el():
        if els is not None:
            return rng.choice(els)
        return F.element(tuple(rng.randrange(p) for _ in range(k)))

    for _ in range(1000):
        a, b, c = rand_el(), rand_el(), rand_el()
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        if not a.is_zero():
            assert a * a.inverse() == F.one
            assert a / a == F.one


@pytest.mark.parametrize("p,k", [(5, 2), (3, 3), (7, 2)])
def test_every_element_satisfies_x_q_equals_x(p, k):
    F = ff.make_field(p, k)
    for a in F.elements():
        assert a ** F.order == a


def test_frobenius_prime_field_identity():
    F = ff.make_field(5, 1)
    x = F.element(3)
    assert ff.frobenius_power(x) == x  # 3^5 = 3 in GF(5)


def test_frobenius_f4_generator():
    F = ff.make_field(2, 2)
    x = F.element((0, 1))  # the class of X
    fx = ff.frobenius_power(x)
    assert fx == F.element((1, 1))  # X^2 = X + 1 mod X^2+X+1


@pytest.mark.parametrize("p,k", [(5, 2), (3, 3), (7, 2), (13, 2)])
def test_frobenius_is_field_automorphism_of_order_k(p, k):
    F = ff.make_field(p, k)
    rng = random.Random(99)
    for _ in range(300):
        a = F.element(tuple(rng.randrange(p) for _ in range(k)))
        b = F.element(tuple(rng.randrange(p) for _ in range(k)))
        assert ff.frobenius_power(a + b) == ff.frobenius_power(a) + ff.frobenius_power(b)
        assert ff.frobenius_power(a * b) == ff.frobenius_power(a) * ff.frobenius_power(b)
        x = a
        for _ in range(k):
            x = ff.frobenius_power(x)
        assert x == a


def test_roots_x2_minus_1_mod_5():
    F = ff.make_field(5, 1)
    roots = ff.roots_in_field([-1, 0, 1], F)
    assert [r.coeffs[0] for r in roots] == [1, 4]


def test_roots_x2_plus_1_mod_3_empty():
    F = ff.make_field(3, 1)
    assert ff.roots_in_field([1, 0, 1], F) == []


def test_roots_x2_plus_1_in_f9():
    F9 = ff.make_field(3, 2)
    roots = ff.roots_in_field([1, 0, 1], F9)
    assert len(roots) == 2
    r, s = roots
    assert r == -s
    assert r * r == F9.element(-1)
    # oracle: exhaustive evaluation over all 9 elements
    brute = [a for a in F9.elements() if a * a + 1 == F9.zero]
    assert roots == sorted(brute)


def test_roots_errors():
    F = ff.make_field(5, 1)
    with pytest.raises(ZeroPolynomial):
        ff.roots_in_field([], F)
    with pytest.raises(ZeroPolynomial):
        ff.roots_in_field([0, 0], F)
    with pytest.raises(DegreeTooLarge):
        ff.roots_in_field([1] * 202, F)


def test_roots_multiplicity_discarded_and_sorted():
    F = ff.make_field(7, 1)
    # (x-2)^2 (x-5) has roots {2, 5}, each reported once, ascending
    f = [0, 1]
    poly = [(-2) % 7, 1]
    sq = [0] * 3
    # direct small convolution: (x-2)^2 = x^2 - 4x + 4
    sq = [4, (-4) % 7, 1]
    full = [
        (sq[0] * (-5)) % 7,
        (sq[1] * (-5) + sq[0]) % 7,
        (sq[2] * (-5) + sq[1]) % 7,
        sq[2],
    ]
    roots = ff.roots_in_field(full, F)
    assert [r.coeffs[0] for r in roots] == [2, 5]
    del f, poly


def test_roots_large_field_uses_equal_degree_splitting():
    # three roots among 3^10 = 59049 elements, found by splitting gcd(X^q - X, f)
    F = ff.make_field(3, 10)
    g = F.element(tuple([1, 2, 0, 1, 0, 0, 2, 1, 0, 1]))
    h = F.element(tuple([2, 0, 1, 0, 2, 2, 0, 0, 1, 0]))
    # f = (x - g)(x - h) x
    f = [
        F.zero,
        g * h,
        -(g + h),
        F.one,
    ]
    roots = ff.roots_in_field(f, F)
    assert roots == sorted([F.zero, g, h])
    # determinism across calls
    assert roots == ff.roots_in_field(f, F)


def test_roots_cross_check_exhaustive_small_fields():
    rng = random.Random(7)
    for p, k in [(5, 2), (3, 4), (11, 1), (2, 2)]:
        F = ff.make_field(p, k)
        for _ in range(20):
            coeffs = [F.element(tuple(rng.randrange(p) for _ in range(k))) for _ in range(5)]
            if all(c.is_zero() for c in coeffs):
                continue
            got = ff.roots_in_field(coeffs, F)
            brute = [
                a
                for a in F.elements()
                if sum((c * a**i for i, c in enumerate(coeffs)), F.zero) == F.zero
            ]
            assert got == sorted(brute)


def x_q_minus_x(F):
    """X^q - X over F, whose roots are all q elements of F."""
    return [F.zero, -F.one] + [F.zero] * (F.order - 2) + [F.one]


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2), (2, 2)])
def test_roots_of_x_q_minus_x_are_the_whole_field(p, k):
    # odd p: gcd(X^q - X, f) is f itself, a full split on the tiniest fields
    F = ff.make_field(p, k)
    assert ff.roots_in_field(x_q_minus_x(F), F) == list(F.elements())


@pytest.mark.parametrize("p,quadratic", [(3, [1, 0, 1]), (7, [3, 1, 1])])
def test_rootless_quadratic_has_no_roots(p, quadratic):
    F = ff.make_field(p, 1)
    assert all(sum(c * x**i for i, c in enumerate(quadratic)) % p for x in range(p))
    assert ff.roots_in_field(quadratic, F) == []


def test_char2_root_search_is_capped():
    # characteristic 2 has only the exhaustive scan, up to 10^4 elements
    with pytest.raises(UnsupportedField):
        ff.roots_in_field([1, 1, 1], ff.make_field(2, 14))


def test_sqrt_in_field():
    for p, k in [(5, 1), (7, 2), (11, 1), (3, 3)]:
        F = ff.make_field(p, k)
        squares = {a * a for a in F.elements()}
        for c in F.elements():
            r = ff.sqrt_in_field(c)
            if c in squares:
                assert r is not None and r * r == c
                assert r.coeffs <= (-r).coeffs
            else:
                assert r is None


def test_embedding_is_ring_homomorphism():
    small = ff.make_field(5, 2)
    big = ff.make_field(5, 4)
    emb = ff.embed_field(small, big)
    els = list(small.elements())
    rng = random.Random(5)
    for _ in range(200):
        a, b = rng.choice(els), rng.choice(els)
        assert emb(a + b) == emb(a) + emb(b)
        assert emb(a * b) == emb(a) * emb(b)
    assert emb(small.one) == big.one
    with pytest.raises(FieldMismatch):
        ff.embed_field(small, ff.make_field(5, 3))


def test_element_mismatch_errors():
    F1, F2 = ff.make_field(5, 1), ff.make_field(7, 1)
    with pytest.raises(FieldMismatch):
        F1.element(2) + F2.element(2)
