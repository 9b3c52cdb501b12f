"""Field construction, arithmetic laws, Frobenius, and root finding."""

import itertools
import random

import pytest

from ellmassey import ff
from ellmassey.errors import (
    DegreeTooLarge,
    FieldMismatch,
    FieldTooLarge,
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


# OEIS A014233: psi_n is the least odd composite that is a strong pseudoprime
# to each of the first n prime bases
PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)


def test_is_prime_rejects_the_strong_pseudoprimes_below_its_bound():
    assert ff.PRIME_CERTIFIED_BOUND == PSI[12] == 1287836182261 * 2575672364521
    assert PSI[11] == 399165290221 * 798330580441
    for psi in PSI[:12]:
        assert not ff.is_prime(psi), psi
    # 13 bases still pass psi_13 itself: make_field stops below it
    assert ff.is_prime(PSI[12])
    assert ff.is_prime(318665857834031151167483)


def test_make_field_rejects_characteristics_past_the_certified_bound():
    with pytest.raises(NotPrime):
        ff.make_field(PSI[11], 1)
    for p in (PSI[12], PSI[12] + 2):
        with pytest.raises(FieldTooLarge, match=str(ff.PRIME_CERTIFIED_BOUND)):
            ff.make_field(p, 1)


def test_make_field_moduli_irreducible_by_scan():
    # no roots and no quadratic factors at the sizes we can brute force
    for p, k in [(3, 2), (3, 3), (7, 2), (5, 3), (11, 2)]:
        F = ff.make_field(p, k)
        assert all(
            sum(c * pow(x, i, p) for i, c in enumerate(F.modulus)) % p != 0
            for x in range(p)
        )


def rabin_irreducible(f, p):
    """Reference decider (Rabin): X^(p^k) = X mod f and gcd(X^(p^(k/r)) - X, f) = 1
    for every prime r | k."""
    k = len(f) - 1
    if ff._ip_sub(ff._ip_powmod([0, 1], p**k, f, p), [0, 1], p):
        return False
    for r in ff._prime_divisors(k):
        diff = ff._ip_sub(ff._ip_powmod([0, 1], p ** (k // r), f, p), [0, 1], p)
        if len(ff._ip_gcd(diff, f, p)) != 1:
            return False
    return True


def reference_modulus(p, k):
    """The first monic irreducible of degree k in the scan order, by Rabin's test."""
    for m in range(p**k):
        candidate = [m // p**i % p for i in range(k)] + [1]
        if rabin_irreducible(candidate, p):
            return tuple(candidate)


@pytest.mark.parametrize(
    "p,k", [(p, k) for p in (2, 3, 5, 7, 11, 13) for k in range(2, 9)] + [(7, 24)]
)
def test_make_field_modulus_matches_rabin_scan(p, k):
    assert ff.make_field(p, k).modulus == reference_modulus(p, k)


# 4 | k with p = 3 (mod 4), and a prime r | k with r not dividing p - 1
BINOMIAL_CASES = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 4), (5, 2), (5, 3), (5, 4), (7, 3),
                  (7, 4), (7, 5), (7, 6), (11, 8), (13, 4), (13, 6), (13, 12), (17, 8)]


@pytest.mark.parametrize("p,k", BINOMIAL_CASES)
def test_binomial_and_ben_or_deciders_match_rabin(p, k):
    for c in range(p):
        f = [c] + [0] * (k - 1) + [1]
        expected = rabin_irreducible(f, p)
        assert ff._binomial_irreducible(c, k, p) == expected, (c, k, p)
        assert ff._ip_ben_or(f, p) == expected, (c, k, p)


@pytest.mark.parametrize("p,k", [(2, 5), (3, 4), (5, 3)])
def test_ben_or_matches_rabin_on_every_monic(p, k):
    for m in range(p**k):
        f = [m // p**i % p for i in range(k)] + [1]
        assert ff._ip_ben_or(f, p) == rabin_irreducible(f, p), f


def test_make_field_binomial_block_ruled_out_at_once():
    # p = 3 (mod 4) and 4 | k: no X^4 + c is irreducible, a scan of 10^6
    # binomials that Rabin's test would take minutes over
    assert ff.make_field(1000003, 4).modulus == (1, 1, 0, 0, 1)


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


def test_roots_reject_raw_tuples_of_the_wrong_length():
    F = ff.make_field(5, 2)
    for f in ([(1, 2, 3), (0, 1)], [(1,), (0, 1)]):
        with pytest.raises(FieldMismatch, match="expected 2 coefficients"):
            ff.roots_in_field(f, F)
    assert ff.roots_in_field([(1, 2), (1, 0)], F) == [F.element((4, 3))]


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
    for p, k in [(5, 2), (3, 4), (11, 1)]:
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


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2)])
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
    # roots, like factoring and square roots, are found in odd characteristic only
    for k in (2, 14):
        with pytest.raises(UnsupportedField):
            ff.roots_in_field([1, 1, 1], ff.make_field(2, k))


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


@pytest.mark.parametrize("p,k", [(7, 1), (7, 24)])
def test_embedding_into_the_same_field_is_the_identity(p, k):
    # over GF(7^24) the smallest root of the modulus is not X, so the
    # identity is a choice, not the canonical-root rule
    F = ff.make_field(p, k)
    emb = ff.embed_field(F, F)
    rng = random.Random(p * k)
    for _ in range(50):
        x = F.element(tuple(rng.randrange(p) for _ in range(k)))
        assert emb(x) == x
    if k == 24:
        assert ff.roots_in_field(list(F.modulus), F)[0].coeffs != (0, 1) + (0,) * 22


def test_element_mismatch_errors():
    F1, F2 = ff.make_field(5, 1), ff.make_field(7, 1)
    with pytest.raises(FieldMismatch):
        F1.element(2) + F2.element(2)


def test_fields_are_interned_and_compared_by_identity():
    """make_field returns one object per (p, k), which is what lets fields be
    compared by identity: elements of GF(7) mixed with elements of GF(11) or
    of GF(7^2) still raise FieldMismatch, and a field embeds in itself by the
    identity."""
    for p, k in ((7, 1), (7, 2), (11, 1)):
        assert ff.make_field(p, k) is ff.make_field(p, k)
    F7, F11, F49 = ff.make_field(7, 1), ff.make_field(11, 1), ff.make_field(7, 2)
    x = F7.element(3)
    for y in (F11.element(3), F49.element((3, 0))):
        with pytest.raises(FieldMismatch):
            x + y
        with pytest.raises(FieldMismatch):
            x * y
        with pytest.raises(FieldMismatch):
            x < y
        with pytest.raises(FieldMismatch):
            y.field.element(x)
        with pytest.raises(FieldMismatch):
            ff.roots_in_field([x, y.field.one], y.field)
        assert x != y
    with pytest.raises(FieldMismatch):
        ff.embed_field(F7, F49)(F11.element(3))
    for F in (F7, F49):
        emb = ff.embed_field(F, F)
        for z in F.elements():
            assert emb(z).field is F and emb(z).coeffs == z.coeffs


# ---------------------------------------------------------------------------
# packed kernels against references on plain ints

def int_mul(F, a, b):
    """a * b in F without the packed layout: the integer-polynomial product,
    then long division by the (monic) field modulus."""
    p, k, m = F.p, F.k, F.modulus
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for top in range(len(prod) - 1, k - 1, -1):
        c = prod[top] % p
        for j, v in enumerate(m):
            prod[top - k + j] -= c * v
    return tuple(c % p for c in prod[:k])


def ref_mul(F, f, g):
    out = [F.zero_raw] * max(0, len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = F.radd(out[i + j], int_mul(F, a, b))
    return ff.poly_trim(F, out)


def ref_rem(F, f, m):
    f = ff.poly_trim(F, list(f))
    inv = F.rinv(m[-1])
    while len(f) >= len(m):
        c, shift = int_mul(F, f[-1], inv), len(f) - len(m)
        for i, b in enumerate(m):
            f[shift + i] = F.rsub(f[shift + i], int_mul(F, c, b))
        ff.poly_trim(F, f)
    return f


def ref_powmod(F, f, e, m):
    result, base = [F.one_raw], ref_rem(F, f, m)
    while e:
        if e & 1:
            result = ref_rem(F, ref_mul(F, result, base), m)
        base = ref_rem(F, ref_mul(F, base, base), m)
        e >>= 1
    return result


KERNEL_FIELDS = [(3, 1), (19, 1), (1009, 1), (2, 4), (5, 3), (29, 7), (7, 24)]


def _rand_poly(F, rng, length, zero_frac=0.3):
    return [
        F.zero_raw if rng.random() < zero_frac else tuple(rng.randrange(F.p) for _ in range(F.k))
        for _ in range(length)
    ]


def _rand_modulus(F, rng, n):
    lead = F.zero_raw
    while lead == F.zero_raw:
        lead = tuple(rng.randrange(F.p) for _ in range(F.k))
    return _rand_poly(F, rng, n) + [lead]


@pytest.mark.parametrize("p,k", KERNEL_FIELDS)
def test_rmul_matches_int_reference(p, k):
    F = ff.make_field(p, k)
    rng = random.Random(p * 10 + k)
    for _ in range(200):
        a, b = (tuple(rng.randrange(p) for _ in range(k)) for _ in range(2))
        assert F.rmul(a, b) == int_mul(F, a, b), (a, b)
    # every residue at p - 1 puts the largest possible sum in each slot
    full = (p - 1,) * k
    assert F.rmul(full, full) == int_mul(F, full, full)


@pytest.mark.parametrize("p,k", [(5, 3), (3, 7)])
def test_rmul_slot_sums_near_the_width_bound(p, k):
    # a slot one bit narrower overflows only after the fold, and only on
    # products with residues near p - 1: every pair of GF(5^3), and every
    # multiple of (2, ..., 2) in GF(3^7)
    F = ff.make_field(p, k)
    every = [x.coeffs for x in F.elements()]
    for a in every if F.order <= 125 else [(p - 1,) * k]:
        for b in every:
            assert F.rmul(a, b) == int_mul(F, a, b), (a, b)


@pytest.mark.parametrize("p,k", [(29, 7), (7, 24)])
def test_rinv_inverts(p, k):
    F = ff.make_field(p, k)
    rng = random.Random(p + k)
    for a in [(p - 1,) * k, F.one_raw] + [tuple(rng.randrange(p) for _ in range(k)) for _ in range(50)]:
        if a != F.zero_raw:
            assert int_mul(F, a, F.rinv(a)) == F.one_raw, a
    with pytest.raises(ZeroDivisionError):
        F.rinv(F.zero_raw)


@pytest.mark.parametrize("p,k", KERNEL_FIELDS)
def test_poly_mul_matches_schoolbook(p, k):
    F = ff.make_field(p, k)
    rng = random.Random(p * 100 + k)
    top = 6 if k > 7 else 12
    for _ in range(40 if k < 7 else 8):
        f = _rand_poly(F, rng, rng.randrange(0, top))
        g = _rand_poly(F, rng, rng.randrange(0, top))
        if f and rng.random() < 0.3:
            f[-1] = F.zero_raw  # trailing zero: not trimmed on input
        assert ff.poly_mul(F, f, g) == ref_mul(F, f, g)
    # every residue at p - 1 puts the largest possible sum in each slot
    full = [tuple([p - 1] * k)] * top
    assert ff.poly_mul(F, full, full) == ref_mul(F, full, full)
    assert ff.poly_mul(F, [], full) == []


@pytest.mark.parametrize("p,k", KERNEL_FIELDS)
def test_poly_powmod_matches_schoolbook(p, k):
    F = ff.make_field(p, k)
    rng = random.Random(p * 1000 + k)
    top = 4 if k > 7 else 7
    for trial in range(24 if k < 7 else 6):
        n = 1 + trial % top  # degree-1 moduli included
        m = _rand_modulus(F, rng, n)  # leading coefficient arbitrary, not monic
        if trial % 3 == 0:
            m[0] = F.zero_raw  # zero constant term: Y divides the modulus
        # a base shorter than the modulus (used as it is), of equal length, or
        # longer than 2n - 1: the last two are reduced before the first square
        length = (rng.randrange(0, n + 1), n + 1, rng.randrange(n + 2, 2 * n + 3))[trial // 2 % 3]
        base = _rand_poly(F, rng, length)
        if base and trial % 4 == 1:
            base[-1] = F.zero_raw  # trailing zero: not trimmed on input
        e = rng.choice([0, 1, 2, 3, rng.randrange(4, 200), F.order, F.order + rng.randrange(F.order)])
        assert ff.poly_powmod(F, base, e, m) == ref_powmod(F, base, e, m), (base, e, m)
    # every residue at p - 1, at the largest slot sums of a reduction step
    m = [tuple([p - 1] * k)] * (top + 1)
    x = [tuple([p - 1] * k)] * top
    assert ff.poly_powmod(F, x, 5, m) == ref_powmod(F, x, 5, m)


def test_poly_kernel_slot_sums_near_the_width_bound():
    # (2 + 2X + ... + 2X^6)^2 over GF(3^7): slot X^6 holds 7 * 4 = 28 before
    # the fold of X^7..X^12 and more after it, past 5 bits
    F = ff.make_field(3, 7)
    full = [(2,) * 7]
    assert ff.poly_mul(F, full, full) == ref_mul(F, full, full)
    # a reduction step adds the rows' products to a full low half
    F = ff.make_field(3, 1)
    modulus = [(2,)] * 6 + [(1,)]
    base = [(2,)] * 6
    assert ff.poly_powmod(F, base, 2, modulus) == ref_powmod(F, base, 2, modulus)


def test_poly_powmod_constant_modulus():
    F = ff.make_field(5, 2)
    x = [F.zero_raw, F.one_raw]
    assert ff.poly_powmod(F, x, 3, [(2, 1)]) == []
    assert ff.poly_powmod(F, x, 0, [(2, 1)]) == [F.one_raw]
    with pytest.raises(ZeroDivisionError):
        ff.poly_powmod(F, x, 3, [])


def test_poly_powmod_reversal_padding_case():
    # a reversed-quotient reduction that forgets to pad the truncated
    # product before reversing gets 10X^3 + 4X^2 + 13X + 1 here
    F = ff.make_field(19, 1)
    base = [(5,), (0,), (0,), (1,)]  # X^3 + 5
    modulus = [(0,), (1,), (0,), (0,), (1,)]  # X^4 + X
    assert ff.poly_powmod(F, base, 9, modulus) == [(1,)]
    assert ref_powmod(F, base, 9, modulus) == [(1,)]


def test_poly_kernel_properties():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        p, k = draw(st.sampled_from([(3, 1), (19, 1), (2, 4), (5, 3), (29, 7)]))
        F = ff.make_field(p, k)
        elem = st.tuples(*[st.integers(0, p - 1)] * k)
        f = draw(st.lists(elem, max_size=8))
        g = draw(st.lists(elem, max_size=8))
        m = draw(st.lists(elem, min_size=1, max_size=6)) + [draw(elem.filter(lambda c: any(c)))]
        return F, f, g, m, draw(st.integers(0, 3 * F.order)), draw(st.integers(0, 3 * F.order))

    @hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @hypothesis.given(cases())
    def check(case):
        F, f, g, m, a, b = case
        assert ff.poly_mul(F, f, g) == ff.poly_mul(F, g, f)
        product = ff.poly_mul(F, ff.poly_powmod(F, f, a, m), ff.poly_powmod(F, f, b, m))
        assert ff.poly_powmod(F, f, a + b, m) == ff.poly_rem(F, product, m)

    check()


@pytest.mark.parametrize("p,k", [(3, 3), (7, 2)])
def test_sqrt_in_field_against_square_table(p, k):
    F = ff.make_field(p, k)
    table: dict = {}
    for r in F.elements():
        sq = r * r
        table[sq] = min(table.get(sq, r), r)  # the canonically smaller root
    for c in F.elements():
        assert ff.sqrt_in_field(c) == table.get(c)
