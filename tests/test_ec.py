"""Curve construction, group law, counting, torsion bases, Frobenius, Weil."""

import hashlib
import random
from functools import lru_cache
from math import isqrt, lcm

import pytest

import fixtures
from ellmassey import ec, ff, galois
from ellmassey.errors import (
    BadCharacteristic,
    DegreeTooLarge,
    FieldMismatch,
    FieldTooLarge,
    InternalError,
    NotTorsion,
    SingularCurve,
    UnsupportedLevel,
)

F5 = ff.make_field(5, 1)
F7 = ff.make_field(7, 1)


def brute_points(curve):
    """Oracle: all affine points by scanning every (x, y) pair."""
    pts = []
    for x in curve.base.elements():
        for y in curve.base.elements():
            if y * y == curve.rhs(x):
                pts.append((x, y))
    return pts


def test_curve_new_valid():
    c = ec.curve_new(F5, 1, 1)
    assert not c.disc.is_zero()
    # delta = 4 + 27 = 31 = 1 mod 5
    assert c.disc == F5.element(31)


def test_curve_new_singular():
    with pytest.raises(SingularCurve):
        ec.curve_new(F5, 0, 0)


def test_curve_new_bad_characteristic():
    with pytest.raises(BadCharacteristic):
        ec.curve_new(ff.make_field(3, 1), 1, 1)
    with pytest.raises(BadCharacteristic):
        ec.curve_new(ff.make_field(2, 2), 1, 1)


def test_igusa_specialization_has_j_equal_t():
    for p in (7, 11, 13, 101):
        base = ff.make_field(p, 1)
        for t0 in range(2, p):
            if t0 % p in (0, 1728 % p):
                continue
            c = ec.igusa_curve(base, t0)
            assert c.j == base.element(t0)


@pytest.mark.parametrize("p,k0,a,b,k", [(7, 1, 3, 4, 24), (5, 2, (0, 1), 2, 4), (7, 24, 3, 4, 24)])
def test_base_change_is_a_curve(p, k0, a, b, k):
    c = ec.curve_new(ff.make_field(p, k0), a, b)
    assert c.over(c.base) == c
    big = ff.make_field(p, k)
    emb = ff.embed_field(c.base, big)
    E = c.over(big)
    assert E == ec.Curve(big, emb(c.a), emb(c.b))
    assert E.j == emb(c.j)


def test_point_add_identity_and_inverse():
    c = ec.curve_new(F5, 1, 1)
    inf = c.infinity()
    P = c.point(0, 1)
    assert ec.point_add(P, inf) == P
    assert ec.point_add(inf, P) == P
    assert ec.point_add(P, -P).is_infinity
    assert ec.scalar_mul(0, P).is_infinity


def test_group_order_annihilates_y2_x3_plus_x():
    # E: y^2 = x^3 + x over GF(5) has exactly 4 points (oracle: full scan)
    c = ec.curve_new(F5, 1, 0)
    pts = brute_points(c)
    assert len(pts) + 1 == 4
    assert ec.count_points(c) == 4
    for x, y in pts:
        assert ec.scalar_mul(4, c.point(x, y)).is_infinity


def test_count_points_matches_brute_force():
    rng = random.Random(17)
    for p in (5, 7, 13):
        base = ff.make_field(p, 1)
        for _ in range(8):
            a, b = rng.randrange(p), rng.randrange(p)
            try:
                c = ec.curve_new(base, a, b)
            except SingularCurve:
                continue
            assert ec.count_points(c) == len(brute_points(c)) + 1


def test_count_points_extension_base():
    base = ff.make_field(5, 2)
    c = ec.curve_new(base, base.element((1, 1)), base.element(2))
    assert ec.count_points(c) == len(brute_points(c)) + 1


def test_count_points_cap():
    base = ff.make_field(50023, 1)  # first prime above the cap
    with pytest.raises(FieldTooLarge):
        ec.count_points(ec.curve_new(base, 1, 1))


def test_hasse_bound_holds():
    rng = random.Random(3)
    for _ in range(25):
        p = rng.choice([11, 13, 17, 19, 23, 101, 499])
        base = ff.make_field(p, 1)
        a, b = rng.randrange(p), rng.randrange(p)
        try:
            c = ec.curve_new(base, a, b)
        except SingularCurve:
            continue
        t = p + 1 - ec.count_points(c)
        assert abs(t) <= 2 * isqrt(p) + 1


def test_group_law_axioms_random_triples():
    c = ec.curve_new(F7, 2, 3)
    pts = [c.infinity()] + [c.point(x, y) for x, y in brute_points(c)]
    rng = random.Random(20)
    for _ in range(1000):
        P, Q, R = (rng.choice(pts) for _ in range(3))
        assert ec.point_add(P, Q) == ec.point_add(Q, P)
        assert ec.point_add(ec.point_add(P, Q), R) == ec.point_add(P, ec.point_add(Q, R))
        assert ec.point_add(P, -P).is_infinity


def test_division_polynomial_psi3_closed_form():
    c = ec.curve_new(F5, 2, 1)
    psi3 = ec.division_polynomial(c, 3)
    a, b = c.a, c.b
    # 3x^4 + 6a x^2 + 12b x - a^2, ascending coefficients
    expected = [-(a * a), b * 12, a * 6, F5.zero, F5.element(3)]
    assert psi3 == expected
    assert len(psi3) - 1 == 4


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_division_polynomial_degree(n):
    c = ec.curve_new(ff.make_field(11, 1), 1, 3)
    psi = ec.division_polynomial(c, n)
    assert len(psi) - 1 == (n * n - 1) // 2
    with pytest.raises(BadCharacteristic):
        ec.division_polynomial(ec.curve_new(ff.make_field(n if n != 9 else 7, 1), 1, 3), n if n != 9 else 7)


def test_division_polynomial_unsupported():
    c = ec.curve_new(F5, 1, 1)
    with pytest.raises(UnsupportedLevel):
        ec.division_polynomial(c, 4)
    with pytest.raises(UnsupportedLevel):
        ec.division_polynomial(c, 11)


def test_division_polynomial_roots_are_torsion_x():
    # every root of psi_n over small fields gives a point killed by n
    c = ec.curve_new(F7, 0, 2)
    for n in (3, 5):
        psi = ec.division_polynomial(c, n)
        basis = ec.torsion_basis(c, n)
        big = basis.P.ctx.base
        emb = ff.embed_field(c.base, big)
        coeffs = [emb(v) for v in psi]
        ctx = basis.P.ctx
        for x0 in ff.roots_in_field(coeffs, big):
            y = ff.sqrt_in_field(ctx.rhs(x0))
            if y is None:
                continue
            assert ec.scalar_mul(n, ctx.point(x0, y)).is_infinity


def test_torsion_basis_full_rational_3_torsion():
    # y^2 = x^3 + 2 over GF(7) has 9 points, all of exponent 3 (checked by scan)
    c = ec.curve_new(F7, 0, 2)
    assert ec.count_points(c) == 9
    basis = ec.torsion_basis(c, 3)
    assert basis.k == 1
    assert basis.P.ctx.base == F7
    for T in (basis.P, basis.Q):
        assert ec.scalar_mul(3, T).is_infinity
        assert not T.is_infinity


@pytest.mark.parametrize(
    "p,a,b,n",
    [(7, 0, 2, 3), (7, 0, 2, 9), (5, 1, 1, 3), (11, 3, 4, 5), (13, 1, 6, 7)],
)
def test_torsion_basis_invariants(p, a, b, n):
    base = ff.make_field(p, 1)
    c = ec.curve_new(base, a, b)
    basis = ec.torsion_basis(c, n)
    h = 3 if n == 9 else 1  # n / l
    for T in (basis.P, basis.Q):
        assert not ec.scalar_mul(h, T).is_infinity
        assert ec.scalar_mul(n, T).is_infinity
    # the n^2 combinations are pairwise distinct
    seen = set()
    for i in range(n):
        for j in range(n):
            seen.add(ec.point_add(ec.scalar_mul(i, basis.P), ec.scalar_mul(j, basis.Q)).key())
    assert len(seen) == n * n
    # Weil pairing of a basis is a primitive n-th root of unity
    zeta = ec.weil_pairing(basis.P, basis.Q, n)
    assert zeta**n == basis.P.ctx.base.one
    for r in {3, 5, 7} & {d for d in range(2, n + 1) if n % d == 0}:
        assert zeta ** (n // r) != basis.P.ctx.base.one


def _literal_basis(curve, n, field):
    """(P, Q) by search: all points of E[n] - {O} sorted, P the first of order
    n by repeated addition, Q the first whose span with P has n^2 points."""
    emb = ff.embed_field(curve.base, field)
    coeffs = [emb(v) for v in ec.division_polynomial(curve, n)]
    ctx = curve.over(field)
    points = []
    for x0 in ff.roots_in_field(coeffs, field):
        y = ff.sqrt_in_field(ctx.rhs(x0))
        points += [ctx.point(x0, y), ctx.point(x0, -y)]
    points.sort(key=lambda T: T.key())
    assert len(points) == n * n - 1

    def order(T):
        m, acc = 1, T
        while not acc.is_infinity:
            m, acc = m + 1, acc + T
        return m

    def span(P, Q):
        keys, row = set(), ctx.infinity()
        for _ in range(n):
            cur = row
            for _ in range(n):
                keys.add(cur.key())
                cur = cur + Q
            row = row + P
        return keys

    P = next(T for T in points if order(T) == n)
    Q = next(T for T in points if len(span(P, T)) == n * n)
    return P, Q


BASIS_CURVES = [
    (7, 1, 0, 2, 3),
    (7, 1, 0, 2, 9),
    (5, 1, 1, 1, 3),
    (11, 1, 3, 4, 5),
    (13, 1, 1, 6, 7),
    (13, 1, 0, 3, 9),
    (5, 2, (0, 1), 2, 3),
]


@pytest.mark.parametrize("p,k0,a,b,n", BASIS_CURVES)
def test_torsion_basis_is_the_canonical_search_basis(p, k0, a, b, n):
    c = ec.curve_new(ff.make_field(p, k0), a, b)
    basis = ec.torsion_basis(c, n)
    assert (basis.P, basis.Q) == _literal_basis(c, n, basis.P.ctx.base)


@pytest.mark.parametrize("p,k0,a,b,n", BASIS_CURVES)
def test_torsion_basis_table_gives_coordinates(p, k0, a, b, n):
    basis = ec.torsion_basis(ec.curve_new(ff.make_field(p, k0), a, b), n)
    assert len(basis.table) == n * n
    for i in range(n):
        for j in range(n):
            T = ec.scalar_mul(i, basis.P) + ec.scalar_mul(j, basis.Q)
            assert basis.table[T.key()] == (i, j)


def test_torsion_basis_deterministic():
    c = ec.curve_new(F7, 0, 2)
    b1 = ec.torsion_basis(c, 9)
    b2 = ec.torsion_basis(c, 9)
    assert b1.P == b2.P and b1.Q == b2.Q and b1.k == b2.k


def test_torsion_basis_past_the_extension_cap_raises_degree_too_large(monkeypatch):
    # E[3] of y^2 = x^3 + x + 1 over GF(5^49) lies over an extension of degree
    # 2 of it, GF(5^98), past ff.MAX_EXT_DEGREE: make_field's own check rejects
    # it, after distinct-degree factorization and before any equal-degree split
    def no_split(*args):
        raise AssertionError("equal-degree splitting for a field past the cap")

    ec._torsion_field_degree.cache_clear()
    monkeypatch.setattr(ff, "_equal_degree_split", no_split)
    F = ff.make_field(5, 49)
    with pytest.raises(DegreeTooLarge, match="extension degree 98 outside 1..96"):
        ec.torsion_basis(ec.curve_new(F, F.element(1), F.element(1)), 3)


def _split_factor_basis(curve, n):
    """(P, Q, k, table) with every irreducible factor of psi_n split by
    ff.roots_in_field: k is the lcm of the factor degrees, doubled when a
    y-coordinate is missing there, and P, Q are chosen from the sorted
    points as torsion_basis documents."""
    base = curve.base
    factors = ff.factor_monic_squarefree(base, ec._division_raw(curve, n))
    k1 = lcm(*(d for d, _ in factors))
    for k in (k1, 2 * k1):
        big = ff.make_field(base.p, base.k * k)
        E, emb = curve.over(big), ff.embed_field(base, big)
        xs = [x for _, g in factors for x in ff.roots_in_field([emb.raw(c) for c in g], big)]
        ys = [ff.sqrt_in_field(E.rhs(x)) for x in xs]
        if None not in ys:
            break
    points = sorted(
        (ec.CurvePoint(E, x, s) for x, y in zip(xs, ys) for s in (y, -y)), key=ec.CurvePoint.key
    )
    assert len(points) == n * n - 1
    h = 3 if n == 9 else 1
    P = next(T for T in points if not ec.scalar_mul(h, T).is_infinity)
    line = {ec.scalar_mul(i * h, P).key() for i in range(n)}
    Q = next(T for T in points if ec.scalar_mul(h, T).key() not in line)
    return P, Q, k, ec._span_table(P, Q, n)


ORBIT_CURVES = (
    BASIS_CURVES
    + [(p, 1, a, b, 9 if ell == 3 else ell) for (ell, _), (p, a, b) in sorted(fixtures.CURVES.items())]
    + [(7, 1, 6, 6, 5), (47, 1, 35, 30, 9)]  # the analyze curves of the benchmark
)


@pytest.mark.parametrize("p,k0,a,b,n", ORBIT_CURVES)
def test_torsion_basis_from_orbits_equals_the_split_of_every_factor(p, k0, a, b, n):
    curve = ec.curve_new(ff.make_field(p, k0), a, b)
    basis = ec.torsion_basis(curve, n)
    assert (basis.P, basis.Q, basis.k, basis.table) == _split_factor_basis(curve, n)


def test_factor_that_does_not_split_over_the_torsion_field_raises(monkeypatch):
    # psi_3 of y^2 = x^3 + 1 over GF(5) has factors of degrees 1, 1, 2 and E[3]
    # lies over GF(25); told GF(5) instead, the degree-2 factor has no root
    # there, and without the check one_root would draw forever
    curve = ec.curve_new(F5, 0, 1)
    k, stages = ec._torsion_field_degree(curve, 3)
    assert k == 2
    monkeypatch.setattr(ec, "_torsion_field_degree", lambda c, n: (k // 2, stages))
    with pytest.raises(InternalError, match=r"degrees \[1, 1, 2\] do not all divide 1"):
        ec.torsion_basis(curve, 3)


def _full_torsion_degree(curve, n):
    """k with E[n] rational over the degree-k extension of the base, from
    every irreducible factor of psi_n: the lcm d of the factor degrees,
    doubled when some factor's x-coordinates have a nonsquare right-hand
    side over GF(q^d)."""
    F = curve.base
    factors = ff.factor_monic_squarefree(F, ec._division_raw(curve, n))
    k1 = lcm(*(d for d, _ in factors))
    rhs = [curve.b.coeffs, curve.a.coeffs, F.zero_raw, F.one_raw]
    for d, g in factors:
        if (k1 // d) % 2 and ff.poly_powmod(F, rhs, (F.order**d - 1) // 2, g) != [F.one_raw]:
            return 2 * k1
    return k1


def _every_orbit_basis(curve, n, k):
    """(P, Q, table) as torsion_basis built them when it walked every factor:
    the Frobenius orbit, with +-y, of one root of each irreducible factor of
    psi_n, all n^2 - 1 points sorted, P the first with (n/l)P != O, Q the
    first with (n/l)Q off <(n/l)P>, then the span table of (P, Q)."""
    base = curve.base
    big = ff.make_field(base.p, base.k * k)
    E, emb, q = curve.over(big), ff.embed_field(base, big), base.order
    points = []
    for d, g in ff.factor_monic_squarefree(base, ec._division_raw(curve, n)):
        x = ff.one_root(big, [emb.raw(c) for c in g])
        y = ff.sqrt_in_field(E.rhs(ff.FieldElement(big, x))).coeffs
        for _ in range(d):
            points += [ec.CurvePoint(E, ff.FieldElement(big, x), ff.FieldElement(big, v))
                       for v in (y, big.rneg(y))]
            x, y = big.rpow(x, q), big.rpow(y, q)
    points.sort(key=ec.CurvePoint.key)
    assert len(set(points)) == n * n - 1
    h = 3 if n == 9 else 1
    P = next(T for T in points if not ec.scalar_mul(h, T).is_infinity)
    line = {ec.scalar_mul(i * h, P).key() for i in range(n)}
    Q = next(T for T in points if ec.scalar_mul(h, T).key() not in line)
    return P, Q, ec._span_table(P, Q, n)


def _seeded_basis_inputs(count, seed=27):
    """(p, k0, a, b, n): n in {3, 5, 7, 9}, 5 <= p <= 23 prime to n, k0 in
    {1, 2}, (a, b) uniform in GF(p^k0)^2 and nonsingular."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice((3, 5, 7, 9))
        p = rng.choice([p for p in (5, 7, 11, 13, 17, 19, 23) if n % p])
        k0 = rng.choice((1, 2))
        a, b = (tuple(rng.randrange(p) for _ in range(k0)) for _ in "ab")
        F = ff.make_field(p, k0)
        if (F.element(a) ** 3 * 4 + F.element(b) ** 2 * 27).is_zero():
            continue
        out.append((p, k0, a, b, n))
    return out


def test_torsion_basis_equals_every_orbit_construction_on_a_seeded_sweep(monkeypatch):
    """torsion_basis walks psi_n's factors only until two points span E[n] and
    picks the basis on the span's coordinates (ec.canonical_basis); the
    result is the basis, table and Frobenius matrix of the construction that
    walked every factor, and it is refused exactly when the torsion field
    passes make_field's caps. canonical_basis is also transported_matrix's
    rule, which at u = 1 gives A0 back. Fewer roots are drawn than there are
    factors over the whole sweep. About 5 s."""
    one_root, roots = ff.one_root, [0]

    def counted(F, g):
        roots[0] += 1
        return one_root(F, g)

    built = refused = factors = 0
    # E[7] of the last input lies over GF(31^84), past the 2^380 cap
    for p, k0, a, b, n in _seeded_basis_inputs(30) + [(31, 2, (11, 0), (11, 5), 7)]:
        curve = ec.curve_new(ff.make_field(p, k0), a, b)
        k = _full_torsion_degree(curve, n)
        if k0 * k > ff.MAX_EXT_DEGREE or p ** (k0 * k) > ff.MAX_FIELD_ORDER:
            with pytest.raises(DegreeTooLarge):
                ec.torsion_basis(curve, n)
            refused += 1
            continue
        with monkeypatch.context() as m:
            m.setattr(ff, "one_root", counted)
            basis = ec.torsion_basis(curve, n)
        P, Q, table = _every_orbit_basis(curve, n, k)
        assert (basis.k, basis.P, basis.Q, basis.table) == (k, P, Q, table), (p, k0, a, b, n)
        A0 = ec.frobenius_matrix(basis)
        assert A0 == ec.frobenius_matrix(ec.TorsionBasis(n, P, Q, k, table))
        assert galois.transported_matrix(basis, A0, 1) == A0
        built += 1
        factors += len(ff.factor_monic_squarefree(curve.base, ec._division_raw(curve, n)))
    assert built == 30 and refused == 1
    assert roots[0] < factors


def test_torsion_field_degree_stops_at_the_first_stage_past_the_caps(monkeypatch):
    """psi_3 of y^2 = x^3 + x + 2 over GF(5^49) is irreducible of degree 4,
    and E[3] lies over the degree-8 extension; the one stage already puts
    that field at degree at least 4 * 49 = 196 over GF(5), past the cap, so
    no quadratic-character power is taken and make_field refuses 196."""
    F = ff.make_field(5, 49)
    curve = ec.curve_new(F, F.element(1), F.element(2))
    assert _full_torsion_degree(curve, 3) == 8
    powmod, powers = ff.poly_powmod, []

    def counted(F, f, e, m):
        powers.append(e)
        return powmod(F, f, e, m)

    ec._torsion_field_degree.cache_clear()
    monkeypatch.setattr(ff, "poly_powmod", counted)
    k, stages = ec._torsion_field_degree(curve, 3)
    assert (k, [d for d, _ in stages]) == (4, [4])
    assert set(powers) == {F.order}  # X^q for the stages; no (q^d - 1)/2 character power
    with pytest.raises(DegreeTooLarge, match="extension degree 196 outside 1..96"):
        ec.torsion_basis(curve, 3)


@pytest.mark.parametrize("p,n", [(5, 9), (7, 9), (11, 9), (13, 9), (7, 5), (11, 5)])
def test_frobenius_matrix_has_det_q_and_trace_from_the_point_count(p, n):
    """Frobenius satisfies X^2 - tX + q with t = q + 1 - #E(F_q), and
    count_points shares no code with torsion_basis."""
    F = ff.make_field(p, 1)
    for a, b in fixtures.isomorphism_classes(p):
        curve = ec.curve_new(F, a, b)
        (m00, m01), (m10, m11) = ec.frobenius_matrix(ec.torsion_basis(curve, n))
        assert (m00 * m11 - m01 * m10 - p) % n == 0, (a, b)
        assert (m00 + m11 - (p + 1 - ec.count_points(curve))) % n == 0, (a, b)


def test_frobenius_matrix_identity_on_rational_torsion():
    c = ec.curve_new(F7, 0, 2)
    basis = ec.torsion_basis(c, 3)
    action = ec.frobenius_matrix(basis)
    assert action == ((1, 0), (0, 1))


@pytest.mark.parametrize(
    "p,a,b,n",
    [(7, 0, 2, 9), (5, 1, 1, 3), (11, 3, 4, 5), (13, 1, 6, 7), (11, 1, 3, 3)],
)
def test_frobenius_matrix_det_is_q(p, a, b, n):
    base = ff.make_field(p, 1)
    c = ec.curve_new(base, a, b)
    basis = ec.torsion_basis(c, n)
    action = ec.frobenius_matrix(basis)
    assert galois.mat_det(action, n) == p % n
    # order of the matrix equals the torsion field degree over the base
    m = action
    order = 1
    ident = ((1, 0), (0, 1))
    while m != ident:
        m = _matmul(m, action, n)
        order += 1
        assert order <= 200
    assert order == basis.k


def _matmul(A, B, n):
    return (
        ((A[0][0] * B[0][0] + A[0][1] * B[1][0]) % n, (A[0][0] * B[0][1] + A[0][1] * B[1][1]) % n),
        ((A[1][0] * B[0][0] + A[1][1] * B[1][0]) % n, (A[1][0] * B[0][1] + A[1][1] * B[1][1]) % n),
    )


def test_weil_pairing_alternating_and_antisymmetric():
    c = ec.curve_new(F7, 0, 2)
    basis = ec.torsion_basis(c, 3)
    F = basis.P.ctx.base
    assert ec.weil_pairing(basis.P, basis.P, 3) == F.one
    assert ec.weil_pairing(basis.Q, basis.Q, 3) == F.one
    e_pq = ec.weil_pairing(basis.P, basis.Q, 3)
    e_qp = ec.weil_pairing(basis.Q, basis.P, 3)
    assert e_pq * e_qp == F.one


def test_weil_pairing_bilinear():
    c = ec.curve_new(ff.make_field(11, 1), 3, 4)
    basis = ec.torsion_basis(c, 5)
    e = ec.weil_pairing(basis.P, basis.Q, 5)
    for i in range(5):
        lhs = ec.weil_pairing(ec.scalar_mul(i, basis.P), basis.Q, 5)
        assert lhs == e**i


def test_weil_pairing_frobenius_equivariance():
    for p, a, b, n in [(7, 0, 2, 3), (7, 0, 2, 9), (11, 3, 4, 5)]:
        base = ff.make_field(p, 1)
        c = ec.curve_new(base, a, b)
        basis = ec.torsion_basis(c, n)
        e = ec.weil_pairing(basis.P, basis.Q, n)
        lhs = ec.weil_pairing(
            ec.frobenius_endo(basis.P, p), ec.frobenius_endo(basis.Q, p), n
        )
        assert lhs == e**p
        action = ec.frobenius_matrix(basis)
        assert lhs == e ** galois.mat_det(action, n)


def test_weil_pairing_not_torsion():
    c = ec.curve_new(F7, 0, 2)
    # (3, 3) lies on y^2 = x^3 + 2 over GF(7): 27+2 = 29 = 1 = 9? no; pick a real point
    pts = [c.point(x, y) for x, y in brute_points(c)]
    P = pts[0]
    with pytest.raises(NotTorsion):
        ec.weil_pairing(P, P, 5)  # 5 does not divide the order 9 group


# Exact pairing values, recorded before the pairing became Miller's formula.
# The bilinear, alternating and Frobenius tests above hold for e and for
# 1/e alike; these values also pin the sign (-1)^n and the orientation.
# (p, a, b, n) -> coefficients of e_n(P, Q) on the torsion basis.
GOLDEN_PAIRINGS = {
    (7, 0, 2, 9): (0, 5, 0),
    (7, 0, 2, 3): (4,),
    (13, 0, 3, 9): (0, 0, 4),
    (19, 0, 5, 9): (4, 0, 0),
    (11, 1, 7, 5): (3, 0, 0, 0, 0),
    (31, 0, 11, 5): (8,),
    (23, 1, 1, 7): (20, 22, 14),
    (29, 1, 7, 7): (25, 0, 0, 0, 0, 0, 0),
}
# sha256 over 6 seeded ordered pairs (iP + jQ, i'P + j'Q) per curve above
GOLDEN_PAIRING_SAMPLE = "a87fae0ade0118c14530479feedeadc5c23cb30e4728b7af306a9e396b3a60ff"


@lru_cache(maxsize=None)
def _pairing_basis(p, a, b, n):
    return ec.torsion_basis(ec.curve_new(ff.make_field(p, 1), a, b), n)


def pairing_sample_digest():
    rng = random.Random(4242)
    digest = hashlib.sha256()
    for p, a, b, n in GOLDEN_PAIRINGS:
        basis = _pairing_basis(p, a, b, n)
        for _ in range(6):
            i, j, i2, j2 = (rng.randrange(n) for _ in range(4))
            S = ec.point_add(ec.scalar_mul(i, basis.P), ec.scalar_mul(j, basis.Q))
            T = ec.point_add(ec.scalar_mul(i2, basis.P), ec.scalar_mul(j2, basis.Q))
            value = ec.weil_pairing(S, T, n).coeffs
            digest.update(repr((p, a, b, n, i, j, i2, j2, value)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("curve_level", list(GOLDEN_PAIRINGS), ids=str)
def test_weil_pairing_golden_basis_values(curve_level):
    basis = _pairing_basis(*curve_level)
    assert ec.weil_pairing(basis.P, basis.Q, basis.n).coeffs == GOLDEN_PAIRINGS[curve_level]


def test_weil_pairing_golden_sample():
    assert pairing_sample_digest() == GOLDEN_PAIRING_SAMPLE


def test_division_polynomial_vanishes_exactly_on_torsion_x():
    # both directions of the defining property, over the full torsion field
    for p, a, b, n in [(7, 0, 2, 3), (5, 1, 1, 3), (11, 3, 4, 5)]:
        base = ff.make_field(p, 1)
        c = ec.curve_new(base, a, b)
        basis = ec.torsion_basis(c, n)
        big = basis.P.ctx.base
        emb = ff.embed_field(c.base, big)
        psi = ec.division_polynomial(c, n)
        coeffs = [emb(v) for v in psi]
        roots = set(ff.roots_in_field(coeffs, big))
        xs = set()
        for i in range(n):
            for j in range(n):
                T = ec.point_add(ec.scalar_mul(i, basis.P), ec.scalar_mul(j, basis.Q))
                if not T.is_infinity:
                    xs.add(T.x)
        assert xs == roots


def test_frobenius_matrix_split_recipe_conjugate_to_diag():
    # p = 2 mod l with a rational l-torsion point: the matrix has eigenvalues
    # 1 and eps = p mod l on independent eigenvectors
    for p, a, b, ell in [(5, 0, 1, 3), (7, 1, 1, 5), (23, 1, 1, 7)]:
        base = ff.make_field(p, 1)
        curve = ec.curve_new(base, a, b)
        basis = ec.torsion_basis(curve, ell)
        A = ec.frobenius_matrix(basis)
        eps = p % ell
        assert eps != 1
        eigvecs = {}
        for lam in (1, eps):
            for i in range(ell):
                for j in range(ell):
                    if (i, j) == (0, 0):
                        continue
                    image = (
                        (A[0][0] * i + A[0][1] * j) % ell,
                        (A[1][0] * i + A[1][1] * j) % ell,
                    )
                    if image == ((lam * i) % ell, (lam * j) % ell):
                        eigvecs[lam] = (i, j)
                        break
                if lam in eigvecs:
                    break
        assert set(eigvecs) == {1, eps}
        v1, v2 = eigvecs[1], eigvecs[eps]
        assert (v1[0] * v2[1] - v1[1] * v2[0]) % ell != 0


def test_rational_torsion_rank():
    assert ec.rational_torsion_rank(ec.curve_new(F7, 0, 2), 3) == 2
    # y^2 = x^3 + 1 over GF(5): 6 points, so rank 1 at ell = 3
    assert ec.rational_torsion_rank(ec.curve_new(F5, 0, 1), 3) == 1
    # y^2 = x^3 + x over GF(5): 4 points, no 3-torsion
    assert ec.rational_torsion_rank(ec.curve_new(F5, 1, 0), 3) == 0


def _rational_torsion_count(curve, ell):
    """Oracle: #E(F_p)[ell], the points P of E(F_p) with ell * P = O."""
    points = [curve.point(x, y) for x, y in brute_points(curve)]
    return 1 + sum(1 for P in points if ec.scalar_mul(ell, P).is_infinity)


@pytest.mark.parametrize(
    "ell,p,one_b_per_a",
    [(3, 7, False), (3, 13, False), (3, 19, False), (5, 11, False), (7, 29, True)],
)
def test_rational_torsion_rank_matches_point_count(ell, p, one_b_per_a):
    """The rank read off gcd degrees agrees with counting E(F_p)[ell] directly,
    on every nonsingular curve over GF(p) (one b per a where marked)."""
    base = ff.make_field(p, 1)
    for a in range(p):
        for b in range(p):
            if (4 * a**3 + 27 * b**2) % p == 0:
                continue
            c = ec.curve_new(base, a, b)
            assert ell ** ec.rational_torsion_rank(c, ell) == _rational_torsion_count(c, ell), (a, b)
            if one_b_per_a:
                break


def _assert_transport_is_direct(p, ell, pairs):
    """For each pair, the matrix read off its class's first curve by
    transported_matrix, for every u carrying that curve to the pair, is the
    Frobenius matrix on the pair's own torsion_basis."""
    F = ff.make_field(p, 1)
    classes = {}
    for a, b in pairs:
        a0, b0 = min(fixtures.isomorphism_orbit(a, b, p))
        if (a0, b0) not in classes:
            basis = ec.torsion_basis(ec.curve_new(F, a0, b0), ell)
            classes[a0, b0] = basis, ec.frobenius_matrix(basis)
        basis, A0 = classes[a0, b0]
        us = [u for u in range(1, p) if ((u**4 * a0 - a) % p, (u**6 * b0 - b) % p) == (0, 0)]
        direct = ec.frobenius_matrix(ec.torsion_basis(ec.curve_new(F, a, b), ell))
        for u in us:
            assert galois.transported_matrix(basis, A0, u) == direct, (a, b, u)


@pytest.mark.parametrize("p", [7, 13])
def test_transported_basis_is_the_direct_basis_l3(p):
    """Every nonsingular curve, the j = 0 (a = 0) and j = 1728 (b = 0) classes,
    with their larger automorphism groups, included."""
    pairs = [(a, b) for a in range(p) for b in range(p) if (4 * a**3 + 27 * b**2) % p]
    assert any(a == 0 for a, _ in pairs) and any(b == 0 for _, b in pairs)
    _assert_transport_is_direct(p, 3, pairs)


@pytest.mark.parametrize("p,case", [(7, "split_line"), (11, "unipotent_line")])
def test_transported_matrix_is_the_direct_matrix_l5(p, case):
    """Every curve of every class of rank >= 1 at ell = 5: split lines over
    GF(7), unipotent ones over GF(11), as 11 = 1 mod 5."""
    F = ff.make_field(p, 1)
    ranks = {
        (a, b): ec.rational_torsion_rank(ec.curve_new(F, a, b), 5)
        for a in range(p)
        for b in range(p)
        if (4 * a**3 + 27 * b**2) % p
    }
    pairs = [ab for ab, rank in ranks.items() if rank]
    assert {galois.case_from_rank(ranks[ab], p, 5).value for ab in pairs} == {case}
    _assert_transport_is_direct(p, 5, pairs)


def test_transported_basis_is_the_direct_basis_l7():
    """Each class of rank >= 1 at ell = 7 over GF(29): its first curve and its
    second and last curves in (a, b) order (a direct level-7 basis costs about
    0.1 s, so not all 112 curves of those classes)."""
    p = 29
    F = ff.make_field(p, 1)
    classes = {}
    for a in range(p):
        for b in range(p):
            if (4 * a**3 + 27 * b**2) % p:
                classes.setdefault(min(fixtures.isomorphism_orbit(a, b, p)), []).append((a, b))
    pairs = []
    for rep, members in classes.items():
        if ec.rational_torsion_rank(ec.curve_new(F, *rep), 7):
            pairs += {members[0], members[min(1, len(members) - 1)], members[-1]}
    assert len(pairs) > 10
    _assert_transport_is_direct(p, 7, sorted(pairs))


def test_frobenius_inconsistency_raises_internal_error(monkeypatch):
    """The determinant check is an explicit error, so it also runs under -O."""
    c = ec.curve_new(F5, 0, 1)  # split line at ell = 3, q = 5 is not 1 mod 3
    basis = ec.torsion_basis(c, 3)
    monkeypatch.setattr(ec, "frobenius_endo", lambda P, q: P)
    with pytest.raises(InternalError):
        ec.frobenius_matrix(basis)


def test_point_field_mismatch():
    c1 = ec.curve_new(F5, 1, 1)
    c2 = ec.curve_new(F7, 0, 2)
    with pytest.raises(FieldMismatch):
        ec.point_add(c1.point(0, 1), c2.point(3, 5))
