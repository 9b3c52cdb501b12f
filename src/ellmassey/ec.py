"""Short Weierstrass elliptic curves over GF(p^k), char >= 5.

Provides the affine group law, exhaustive point counting, odd division
polynomials, deterministic n-torsion bases over the minimal extension field,
the Frobenius matrix on a torsion basis, and the Weil pairing by Miller's
formula e_n(P, Q) = (-1)^n f_P(Q) / f_Q(P).

The level rule lives here alone: SUPPORTED_ELLS, the level l' = ell_prime(l)
at which Frobenius is tracked and its inverse ``level_prime``, and
``check_level``, which every public function that builds psi_n, a torsion
basis, a rank, a case or a group from a level calls first.

Division polynomials follow the y-normalized convention: the cached
polynomial for even index m is psi_m / y, so every entry is univariate in x
once y^2 = x^3 + ax + b is substituted.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd, lcm

from . import ff
from .errors import (
    BadCharacteristic,
    FieldMismatch,
    FieldTooLarge,
    InternalError,
    NotInSpan,
    NotTorsion,
    SingularCurve,
    UnsupportedLevel,
)
from .ff import ExtField, FieldElement

POINT_COUNT_CAP = 50021
SUPPORTED_ELLS = (3, 5, 7)


def ell_prime(ell: int) -> int:
    """Torsion level at which Frobenius must be tracked: 9 for l=3, else l."""
    return 9 if ell == 3 else ell


def level_prime(n: int) -> int:
    """The prime l of a torsion level n = l or ell_prime(l): 3 for 9, else n."""
    return 3 if n == 9 else n


TORSION_LEVELS = tuple(sorted({*SUPPORTED_ELLS, *map(ell_prime, SUPPORTED_ELLS)}))


def check_level(n: int, p: int | None = None, levels=SUPPORTED_ELLS) -> None:
    """The one level rule: n must be one of ``levels`` (SUPPORTED_ELLS, or
    TORSION_LEVELS where a level l' is meant too), else UnsupportedLevel,
    and prime to the characteristic p when one is given, else
    BadCharacteristic."""
    if n not in levels:
        raise UnsupportedLevel(f"ell must be one of {SUPPORTED_ELLS}")
    if p is not None and n % p == 0:
        raise BadCharacteristic("ell equals the characteristic")


class Curve:
    """y^2 = x^3 + ax + b over the field ``base``, where its points live;
    ``over`` gives the base change to an extension."""

    __slots__ = ("base", "a", "b", "disc")

    def __init__(self, base: ExtField, a: FieldElement, b: FieldElement):
        if base.p in (2, 3):
            raise BadCharacteristic(f"characteristic {base.p} not supported")
        a = base.element(a)
        b = base.element(b)
        disc = a * a * a * 4 + b * b * 27
        if disc.is_zero():
            raise SingularCurve("4a^3 + 27b^2 = 0")
        self.base = base
        self.a = a
        self.b = b
        self.disc = disc

    @property
    def j(self) -> FieldElement:
        """The j-invariant 1728 * 4a^3 / disc, computed when read."""
        return (self.a * self.a * self.a * 4 * 1728) / self.disc

    def over(self, field: ExtField) -> "Curve":
        """The base change of the curve to an extension of its base field."""
        emb = ff.embed_field(self.base, field)
        return Curve(field, emb(self.a), emb(self.b))

    def infinity(self) -> "CurvePoint":
        return CurvePoint(self, None, None)

    def point(self, x, y) -> "CurvePoint":
        x = self.base.element(x)
        y = self.base.element(y)
        if y * y != self.rhs(x):
            raise FieldMismatch("point does not satisfy the curve equation")
        return CurvePoint(self, x, y)

    def rhs(self, x: FieldElement) -> FieldElement:
        return x * x * x + self.a * x + self.b

    def __eq__(self, other):
        return (
            isinstance(other, Curve)
            and self.base is other.base
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self):
        return hash((self.base, self.a.coeffs, self.b.coeffs))

    def __repr__(self):
        return f"Curve(GF({self.base.p}^{self.base.k}), a={self.a!r}, b={self.b!r})"


class CurvePoint:
    """Affine point or the point at infinity of the curve ``ctx``; immutable."""

    __slots__ = ("ctx", "x", "y")

    def __init__(self, ctx: Curve, x, y):
        self.ctx = ctx
        self.x = x
        self.y = y

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def key(self):
        """Canonical sort key: infinity first, then (x, y) coefficient tuples."""
        if self.is_infinity:
            return (0,)
        return (1, self.x.coeffs, self.y.coeffs)

    def __neg__(self):
        if self.is_infinity:
            return self
        return CurvePoint(self.ctx, self.x, -self.y)

    def __add__(self, other):
        return point_add(self, other)

    def __sub__(self, other):
        return point_add(self, -other)

    def __rmul__(self, m: int):
        return scalar_mul(m, self)

    def __eq__(self, other):
        if not isinstance(other, CurvePoint):
            return NotImplemented
        if self.ctx != other.ctx:
            return False
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        if self.is_infinity:
            return hash((self.ctx, None))
        return hash((self.ctx, self.x.coeffs, self.y.coeffs))

    def __repr__(self):
        if self.is_infinity:
            return "Infinity"
        return f"({self.x!r}, {self.y!r})"


class TorsionBasis:
    """Ordered basis (P, Q) of E[n] over the degree-k extension of the base.

    ``table`` maps the key of each iP + jQ (0 <= i, j < n) to (i, j).
    """

    __slots__ = ("n", "P", "Q", "k", "table")

    def __init__(self, n: int, P: CurvePoint, Q: CurvePoint, k: int, table: dict):
        self.n = n
        self.P = P
        self.Q = Q
        self.k = k
        self.table = table


# ---------------------------------------------------------------------------
# construction and group law

def curve_new(base: ExtField, a, b) -> Curve:
    """Validated curve y^2 = x^3 + ax + b; stores its discriminant."""
    return Curve(base, a, b)


def igusa_curve(base: ExtField, t0: int) -> Curve:
    """Short-form member of the one-parameter family with j-invariant t0.

    Starts from y^2 = 4x^3 - cx - c with c = 27t/(t - 1728) and rescales
    y by 2. Needs t0 distinct from 0 and 1728 mod p, and p not dividing 6.
    """
    t = base.element(t0)
    if t.is_zero() or t == base.element(1728):
        raise SingularCurve("parameter 0 or 1728 gives a singular model")
    c = (t * 27) / (t - 1728)
    a = -c / 4
    return curve_new(base, a, a)


def point_add(P: CurvePoint, Q: CurvePoint) -> CurvePoint:
    """Group law; Infinity is the identity."""
    if P.ctx != Q.ctx:
        raise FieldMismatch("points on different curves or fields")
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    return _chord(P, Q)[1]


def _chord(A: CurvePoint, B: CurvePoint):
    """(slope, A + B) for affine A, B on one curve, by the chord through them
    or the tangent when A = B; the slope is None when the line is vertical
    (B = -A, so A + B = O)."""
    if A.x == B.x:
        if A.y == -B.y:
            return None, A.ctx.infinity()
        lam = (A.x * A.x * 3 + A.ctx.a) / (A.y * 2)
    else:
        lam = (B.y - A.y) / (B.x - A.x)
    x3 = lam * lam - A.x - B.x
    return lam, CurvePoint(A.ctx, x3, lam * (A.x - x3) - A.y)


def scalar_mul(m: int, P: CurvePoint) -> CurvePoint:
    """m-fold sum of P by double-and-add; scalar_mul(0, P) is Infinity."""
    if m < 0:
        return scalar_mul(-m, -P)
    acc = P.ctx.infinity()
    addend = P
    while m:
        if m & 1:
            acc = point_add(acc, addend)
        m >>= 1
        if m:
            addend = point_add(addend, addend)
    return acc


# ---------------------------------------------------------------------------
# point counting

def count_points(curve: Curve) -> int:
    """#E(F_q) by exhaustive x-scan with a precomputed square table."""
    q = curve.base.order
    if q > POINT_COUNT_CAP:
        raise FieldTooLarge(f"point counting capped at q <= {POINT_COUNT_CAP}")
    F = curve.base
    squares = set()
    for v in _raw_elements(F):
        squares.add(F.rmul(v, v))
    a, b = curve.a.coeffs, curve.b.coeffs
    count = 1
    for x in _raw_elements(F):
        rhs = F.radd(F.rmul(F.rmul(x, x), x), F.radd(F.rmul(a, x), b))
        if rhs == F.zero_raw:
            count += 1
        elif rhs in squares:
            count += 2
    return count


def _raw_elements(F: ExtField):
    return itertools.product(range(F.p), repeat=F.k)


# ---------------------------------------------------------------------------
# division polynomials (odd n), y-normalized

def division_polynomial(curve: Curve, n: int) -> list[FieldElement]:
    """psi_n for n in TORSION_LEVELS: roots are the x-coordinates of E[n]-{O}."""
    check_level(n, curve.base.p, TORSION_LEVELS)
    raw = _division_raw(curve, n)
    return [FieldElement(curve.base, c) for c in raw]


def _division_raw(curve: Curve, n: int) -> list:
    F = curve.base
    a, b = curve.a.coeffs, curve.b.coeffs

    def const(v):
        return F.element(v).coeffs

    cache: dict[int, list] = {
        0: [],
        1: [const(1)],
        2: [const(2)],
        3: ff.poly_trim(
            F,
            [
                F.rneg(F.rmul(a, a)),
                F.rmul(b, const(12)),
                F.rmul(a, const(6)),
                F.zero_raw,
                const(3),
            ],
        ),
    }
    if n >= 5:  # psi_3 needs neither psi_4 nor (x^3 + ax + b)^2
        cpoly = [b, a, F.zero_raw, F.one_raw]  # x^3 + ax + b
        cpoly2 = ff.poly_mul(F, cpoly, cpoly)
        cache[4] = ff.poly_scale(
            F,
            [
                F.rsub(F.rneg(F.rmul(F.rmul(b, b), const(8))), F.rmul(F.rmul(a, a), a)),
                F.rneg(F.rmul(F.rmul(a, b), const(4))),
                F.rneg(F.rmul(F.rmul(a, a), const(5))),
                F.rmul(b, const(20)),
                F.rmul(a, const(5)),
                F.zero_raw,
                F.one_raw,
            ],
            const(4),
        )

    def f(m: int) -> list:
        if m in cache:
            return cache[m]
        t = m // 2
        if m % 2 == 1:
            lead = ff.poly_mul(F, f(t + 2), ff.poly_mul(F, f(t), ff.poly_mul(F, f(t), f(t))))
            tail = ff.poly_mul(F, f(t - 1), ff.poly_mul(F, f(t + 1), ff.poly_mul(F, f(t + 1), f(t + 1))))
            if t % 2 == 0:
                res = ff.poly_sub(F, ff.poly_mul(F, cpoly2, lead), tail)
            else:
                res = ff.poly_sub(F, lead, ff.poly_mul(F, cpoly2, tail))
        else:
            inner = ff.poly_sub(
                F,
                ff.poly_mul(F, f(t + 2), ff.poly_mul(F, f(t - 1), f(t - 1))),
                ff.poly_mul(F, f(t - 2), ff.poly_mul(F, f(t + 1), f(t + 1))),
            )
            half = F.rinv(const(2))
            res = ff.poly_scale(F, ff.poly_mul(F, f(t), inner), half)
        cache[m] = res
        return res

    psi = f(n)
    if len(psi) - 1 != (n * n - 1) // 2:
        raise InternalError(f"psi_{n} has degree {len(psi) - 1}, expected {(n * n - 1) // 2}")
    return psi


# ---------------------------------------------------------------------------
# torsion bases

def torsion_basis(curve: Curve, n: int) -> TorsionBasis:
    """Deterministic basis of E[n] over the least extension containing it.

    The torsion field degree k comes from the distinct-degree factorization
    of psi_n over the base (all x-coordinates rational over the lcm of the
    degrees; one quadratic doubling if some y-coordinate needs it), so a
    field past ``ff.make_field``'s caps is refused before any equal-degree
    split. The irreducible factors of psi_n, each of a degree d dividing k,
    are then walked one at a time: one root x0, one y0 with y0^2 = rhs(x0),
    and the orbit (x0^(q^i), +-y0^(q^i)), i < d, q the order of the base,
    with x0 back after exactly d steps. As E[n] = (Z/n)^2 for n a power of
    the prime l, T has order n iff (n/l)T != O, and two points span E[n]
    iff (n/l) of the second lies off the line of (n/l) of the first; the
    walk stops at the first such pair (P0, Q0), and ``_span_table`` gives
    every point of E[n] by the group law. The basis (P, Q) is then the
    ``canonical_basis`` of that table, and the basis carries its coordinate
    table {iP + jQ: (i, j)}.
    """
    check_level(n, curve.base.p, TORSION_LEVELS)
    k, stages = _torsion_field_degree(curve, n)
    points = _torsion_points(curve, ff.make_field(curve.base.p, curve.base.k * k), stages)
    h = n // level_prime(n)
    try:
        P0 = next(T for T in points if not scalar_mul(h, T).is_infinity)
        line = _multiple_keys(scalar_mul(h, P0), n // h)
        Q0 = next(T for T in points if scalar_mul(h, T).key() not in line)
    except StopIteration:
        raise InternalError(f"the points over the roots of psi_{n} span less than E[{n}]") from None
    table = _span_table(P0, Q0, n)
    if len(table) != n * n:
        raise InternalError(f"basis spans {len(table)} points of E[{n}], expected {n * n}")
    kP, kQ, ((a, c), (b, d)) = canonical_basis(table.items(), n)
    e = pow(a * d - b * c, -1, n)
    table = {key: ((d * i - c * j) * e % n, (a * j - b * i) * e % n) for key, (i, j) in table.items()}
    E, F = P0.ctx, P0.ctx.base
    P, Q = (CurvePoint(E, FieldElement(F, key[1]), FieldElement(F, key[2])) for key in (kP, kQ))
    return TorsionBasis(n, P, Q, k, table)


def canonical_basis(pairs, n: int):
    """(key of P, key of Q, M): the canonical basis (P, Q) of E[n], n a power
    of the prime l, read off the pairs (point key, (i, j)) of a coordinate
    table on any basis (a collection, read twice), and M, whose columns are
    the coordinates of P and Q.

    P is the point of least key whose coordinates are nonzero mod l, and Q
    the point of least key whose determinant with P is nonzero mod l. A
    point T has (n/l)T = O exactly when its coordinates vanish mod l, and
    (n/l)T lies on <(n/l)P> exactly when det(P, T) = 0 mod l, so P is the
    least point of order n and Q the least point off that line. The table
    on (P, Q) is M^-1 applied to the given one.
    """
    ell = level_prime(n)
    # keys are distinct, so min compares keys only
    kP, (a, b) = min(item for item in pairs if item[1][0] % ell or item[1][1] % ell)
    kQ, (c, d) = min(item for item in pairs if (a * item[1][1] - b * item[1][0]) % ell)
    return kP, kQ, ((a, c), (b, d))


@lru_cache(maxsize=32)
def _torsion_field_degree(curve: Curve, n: int):
    """(k, stages): least k with E[n] rational over F_{q^k}, and the
    distinct-degree factorization of psi_n over the base.

    Every factor left after the stage of degree d has a degree above d, so
    the stages found so far bound k from below by their lcm, or by d + 1
    if a factor is left. Once that bound puts F_{q^k} past
    ``ff.make_field``'s caps, the factoring stops and the bound is returned
    with those stages, and ``make_field`` refuses it. The bound is at most
    twice the lcm of the stages returned (d + 1 <= 2d), so a caller that
    judges a field by twice that lcm, as the no-fixed-points report does,
    finds it past the same caps.

    A stage's product G_d has rhs^((q^d - 1)/2) = 1 mod G_d exactly when
    that holds mod each of its irreducible factors (CRT), so the stages
    decide the quadratic doubling as the factors would.
    """
    F = curve.base
    psi = _division_raw(curve, n)
    stages, k1, left = [], 1, len(psi) - 1
    for d, g in ff.distinct_degree_factors(F, psi):
        stages.append((d, g))
        k1, left = lcm(k1, d), left - (len(g) - 1)
        bound = max(k1, d + 1) if left else k1
        if ff.field_size_refusal(F.p, F.k * bound):
            return bound, tuple(stages)
    a, b = curve.a.coeffs, curve.b.coeffs
    h = [b, a, F.zero_raw, F.one_raw]
    for d, g in stages:
        if (k1 // d) % 2 == 0:
            continue  # odd-degree value becomes a square after the even step anyway
        if ff.poly_powmod(F, h, (F.order**d - 1) // 2, g) != [F.one_raw]:
            return 2 * k1, tuple(stages)
    return k1, tuple(stages)


def _torsion_points(curve: Curve, F: ExtField, stages):
    """The points of E[n] - {O} over F, the torsion field, from the
    distinct-degree stages of psi_n: one irreducible factor at a time, each
    one's Frobenius orbit built when the points before it are used up."""
    E, emb = curve.over(F), ff.embed_field(curve.base, F)
    factors = ff.equal_degree_factors(curve.base, stages)
    K, q = F.k // curve.base.k, curve.base.order
    # a factor that does not split over F would keep one_root searching forever
    if any(K % d for d, _ in factors):
        raise InternalError(f"factor degrees {[d for d, _ in factors]} do not all divide {K}")
    for d, g in factors:
        x0 = ff.one_root(F, [emb.raw(c) for c in g])
        y0 = ff.sqrt_in_field(E.rhs(FieldElement(F, x0)))
        if y0 is None or y0.is_zero():
            raise InternalError(f"torsion x-coordinate {x0!r} has no nonzero y in the torsion field")
        x, y, orbit = x0, y0.coeffs, []
        for step in range(1, d + 1):
            orbit += (CurvePoint(E, FieldElement(F, x), FieldElement(F, v)) for v in (y, F.rneg(y)))
            x, y = F.rpow(x, q), F.rpow(y, q)
            if (x == x0) != (step == d):
                raise InternalError(f"Frobenius orbit of {x0!r} does not close after exactly {d} steps")
        yield from orbit


def _span_table(P: CurvePoint, Q: CurvePoint, n: int) -> dict:
    """{point key: (i, j)} for the combinations iP + jQ with 0 <= i, j < n."""
    table = {}
    row = P.ctx.infinity()
    for i in range(n):
        cur = row
        for j in range(n):
            table[cur.key()] = (i, j)
            cur = point_add(cur, Q)
        row = point_add(row, P)
    return table


# ---------------------------------------------------------------------------
# Frobenius action

def frobenius_endo(P: CurvePoint, q: int) -> CurvePoint:
    """Coordinate-wise q-power Frobenius (q = order of the field of definition)."""
    if P.is_infinity:
        return P
    F = P.ctx.base
    return CurvePoint(
        P.ctx,
        FieldElement(F, F.rpow(P.x.coeffs, q)),
        FieldElement(F, F.rpow(P.y.coeffs, q)),
    )


def frobenius_matrix(basis: TorsionBasis):
    """Matrix of the q-power Frobenius on (P, Q), columns = images.

    Solves Phi(P) = aP + bQ and Phi(Q) = cP + dQ by lookup in the basis's
    coordinate table and returns ((a, c), (b, d)), entries in [0, n). Its
    determinant is q mod n (the Weil pairing), a unit as n is prime to p.
    """
    n = basis.n
    big = basis.P.ctx.base
    q = big.p ** (big.k // basis.k)
    try:
        a, b = basis.table[frobenius_endo(basis.P, q).key()]
        c, d = basis.table[frobenius_endo(basis.Q, q).key()]
    except KeyError as exc:  # pragma: no cover - signals an internal inconsistency
        raise NotInSpan("Frobenius image outside the torsion span") from exc
    det = (a * d - b * c) % n
    if det != q % n:
        raise InternalError(f"Frobenius determinant {det} differs from q mod {n} = {q % n}")
    return ((a, c), (b, d))


# ---------------------------------------------------------------------------
# Weil pairing

def weil_pairing(P: CurvePoint, Q: CurvePoint, n: int) -> FieldElement:
    """Weil pairing e_n(P, Q), an n-th root of unity in the points' field.

    The pairing is alternating, so it is 1 when one point is a multiple of
    the other (O and P = Q included). Otherwise Miller's formula gives
    e_n(P, Q) = (-1)^n f_P(Q) / f_Q(P), with f_T the normalized function of
    divisor n(T) - n(O) (V. S. Miller, J. Cryptology 17, 2004).
    """
    if P.ctx != Q.ctx:
        raise FieldMismatch("pairing arguments on different curves or fields")
    span_P, span_Q = _multiple_keys(P, n), _multiple_keys(Q, n)
    if span_P is None or span_Q is None:
        raise NotTorsion(f"arguments are not {n}-torsion points")
    F = P.ctx.base
    if Q.key() in span_P or P.key() in span_Q:
        return F.one
    f_PQ, f_QP = _miller(P, Q, n), _miller(Q, P, n)
    if f_PQ is None or f_QP is None:
        raise InternalError(f"Miller evaluation of independent points {P!r}, {Q!r} met a zero or pole")
    result = f_PQ / f_QP * (-1) ** n
    if result**n != F.one:
        raise InternalError(f"Weil pairing value {result!r} is not an {n}-th root of unity")
    return result


def _multiple_keys(P: CurvePoint, n: int):
    """Keys of the multiples iP, 0 <= i < n, or None unless nP = O."""
    keys = set()
    T = P.ctx.infinity()
    for _ in range(n):
        keys.add(T.key())
        T = point_add(T, P)
    return keys if T.is_infinity else None


def _miller(P: CurvePoint, S: CurvePoint, n: int):
    """f_{n,P}(S) with divisor n(P) - n(O), for S outside <P>; None when an
    evaluation meets a zero or a pole.

    For n in TORSION_LEVELS and nP = O no multiple of P reached before the
    last step is O, so every line joins two affine points.
    """
    f = P.ctx.base.one
    V = P
    for bit in bin(n)[3:]:
        val, V = _line_quotient(V, V, S)
        if val is None:
            return None
        f = f * f * val
        if bit == "1":
            val, V = _line_quotient(V, P, S)
            if val is None:
                return None
            f = f * val
    return f


def _line_quotient(A: CurvePoint, B: CurvePoint, S: CurvePoint):
    """(value at S of line(A,B) / vertical(A+B), A + B) for affine A, B, by
    ``_chord``; the value is None on a zero or pole."""
    lam, C = _chord(A, B)
    if lam is None:  # vertical line; A + B = O has no vertical denominator
        num, den = S.x - A.x, A.ctx.base.one
    else:
        num, den = (S.y - A.y) - lam * (S.x - A.x), S.x - C.x
    return (None if num.is_zero() or den.is_zero() else num / den), C


# ---------------------------------------------------------------------------
# isomorphism classes over GF(p) (used by search)

def class_key(a: int, b: int, p: int) -> tuple:
    """Complete invariant of the GF(p)-isomorphism class of the nonsingular
    curve (a, b), p >= 5, a and b in [0, p).

    The classes are the orbits (a, b) ~ (u^4 a, u^6 b), u in F_p^*. For
    ab != 0 the orbit is fixed by a^3/b^2 and the square class of b/a
    (u^2 = (b'/a')/(b/a) then gives a' = u^4 a); for a = 0 (b = 0) it is the
    coset of b (a) modulo sixth (fourth) powers, read off as a power map.
    """
    if a == 0:
        return (0, pow(b, (p - 1) // gcd(6, p - 1), p))
    if b == 0:
        return (1, pow(a, (p - 1) // gcd(4, p - 1), p))
    return (2, a * a * a * pow(b, -2, p) % p, pow(a * b, (p - 1) // 2, p))  # (ab | p) = (b/a | p)


# ---------------------------------------------------------------------------
# rational torsion structure (used by classification and search)

@lru_cache(maxsize=4096)
def _rational_rank_cached(curve: Curve, ell: int) -> int:
    """Rank of E(F_q)[ell] from its point count, without finding any root.

    g = gcd(X^q - X, psi_ell) vanishes exactly at the rational x-coordinates
    of E[ell] - {O}; such an x carries two rational points iff rhs(x) is a
    nonzero square, i.e. a root of rhs^((q-1)/2) - 1. So the count is
    1 + 2 * deg gcd(g, rhs^((q-1)/2) - 1 mod g).
    """
    F = curve.base
    psi = _division_raw(curve, ell)
    x = [F.zero_raw, F.one_raw]
    g = ff.poly_gcd(F, ff.poly_sub(F, ff.poly_powmod(F, x, F.order, psi), x), psi)
    count = 1
    if len(g) > 1:
        rhs = [curve.b.coeffs, curve.a.coeffs, F.zero_raw, F.one_raw]
        s = ff.poly_sub(F, ff.poly_powmod(F, rhs, (F.order - 1) // 2, g), [F.one_raw])
        count += 2 * (len(ff.poly_gcd(F, s, g)) - 1)
    if count == 1:
        return 0
    if count == ell:
        return 1
    if count != ell * ell:
        raise InternalError(f"E(F_q)[{ell}] has {count} points, not a power of {ell}")
    return 2


def rational_torsion_rank(curve: Curve, ell: int) -> int:
    """Rank r in {0,1,2} of E(F_q)[ell] (the Frobenius-fixed points of E[ell])."""
    check_level(ell, curve.base.p)
    return _rational_rank_cached(curve, ell)
