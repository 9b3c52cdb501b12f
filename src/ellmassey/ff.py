"""Exact arithmetic in GF(p) and its extensions GF(p^k), plus root finding.

Extension fields are realized in a polynomial basis: GF(p^k) = GF(p)[X]/(m)
with m the lexicographically smallest monic irreducible of degree k (high
coefficients compared first), so element encodings are identical across runs.
An element is a tuple of k residues (c0, ..., c_{k-1}), each in [0, p),
meaning c0 + c1*X + ... + c_{k-1}*X^{k-1}; tuples are also the canonical sort
key. Raw operations assume residues in [0, p); ``ExtField.element`` reduces.
The scan for m decides the binomials X^k + c by the binomial theorem, one
modular power per prime divisor of k, and every later candidate by Ben-Or's
test, which stops at the first Frobenius step that finds a factor.

Polynomials over GF(p^k) are multiplied by Kronecker substitution (von zur
Gathen and Gerhard, Modern Computer Algebra, 8.4): coefficient i, X-power j
of a polynomial goes at bit (i*(2k-1)+j)*w of one integer, a single integer
product gives every coefficient of the product in its slot, and X^k..X^(2k-2)
are folded back mod the field modulus when the slots are read. A slot of w
bits must hold its whole sum, at most (m+1)*k*(p-1)^2 for factors with m
coefficients, fold included, so w is that bound's bit length; ``poly_powmod``
keeps its operands packed and reduces by precomputed packed rows. Element
products in GF(p^k), k > 1, share the layout as one-coefficient polynomials.

Polynomials over GF(p) itself have one implementation, the ``_ip_*``
helpers on int lists: field construction uses them, and ``poly_powmod``,
``poly_gcd`` and ``poly_divmod`` over a field with k = 1 hand them their
1-tuples and convert back. ``_ip_powmod`` packs coefficient i at byte i*w
of one integer, w bytes wide: 1, 2, 4 or 8 when one of those holds the
largest slot sum, so one ``int.to_bytes`` and one little-endian
``struct.unpack`` read every slot, else the exact width, read by byte
slices. One ``% p`` comprehension reduces the slots, and Barrett
reduction by one precomputed quotient keeps set-up cheap for Ben-Or's
short exponents. Extension fields stay on the w-bit layout above: there a
slot's fold by the field modulus comes before its ``% p``, and a
byte-aligned kernel for k > 1 ran at 0.24-1.04 times its speed.

Root finding takes gcd(X^q - X, f) and splits it with Cantor-Zassenhaus
equal-degree splitting; ``one_root`` keeps only the smaller part of each
split of a polynomial known to split. Like factoring and square roots it
needs odd characteristic. Every Las Vegas routine here draws from its own
``random.Random(DEFAULT_SEED)`` stream, and every result is canonical (roots
and factors sorted, the smaller square root), so the stream only decides how
long a call takes, never what it returns. The one exception is which root
``one_root`` returns; its caller in ``ec`` builds all of E[n] by the group
law from the points it draws and reads its basis off their coordinates,
which is canonical again. ``distinct_degree_factors`` yields its stages one
at a time, so a caller can stop once the stages seen answer it.
"""

from __future__ import annotations

import itertools
import random
import struct
from functools import lru_cache

from . import DEFAULT_SEED
from .errors import (
    DegreeTooLarge,
    FieldMismatch,
    FieldTooLarge,
    InternalError,
    NotPrime,
    UnsupportedField,
    ZeroPolynomial,
)

MAX_EXT_DEGREE = 96
MAX_FIELD_ORDER = 2**380
MAX_ROOT_DEGREE = 200

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13 (OEIS A014233): the least strong pseudoprime to all 13 bases above
PRIME_CERTIFIED_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin on the first 13 primes: deterministic for
    n < PRIME_CERTIFIED_BOUND, which is itself accepted."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# polynomials over GF(p) represented as lists of ints (ascending degree)

def _ip_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _ip_mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _ip_trim(out)


def _ip_sub(f, g, p):
    return _ip_trim([(a - b) % p for a, b in itertools.zip_longest(f, g, fillvalue=0)])


def _ip_divmod(f, g, p):
    """(q, r) with f = q*g + r and deg r < deg g (g nonzero, any leading coefficient)."""
    r, low = _ip_trim(list(f)), g[:-1]
    inv_lc = pow(g[-1], p - 2, p)
    q = [0] * max(0, len(r) - len(low))
    while len(r) > len(low):
        c = r.pop() * inv_lc % p  # the top term cancels exactly
        shift = len(r) - len(low)
        q[shift] = c
        for i, b in enumerate(low, shift):
            r[i] = (r[i] - c * b) % p
        _ip_trim(r)
    return _ip_trim(q), r


def _ip_rem(f, g, p):
    return _ip_divmod(f, g, p)[1]


def _ip_elem(f, k):
    """The k-tuple of a polynomial of degree below k."""
    return tuple(f) + (0,) * (k - len(f))


def _ip_gcd(f, g, p):
    f, g = _ip_trim(list(f)), _ip_trim(list(g))
    while g:
        f, g = g, _ip_rem(f, g, p)
    if f:
        inv_lc = pow(f[-1], p - 2, p)
        f = [c * inv_lc % p for c in f]
    return f


# struct's little-endian code of each slot width in bytes; a slot of another
# width is read by byte slices
_SLOT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _ip_slot_bytes(n: int, p: int) -> int:
    """Bytes per slot of ``_ip_powmod`` modulo a degree-n polynomial over
    GF(p): room for a sum of n(n - 1) products of three residues or of
    2n - 1 products of two, rounded up to a width ``struct`` reads where
    one fits."""
    bound = max(n * (n - 1) * (p - 1) ** 3, (2 * n - 1) * (p - 1) ** 2)
    w = (bound.bit_length() + 7) // 8
    return next((s for s in _SLOT_CODES if s >= w), w)


def _ip_pack(f, w: int) -> int:
    """Coefficients f (each below 2^(8w)) as one integer, coefficient i at byte i*w."""
    code = _SLOT_CODES.get(w)
    if code is None:
        return int.from_bytes(b"".join([c.to_bytes(w, "little") for c in f]), "little")
    return int.from_bytes(struct.pack(f"<{len(f)}{code}", *f), "little")


def _ip_unpack(x: int, count: int, w: int, p: int) -> list:
    """The ``count`` slots of x (x below 2^(8*w*count)), each reduced mod p."""
    data = x.to_bytes(count * w, "little")
    code = _SLOT_CODES.get(w)
    if code is None:
        return [int.from_bytes(data[i:i + w], "little") % p for i in range(0, len(data), w)]
    return [v % p for v in struct.unpack(f"<{count}{code}", data)]


def _ip_powmod(base, e: int, modulus, p):
    """base^e mod modulus (any nonzero leading coefficient), square-and-multiply
    on packed integers.

    With n = deg modulus, made monic, every product z of two reduced
    polynomials is reduced by Barrett's method, exact over a field: with
    mu = X^(2n-1) div modulus precomputed, the quotient is the top n - 1
    coefficients of (z div X^n) * mu, and z - quotient * modulus keeps only
    the low n. So a step costs three integer products and reads 2n - 1 slots.
    """
    if not modulus:
        raise ZeroDivisionError("polynomial division by zero")
    n = len(modulus) - 1
    inv_lc = pow(modulus[-1], p - 2, p)
    monic = [c * inv_lc % p for c in modulus]
    base = _ip_rem(base, monic, p) if len(base) > n else _ip_trim(list(base))
    if not e:
        return [1]
    if not base:
        return []
    mu = _ip_divmod([0] * (2 * n - 1) + [1], monic, p)[0]
    w = _ip_slot_bytes(n, p)
    mu, neg = _ip_pack(mu, w), _ip_pack([-c % p for c in monic[:-1]], w)
    hi, lo, low = 8 * w * n, 8 * w * (n - 1), (1 << 8 * w * n) - 1

    def mulmod(a, b):
        z = a * b
        q = _ip_pack(_ip_unpack((z >> hi) * mu >> lo, n - 1, w, p), w)
        return _ip_pack(_ip_unpack((z & low) + q * neg & low, n, w, p), w)

    x = acc = _ip_pack(base, w)
    for bit in bin(e)[3:]:
        acc = mulmod(acc, acc)
        if bit == "1":
            acc = mulmod(acc, x)
    return _ip_trim(_ip_unpack(acc, n, w, p))


def _ip_ben_or(f, p):
    """Ben-Or: f of degree k is irreducible iff gcd(X^(p^i) - X, f) = 1 for i <= k/2."""
    h = [0, 1]
    for _ in range((len(f) - 1) // 2):
        h = _ip_powmod(h, p, f, p)
        if len(_ip_gcd(_ip_sub(h, [0, 1], p), f, p)) != 1:
            return False
    return True


def _binomial_irreducible(c: int, k: int, p: int) -> bool:
    """Whether X^k + c (k >= 2) is irreducible over GF(p), by Lidl and
    Niederreiter, Finite Fields, Thm 3.75: X^k - a is irreducible iff each
    prime r | k divides ord(a) but not (p-1)/ord(a), i.e. r | p - 1 and
    a^((p-1)/r) != 1, and p = 1 (mod 4) if 4 | k.
    """
    a = -c % p
    if a == 0 or (k % 4 == 0 and p % 4 != 1):
        return False
    return all((p - 1) % r == 0 and pow(a, (p - 1) // r, p) != 1 for r in _prime_divisors(k))


def _prime_divisors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# extension fields

class ExtField:
    """GF(p^k) in the polynomial basis given by ``modulus``.

    Raw element operations (``radd``, ``rmul``, ...) act on plain coefficient
    tuples; ``FieldElement`` wraps them for operator syntax. Instances are
    immutable and safe to share; ``make_field`` builds the one instance of
    each GF(p^k), so fields are compared by identity.
    """

    __slots__ = ("p", "k", "modulus", "order", "zero_raw", "one_raw", "_red_rows", "_kron")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.modulus = modulus  # length k+1, ascending, monic
        self.order = p**k
        self.zero_raw = (0,) * k
        self.one_raw = (1,) + (0,) * (k - 1)
        # X^(k+i) mod modulus for i = 0..k-2, which fold product tails back
        self._red_rows = tuple(
            _ip_elem(_ip_rem([0] * (k + i) + [1], modulus, p), k) for i in range(k - 1)
        )
        # the element-product layout, held here: a cache lookup per rmul
        # would cost about as much as the product itself
        self._kron = _layout(self, 2)

    # -- raw tuple arithmetic -------------------------------------------------

    def radd(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def rsub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def rneg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def rmul(self, a, b):
        if self.k == 1:
            return ((a[0] * b[0]) % self.p,)
        L = self._kron
        return L.unpack(L.pack_elem(a) * L.pack_elem(b), 1)[0]

    def rinv(self, a):
        p, k = self.p, self.k
        if k == 1:
            if a[0] == 0:
                raise ZeroDivisionError("inverse of zero field element")
            return (pow(a[0], p - 2, p),)
        # extended Euclid in GF(p)[X] against the modulus
        r0, r1 = list(self.modulus), _ip_trim(list(a))
        if not r1:
            raise ZeroDivisionError("inverse of zero field element")
        t0, t1 = [], [1]
        while len(r1) > 1:
            q, r = _ip_divmod(r0, r1, p)
            r0, r1 = r1, r
            t0, t1 = t1, _ip_sub(t0, _ip_mul(q, t1, p), p)
        if not r1:
            raise ZeroDivisionError("element not invertible")
        c = pow(r1[0], p - 2, p)
        return _ip_elem([x * c % p for x in t1], k)

    def rpow(self, a, e: int):
        """a^e by square-and-multiply, the base kept packed between steps."""
        if e < 0:
            return self.rpow(self.rinv(a), -e)
        if self.k == 1:
            return (pow(a[0], e, self.p),)
        L = self._kron
        x, acc = L.pack_elem(a), None
        while e:
            if e & 1:
                acc = x if acc is None else L.pack_elem(L.unpack(acc * x, 1)[0])
            e >>= 1
            if e:
                x = L.pack_elem(L.unpack(x * x, 1)[0])
        return self.one_raw if acc is None else L.unpack(acc, 1)[0]

    # -- public element interface ----------------------------------------------

    def element(self, coeffs) -> "FieldElement":
        if isinstance(coeffs, FieldElement):
            if coeffs.field is not self:
                raise FieldMismatch("element belongs to a different field")
            return coeffs
        if isinstance(coeffs, int):
            coeffs = (coeffs,) + (0,) * (self.k - 1)
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) != self.k:
            raise FieldMismatch(f"expected {self.k} coefficients, got {len(coeffs)}")
        return FieldElement(self, coeffs)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, self.zero_raw)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, self.one_raw)

    def elements(self):
        """All field elements in canonical (coefficient tuple) order."""
        for coeffs in itertools.product(range(self.p), repeat=self.k):
            yield FieldElement(self, coeffs)

    def __repr__(self):
        return f"ExtField(p={self.p}, k={self.k})"


class FieldElement:
    """Immutable element of an ExtField; coefficient tuple is the sort key."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: ExtField, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise FieldMismatch("elements of different fields")
            return other
        if isinstance(other, int):
            return self.field.element(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return FieldElement(self.field, self.field.radd(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return FieldElement(self.field, self.field.rsub(self.coeffs, o.coeffs))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return FieldElement(self.field, self.field.rmul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return FieldElement(self.field, self.field.rmul(self.coeffs, self.field.rinv(o.coeffs)))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.rpow(self.coeffs, e))

    def __neg__(self):
        return FieldElement(self.field, self.field.rneg(self.coeffs))

    def inverse(self):
        return FieldElement(self.field, self.field.rinv(self.coeffs))

    def is_zero(self) -> bool:
        return self.coeffs == self.field.zero_raw

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.element(other)
        return (
            isinstance(other, FieldElement)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.coeffs))

    def __lt__(self, other):
        o = self._coerce(other)
        return self.coeffs < o.coeffs

    def __le__(self, other):
        o = self._coerce(other)
        return self.coeffs <= o.coeffs

    def __repr__(self):
        if self.field.k == 1:
            return f"{self.coeffs[0]}"
        return f"FieldElement{self.coeffs}"


def field_size_refusal(p: int, k: int) -> str | None:
    """``make_field``'s refusal text for GF(p^k) when its degree or order
    breaks a cap (MAX_EXT_DEGREE, MAX_FIELD_ORDER), else None: the one
    statement of the field-size rule."""
    if k < 1 or k > MAX_EXT_DEGREE:
        return f"extension degree {k} outside 1..{MAX_EXT_DEGREE}"
    if p**k > MAX_FIELD_ORDER:
        return f"GF({p}^{k}) has more than 2^380 elements; larger fields are unsupported"
    return None


@lru_cache(maxsize=None)
def make_field(p: int, k: int) -> ExtField:
    """GF(p^k) with the lexicographically smallest monic irreducible modulus.

    Candidates X^k + c_{k-1} X^{k-1} + ... + c_0 are scanned in increasing
    order of the integer sum(c_i p^i), i.e. high coefficients compared first;
    the first irreducible wins, so the modulus is stable across runs.
    The binomials X^k + c come first and are decided by the binomial theorem,
    the rest by Ben-Or's test; both are exact, so the same candidate wins.
    When that theorem rules out every binomial at once, none is tested.
    For k = 1 the modulus is X itself. p must lie below
    PRIME_CERTIFIED_BOUND, where ``is_prime`` is a proof. The cache is
    unbounded and nothing else constructs an ExtField, so each (p, k) has one
    field object.
    """
    if p >= PRIME_CERTIFIED_BOUND:
        raise FieldTooLarge(
            f"characteristic must be below {PRIME_CERTIFIED_BOUND}, the bound of certified primality"
        )
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    refusal = field_size_refusal(p, k)
    if refusal:
        raise DegreeTooLarge(refusal)
    if k == 1:
        return ExtField(p, 1, (0, 1))
    # by the theorem _binomial_irreducible cites, no X^k + c is irreducible
    # unless every prime r | k divides p - 1, and p = 1 (mod 4) if 4 | k
    if (k % 4 or p % 4 == 1) and all((p - 1) % r == 0 for r in _prime_divisors(k)):
        for c in range(p):
            if _binomial_irreducible(c, k, p):
                return ExtField(p, k, (c,) + (0,) * (k - 1) + (1,))
    for m in range(p, p**k):
        candidate = [m // p**i % p for i in range(k)] + [1]
        if _ip_ben_or(candidate, p):
            return ExtField(p, k, tuple(candidate))
    raise InternalError(f"no irreducible polynomial of degree {k} over GF({p})")  # unreachable


def frobenius_power(x: FieldElement) -> FieldElement:
    """x^p, the arithmetic Frobenius; applying it k times gives x back."""
    return FieldElement(x.field, x.field.rpow(x.coeffs, x.field.p))


# ---------------------------------------------------------------------------
# polynomials over an ExtField, raw coefficient-tuple lists (ascending degree)

def poly_trim(F: ExtField, f: list) -> list:
    while f and f[-1] == F.zero_raw:
        f.pop()
    return f


def poly_sub(F, f, g):
    out = []
    for a, b in itertools.zip_longest(f, g, fillvalue=F.zero_raw):
        out.append(F.rsub(a, b))
    return poly_trim(F, out)


def poly_scale(F, f, c):
    return poly_trim(F, [F.rmul(a, c) for a in f])


class _Layout:
    """Kronecker packing of polynomials over F into integers with w-bit slots.

    Coefficient i, X-power j sits at bit (i*(2k-1)+j)*w, so the integer
    product of two packed polynomials is their packed product, X-powers up
    to 2k-2 not yet reduced. ``unpack`` folds slot X^(k+i), reduced mod p,
    back in as that multiple of the packed ``F._red_rows[i]`` and then
    reduces every slot mod p.
    """

    __slots__ = ("p", "k", "w", "stride", "mask", "shifts", "rows")

    def __init__(self, F: ExtField, w: int):
        self.p, self.k, self.w = F.p, F.k, w
        self.stride = (2 * F.k - 1) * w
        self.mask = (1 << w) - 1
        self.shifts = range(0, F.k * w, w)
        self.rows = tuple(self.pack_elem(row) for row in F._red_rows)

    def pack_elem(self, c) -> int:
        w, x = self.w, 0
        for v in reversed(c):
            x = (x << w) | v
        return x

    def pack(self, f) -> int:
        stride, acc = self.stride, 0
        for c in reversed(f):
            acc = (acc << stride) | self.pack_elem(c)
        return acc

    def unpack(self, x: int, count: int) -> list:
        """The first ``count`` coefficients packed in x, as reduced elements."""
        p, w, mask, shifts, rows = self.p, self.w, self.mask, self.shifts, self.rows
        stride, kw = self.stride, self.k * w
        cmask, kmask = (1 << stride) - 1, (1 << kw) - 1
        out = []
        for _ in range(count):
            c = x & cmask
            x >>= stride
            lo, hi = c & kmask, c >> kw
            for row in rows:
                t = (hi & mask) % p
                if t:
                    lo += t * row
                hi >>= w
            out.append(tuple([((lo >> s) & mask) % p for s in shifts]))
        return out


@lru_cache(maxsize=None)
def _layout(F: ExtField, terms: int) -> _Layout:
    """The layout whose slots hold any sum of ``terms * k`` residue products.

    A product of polynomials with at most m coefficients each puts at most
    m*k such products in a slot and the fold at most k - 1 more, so m + 1
    terms never carry into the next slot.
    """
    return _Layout(F, (terms * F.k * (F.p - 1) ** 2).bit_length())


def poly_mul(F, f, g):
    """f * g by Kronecker substitution: one integer product of the packed operands."""
    if not f or not g:
        return []
    L = _layout(F, min(len(f), len(g)) + 1)
    return poly_trim(F, L.unpack(L.pack(f) * L.pack(g), len(f) + len(g) - 1))


def poly_divmod(F, f, g):
    if g and g[-1] == F.zero_raw:
        g = poly_trim(F, list(g))
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if F.k == 1:
        q, r = _ip_divmod([c for c, in f], [c for c, in g], F.p)
        return [(c,) for c in q], [(c,) for c in r]
    f = poly_trim(F, list(f))
    dg = len(g) - 1
    inv_lc = F.rinv(g[-1])
    q = [F.zero_raw] * max(0, len(f) - dg)
    while f and len(f) - 1 >= dg:
        c = F.rmul(f[-1], inv_lc)
        shift = len(f) - 1 - dg
        q[shift] = c
        for i, b in enumerate(g):
            f[shift + i] = F.rsub(f[shift + i], F.rmul(c, b))
        poly_trim(F, f)
    return poly_trim(F, q), f


def poly_rem(F, f, g):
    return poly_divmod(F, f, g)[1]


def poly_monic(F, f):
    if not f:
        return f
    return poly_scale(F, f, F.rinv(f[-1]))


def poly_gcd(F, f, g):
    if F.k == 1:
        return [(c,) for c in _ip_gcd([c for c, in f], [c for c, in g], F.p)]
    f, g = poly_trim(F, list(f)), poly_trim(F, list(g))
    while g:
        f, g = g, poly_rem(F, f, g)
    return poly_monic(F, f)


def poly_powmod(F, base, e: int, modulus):
    """base^e mod modulus (any leading coefficient), on packed integers.

    With n = deg modulus, the packed rows R_i = Y^(n+i) mod modulus are
    computed once; a product h of two reduced polynomials is then reduced as
    its packed low half plus the sum of h_(n+i) * R_i, one unpack per step.
    A slot of that sum holds at most (2n-1)k residue products, k - 1 more
    after the fold. Over GF(p) itself the work goes to ``_ip_powmod``.
    """
    if modulus and modulus[-1] == F.zero_raw:
        modulus = poly_trim(F, list(modulus))
    if not modulus:
        raise ZeroDivisionError("polynomial division by zero")
    if F.k == 1:
        return [(c,) for c in _ip_powmod([c for c, in base], e, [c for c, in modulus], F.p)]
    base = poly_rem(F, base, modulus) if len(base) >= len(modulus) else poly_trim(F, list(base))
    n = len(modulus) - 1
    L = _layout(F, 2 * n + 1)
    top = n * L.stride
    low = (1 << top) - 1

    def reduce(x):
        acc = x & low
        for h, row in zip(L.unpack(x >> top, n - 1), rows):
            acc += L.pack_elem(h) * row
        return L.pack(L.unpack(acc, n))

    neg_low = L.pack([F.rneg(c) for c in modulus[:-1]]) * L.pack_elem(F.rinv(modulus[-1]))
    rows = [L.pack(L.unpack(neg_low, n))]
    while len(rows) < n - 1:
        rows.append(reduce(rows[-1] << L.stride))
    x, acc = L.pack(base), None
    while e:
        if e & 1:
            acc = x if acc is None else reduce(acc * x)
        e >>= 1
        if e:
            x = reduce(x * x)
    return [F.one_raw] if acc is None else poly_trim(F, L.unpack(acc, n))


def poly_deriv(F, f):
    p = F.p
    return poly_trim(F, [tuple(i * c % p for c in f[i]) for i in range(1, len(f))])


# ---------------------------------------------------------------------------
# root finding

def roots_in_field(f, F: ExtField) -> list[FieldElement]:
    """All roots of f lying in F, multiplicity one each, canonically sorted.

    ``f`` is a polynomial with integer or F-element coefficients, ascending
    degree. The roots are the linear factors of gcd(X^|F| - X, f), split
    apart by equal-degree splitting. Characteristic 2 raises UnsupportedField.
    """
    if F.p == 2:
        raise UnsupportedField("root finding in characteristic 2 is unsupported")
    raw = _raw_poly(f, F)
    if not raw:
        raise ZeroPolynomial("root finding needs a nonzero polynomial")
    if len(raw) - 1 > MAX_ROOT_DEGREE:
        raise DegreeTooLarge(f"degree {len(raw) - 1} exceeds {MAX_ROOT_DEGREE}")
    roots = _raw_roots(F, raw)
    return sorted(FieldElement(F, r) for r in roots)


def _raw_poly(f, F: ExtField) -> list:
    raw = []
    for c in f:
        if isinstance(c, FieldElement):
            if c.field is not F:
                raise FieldMismatch("coefficient from a different field")
            raw.append(c.coeffs)
        else:
            raw.append(F.element(c if isinstance(c, int) else tuple(int(v) for v in c)).coeffs)
    return poly_trim(F, raw)


def _raw_roots(F: ExtField, raw) -> list:
    if len(raw) == 1:
        return []
    x = [F.zero_raw, F.one_raw]
    g = poly_gcd(F, poly_sub(F, poly_powmod(F, x, F.order, raw), x), raw)
    if len(g) == 1:
        return []  # no root; splitting a constant would never return
    linear: list = []
    _equal_degree_split(F, g, 1, random.Random(DEFAULT_SEED), linear)
    return [F.rneg(h[0]) for h in linear]  # each part is monic X + c


def factor_monic_squarefree(F: ExtField, f) -> list:
    """Irreducible factors of a monic squarefree polynomial over F.

    Distinct-degree factorization followed by equal-degree splitting
    (odd characteristic). Returns (degree, factor) pairs sorted by degree and
    then by coefficient tuples, so the order is reproducible.
    """
    return equal_degree_factors(F, distinct_degree_factors(F, f))


def distinct_degree_factors(F: ExtField, f):
    """(d, product of the degree-d irreducible factors) of a squarefree f,
    made monic, for each degree d that occurs, in increasing order.

    A generator: each stage is found when the one before it has been taken,
    so a caller can stop as soon as the stages seen so far answer it."""
    if F.p == 2:
        raise UnsupportedField("factorization in characteristic 2 is unsupported")
    f = poly_monic(F, list(f))
    if len(poly_gcd(F, f, poly_deriv(F, f))) != 1:
        raise ZeroPolynomial("factor_monic_squarefree needs a squarefree polynomial")
    x = [F.zero_raw, F.one_raw]
    h = list(x)
    d = 0
    rest = f
    while len(rest) - 1 >= 2 * (d + 1):
        d += 1
        h = poly_powmod(F, h, F.order, rest)
        g = poly_gcd(F, poly_sub(F, h, x), rest)
        if len(g) > 1:
            yield d, g
            rest = poly_divmod(F, rest, g)[0]
            h = poly_rem(F, h, rest) if len(rest) > 1 else [F.zero_raw]
    if len(rest) > 1:
        yield len(rest) - 1, rest


def equal_degree_factors(F: ExtField, stages) -> list:
    """The irreducible factors of ``distinct_degree_factors``' stages, as
    ``factor_monic_squarefree`` returns them."""
    rng = random.Random(DEFAULT_SEED)
    factors = []
    for d, g in stages:
        parts: list = []
        _equal_degree_split(F, g, d, rng, parts)
        factors.extend((d, part) for part in parts)
    factors.sort(key=lambda item: (item[0], [tuple(c) for c in item[1]]))
    return factors


def _equal_degree_split(F: ExtField, g, d: int, rng, out):
    """Split a product of distinct degree-d irreducibles (Cantor-Zassenhaus)."""
    if len(g) - 1 == d:
        out.append(g)
        return
    h = _split_off(F, g, d, rng)
    _equal_degree_split(F, h, d, rng, out)
    _equal_degree_split(F, poly_divmod(F, g, h)[0], d, rng, out)


def _split_off(F: ExtField, g, d: int, rng):
    """A proper monic factor of g, a product of at least two distinct monic
    degree-d irreducibles: gcd(r^((|F|^d - 1)/2) - 1, g) for random r until
    one is proper."""
    half = (F.order**d - 1) // 2
    while True:
        r = poly_trim(F, [tuple(rng.randrange(F.p) for _ in range(F.k)) for _ in range(len(g) - 1)])
        if len(r) <= 1:
            continue
        s = poly_sub(F, poly_powmod(F, r, half, g), [F.one_raw])
        h = poly_gcd(F, s, g)
        if 0 < len(h) - 1 < len(g) - 1:
            return h


def one_root(F: ExtField, g):
    """One root, as a raw tuple, of a monic g that is a product of distinct
    linear factors over F. Each split keeps only its smaller part, so this
    costs about what finding one factor does; if g does not split over F the
    search never ends, so callers check that it does."""
    rng = random.Random(DEFAULT_SEED)
    while len(g) > 2:
        h = _split_off(F, g, 1, rng)
        rest = poly_divmod(F, g, h)[0]
        g = h if len(h) <= len(rest) else rest
    return F.rneg(g[0])


def sqrt_in_field(c: FieldElement) -> FieldElement | None:
    """Canonically smaller square root of c in its field, or None.

    Tonelli-Shanks over the cyclic group F*, with q - 1 = t * 2^s, t odd: one
    exponentiation x = c^((t-1)/2) gives u = x^2 c = c^t and r = x c. c is a
    square iff u^(2^(s-1)) = 1, i.e. iff the order of u is below 2^s, which
    the first round of the loop finds. Odd characteristic only.
    """
    F = c.field
    if F.p == 2:
        raise UnsupportedField("square roots in characteristic 2 are unsupported")
    if c.is_zero():
        return F.zero
    t, s = _odd_part(F.order - 1)
    x = F.rpow(c.coeffs, (t - 1) // 2)
    u = F.rmul(F.rmul(x, x), c.coeffs)
    r = F.rmul(x, c.coeffs)
    m, cc = s, _nonresidue_power(F)
    while u != F.one_raw:
        # find least i with u^{2^i} = 1
        i, v = 0, u
        while v != F.one_raw:
            v = F.rmul(v, v)
            i += 1
        if i == m:
            return None  # only in the first round: u^(2^(s-1)) != 1
        b = F.rpow(cc, 1 << (m - i - 1))
        m, cc = i, F.rmul(b, b)
        u = F.rmul(u, cc)
        r = F.rmul(r, b)
    root = FieldElement(F, r)
    other = -root
    return root if root.coeffs <= other.coeffs else other


def _odd_part(n: int) -> tuple[int, int]:
    """(t, s) with n = t * 2^s and t odd (n > 0)."""
    s = (n & -n).bit_length() - 1
    return n >> s, s


@lru_cache(maxsize=None)
def _nonresidue_power(F: ExtField):
    """z^t for the first quadratic non-residue z that F's seeded stream draws."""
    t, _ = _odd_part(F.order - 1)
    half = (F.order - 1) // 2
    rng = random.Random(DEFAULT_SEED)
    while True:
        z = tuple(rng.randrange(F.p) for _ in range(F.k))
        if z != F.zero_raw and F.rpow(z, half) != F.one_raw:
            return F.rpow(z, t)


# ---------------------------------------------------------------------------
# embeddings between canonical fields

class Embedding:
    """Ring embedding GF(p^k0) -> GF(p^k), determined by a root of the small
    field's modulus in the big field: X when the fields are equal, else the
    smallest root."""

    __slots__ = ("src", "dst", "_powers")

    def __init__(self, src: ExtField, dst: ExtField, root_raw):
        self.src = src
        self.dst = dst
        powers = [dst.one_raw]
        for _ in range(src.k - 1):
            powers.append(dst.rmul(powers[-1], root_raw))
        self._powers = powers

    def __call__(self, x: FieldElement) -> FieldElement:
        if x.field is not self.src:
            raise FieldMismatch("element not in the embedding's source field")
        return FieldElement(self.dst, self.raw(x.coeffs))

    def raw(self, coeffs) -> tuple:
        acc = self.dst.zero_raw
        for c, pw in zip(coeffs, self._powers):
            if c:
                acc = self.dst.radd(acc, tuple((c * v) % self.dst.p for v in pw))
        return acc


@lru_cache(maxsize=None)
def embed_field(src: ExtField, dst: ExtField) -> Embedding:
    """Canonical embedding GF(p^k0) into GF(p^k) (requires k0 | k); the
    identity when the fields are equal."""
    if src.p != dst.p:
        raise FieldMismatch("different characteristics")
    if dst.k % src.k != 0:
        raise FieldMismatch(f"GF({src.p}^{src.k}) does not embed in GF({dst.p}^{dst.k})")
    if src.k == 1:
        return Embedding(src, dst, dst.zero_raw)
    if src is dst:
        return Embedding(src, dst, (0, 1) + (0,) * (dst.k - 2))
    roots = roots_in_field(list(src.modulus), dst)
    if not roots:
        raise FieldMismatch("modulus has no root in the target field")  # k0 | k rules this out
    return Embedding(src, dst, roots[0].coeffs)
