"""Closed-form triple Massey verdicts and the abstract Galois checkers.

The dispatch follows the Frobenius-case split of the underlying group:

  no_fixed_points  every nonempty product contains zero (all characters come
                   from the base field, whose H^2 with Z/l coefficients is 0)
  split_line       cup products vanish exactly on proportional pairs; every
                   nonempty product contains zero (an explicit lift exists)
  unipotent_line   cups always vanish; contains zero iff two residue
                   conditions in the character values hold, with the constant
                   c from the normalized basis
  full_torsion     cups vanish exactly on proportional pairs; for l = 3 a
                   nonzero proportional triple with nonzero torsion
                   restriction reduces to a single character chi, which
                   fails to lift exactly when Frobenius xi moves an order-9
                   torsion vector a of ker(chi) off its line, that is when
                   det(a, xi a) is nonzero mod 9

Every NonVanishing verdict carries a concrete witness (the moved vector, or
the nonzero condition residues).

Every matrix that the kernel-line questions (the l = 3 full-torsion verdict,
both Theorem 5.2 conditions) meet is I mod 3, so each is decided on one
vector, the lexicographically first order-9 vector a of ker(chi):

  (1) For a of order 9, w is in (Z/9)a iff det(a, w) = 0 mod 9 (a is part of
      a basis). For sigma = I + 3M, det(a, sigma a) = 3 det(a, Ma) depends
      only on a mod 3, which is +-a0 on ker(chi): sigma moves every order-9
      vector of ker(chi) off its line, or none.
  (2) For iota = I mod 3, (iota - 4)b = 3Nb depends only on b mod 3, so the
      b outside ker(chi) reduce to six residues, and by (1) (iota - 4)b
      meets one kernel line iff it meets them all.
  (3) In galois: the checkers' closure is the products of generator powers.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from enum import Enum
from functools import cache

from .errors import InternalError, WrongPrime
from .galois import (
    AbstractGaloisData,
    Character,
    GaloisCase,
    GbarGroup,
    character_values_valid,
    check_group,
    first_kernel_vector,
    mat_apply,
    mat_det,
    mat_sub,
    proportional,
)


class VerdictStatus(Enum):
    EMPTY = "Empty"
    CONTAINS_ZERO = "ContainsZero"
    NON_VANISHING = "NonVanishing"


class MasseyVerdict(namedtuple("MasseyVerdict", "status reason witness", defaults=(None,))):
    __slots__ = ()

    def to_json(self) -> dict:
        return {"status": self.status.value, "reason": self.reason, "witness": self.witness}


_CUP12_NONZERO = MasseyVerdict(VerdictStatus.EMPTY, "cup12-nonzero")
_CUP23_NONZERO = MasseyVerdict(VerdictStatus.EMPTY, "cup23-nonzero")
_BASE_FIELD = MasseyVerdict(VerdictStatus.CONTAINS_ZERO, "base-field-characters")
_SPLIT_LINE_LIFT = MasseyVerdict(VerdictStatus.CONTAINS_ZERO, "split-line-lift")
_SHORTER_THAN_EXPONENT = MasseyVerdict(VerdictStatus.CONTAINS_ZERO, "triple-shorter-than-exponent")
_ZERO_FACTOR = MasseyVerdict(VerdictStatus.CONTAINS_ZERO, "zero-factor")
_LINES_PRESERVED = MasseyVerdict(VerdictStatus.CONTAINS_ZERO, "kernel-lines-all-preserved")


def _cup_vanishes(chi1: Character, chi2: Character, case: GaloisCase) -> bool:
    if case is GaloisCase.NO_FIXED_POINTS or case is GaloisCase.UNIPOTENT_LINE:
        return True
    return proportional(chi1, chi2)


def cup_vanishes(chi1: Character, chi2: Character, g: GbarGroup) -> bool:
    """Whether the cup product of the two characters is zero.

    In the unipotent and no-fixed-points cases every cup vanishes; in the
    split and full-torsion cases it vanishes exactly when the full value
    vectors are proportional (in particular when either character is zero).
    """
    check_group(g, chi1, chi2)
    return _cup_vanishes(chi1, chi2, g.case)


def triple_verdict(chi1: Character, chi2: Character, chi3: Character, g: GbarGroup) -> MasseyVerdict:
    """Closed-form status of the triple Massey product of three characters."""
    check_group(g, chi1, chi2, chi3)
    r = _pair_datum(chi1, chi2, g)
    if r is None:
        return _CUP12_NONZERO
    t = _pair_datum(chi2, chi3, g)
    if t is None:
        return _CUP23_NONZERO
    return _defined_verdict(chi1, chi2, chi3, r, t, g)


def verdict_table(chars, g: GbarGroup):
    """``triple_verdict`` of every triple over ``chars`` as ``(kinds, codes)``:
    ``kinds`` lists the distinct verdict objects, and ``codes`` is a bytearray
    of n^3 indices into it, one per triple in
    ``itertools.product(chars, repeat=3)`` order.

    Each cup is a fact of its pair, so it is decided once per ordered pair
    (n^2 decisions for n characters, not up to 2n^3), and each ordered pair
    (chi1, chi2) yields its row of n codes at once: all cup12-nonzero, or
    the verdicts over chi3. Outside the unipotent case that row depends only
    on chi2 and on whether chi1 is zero, so it is built once per such key;
    in the unipotent case it is read off the l x l table of condition
    residues.
    """
    check_group(g, *chars)
    data = [[_pair_datum(a, b, g) for b in chars] for a in chars]
    n = len(chars)
    kinds = _Kinds()
    cup12_row = bytes((kinds.code(_CUP12_NONZERO),)) * n
    cup23 = kinds.code(_CUP23_NONZERO)
    codes = bytearray()
    if g.case is GaloisCase.UNIPOTENT_LINE:
        ell, c = g.ell, g.constants["c"]
        outcome = [kinds.code(_unipotent_outcome(res1, res2, c))
                   for res1 in range(ell) for res2 in range(ell)]
        xs = [chi.values[1] for chi in chars]
        fs = [chi.values[2] for chi in chars]
        for x1, f1, row1 in zip(xs, fs, data):
            for x2, r, row2 in zip(xs, row1, data):
                if r is None:
                    codes += cup12_row
                    continue
                cx = c * x1 * x2
                # res1 = t x1 - r x3 and res2 = t f1 - r f3 - c x1 x2 x3 mod l
                codes += bytes(
                    cup23 if t is None
                    else outcome[(t * x1 - r * x3) % ell * ell + (t * f1 - r * f3 - cx * x3) % ell]
                    for t, x3, f3 in zip(row2, xs, fs)
                )
        return kinds, codes
    rows = {}
    for chi1, row1 in zip(chars, data):
        zero1 = chi1.is_zero()
        for j, (chi2, r) in enumerate(zip(chars, row1)):
            if r is None:
                codes += cup12_row
                continue
            row = rows.get((j, zero1))
            if row is None:
                row = rows[j, zero1] = bytes(
                    cup23 if t is None else kinds.code(_defined_verdict(chi1, chi2, chi3, r, t, g))
                    for chi3, t in zip(chars, data[j])
                )
            codes += row
    return kinds, codes


def coded_verdicts(chars, indices, g: GbarGroup):
    """``triple_verdict`` of the triples of character indices in the flat
    sequence ``indices`` (three per triple), as ``(kinds, codes)`` like
    ``verdict_table``. Each ordered pair's cup is decided once, when a
    triple first needs it, into a flat list of n^2 slots (a dict of pairs
    held 13 MB more at the peak of an l = 7 full-torsion sample)."""
    check_group(g, *chars)
    n, kinds, unset = len(chars), _Kinds(), object()
    data = [unset] * (n * n)

    def datum(i, j):
        d = data[i * n + j]
        if d is unset:
            d = data[i * n + j] = _pair_datum(chars[i], chars[j], g)
        return d

    def verdict(i, j, k):
        r = datum(i, j)
        if r is None:
            return _CUP12_NONZERO
        t = datum(j, k)
        return _CUP23_NONZERO if t is None else _defined_verdict(chars[i], chars[j], chars[k], r, t, g)

    it = iter(indices)
    return kinds, bytearray(kinds.code(verdict(i, j, k)) for i, j, k in zip(it, it, it))


class _Kinds(list):
    """The distinct verdicts of a table, each coded by its index, which fits
    one byte. Every verdict is a shared object (a constant or a cached
    outcome), so they are told apart by identity; the list keeps each one
    alive, so no id is reused while the table is built."""

    def __init__(self):
        super().__init__()
        self._index = {}

    def code(self, v: MasseyVerdict) -> int:
        c = self._index.get(id(v))
        if c is None:
            if len(self) == 256:
                raise InternalError("a verdict table has more than 256 distinct verdicts")
            c = self._index[id(v)] = len(self)
            self.append(v)
        return c


def _pair_datum(chi_a: Character, chi_b: Character, g: GbarGroup):
    """None if the cup of the pair is nonzero; else what the verdict of a
    defined product needs of the pair: r = f_a x_b - f_b x_a mod l in the
    unipotent case (generators (mprime, m, phi), values (0, x, f)), 0 in
    every other case."""
    if not _cup_vanishes(chi_a, chi_b, g.case):
        return None
    if g.case is not GaloisCase.UNIPOTENT_LINE:
        return 0
    _, xa, fa = chi_a.values
    _, xb, fb = chi_b.values
    return (fa * xb - fb * xa) % g.ell


def _defined_verdict(chi1, chi2, chi3, r, t, g: GbarGroup) -> MasseyVerdict:
    """The verdict of a product whose cups both vanish, given the pair data
    r of (chi1, chi2) and t of (chi2, chi3)."""
    case = g.case
    if case is GaloisCase.NO_FIXED_POINTS:
        return _BASE_FIELD
    if case is GaloisCase.SPLIT_LINE:
        return _SPLIT_LINE_LIFT
    if case is GaloisCase.UNIPOTENT_LINE:
        return _unipotent_verdict(chi1, chi2, chi3, r, t, g)
    return _full_torsion_verdict(chi1, chi2, chi3, g)


def _unipotent_verdict(chi1, chi2, chi3, r, t, g: GbarGroup) -> MasseyVerdict:
    ell = g.ell
    _, x1, f1 = chi1.values
    x2 = chi2.values[1]
    _, x3, f3 = chi3.values
    c = g.constants["c"]
    res1 = (t * x1 - r * x3) % ell
    res2 = (t * f1 - r * f3 - c * x1 * x2 * x3) % ell
    return _unipotent_outcome(res1, res2, c)


@cache
def _unipotent_outcome(res1: int, res2: int, c: int) -> MasseyVerdict:
    """The verdict for the two condition residues; built once per key, so
    verdicts with equal residues share one witness (read, never mutated)."""
    witness = {"condition1_residue": res1, "condition2_residue": res2, "c": c}
    if res1 == 0 and res2 == 0:
        return MasseyVerdict(VerdictStatus.CONTAINS_ZERO, "unipotent-conditions-hold", witness)
    which = "1" if res1 else "2"
    return MasseyVerdict(
        VerdictStatus.NON_VANISHING, f"unipotent-condition{which}-fails", witness
    )


def _full_torsion_verdict(chi1, chi2, chi3, g: GbarGroup) -> MasseyVerdict:
    if g.ell > 3:
        return _SHORTER_THAN_EXPONENT
    if chi1.is_zero() or chi2.is_zero() or chi3.is_zero():
        return _ZERO_FACTOR
    # cups vanished, so the three nonzero characters span one line; scaling
    # invariance reduces the product to <chi, chi, chi> with chi = chi3
    chi = chi3
    xt = chi.torsion_values()
    if xt == (0, 0):
        return _BASE_FIELD
    moved = _moved_kernel_vector(g, xt)
    if moved is not None:
        return _moved_off_line(*moved)
    return _LINES_PRESERVED


@cache
def _moved_off_line(a, image) -> MasseyVerdict:
    """The verdict for a kernel vector moved off its line; built once per
    key, as ``_unipotent_outcome`` is."""
    return MasseyVerdict(
        VerdictStatus.NON_VANISHING,
        "kernel-vector-moved-off-line",
        {"torsion_vector": list(a), "frobenius_image": list(image)},
    )


def _moved_kernel_vector(g: GbarGroup, torsion_values):
    """(a, xi a) for the first order-9 vector a with chi(a) = 0 if Frobenius
    moves it off its line (then it moves every such vector, lemma (1))."""
    a = first_kernel_vector(torsion_values)
    image = mat_apply(g.xi, a, 9)
    return None if _in_cyclic_span(image, a) else (a, image)


def _in_cyclic_span(w, v) -> bool:
    """w in (Z/9)v, for v of order 9: the determinant of (v, w) is 0 mod 9."""
    return mat_det((v, w), 9) == 0


# ---------------------------------------------------------------------------
# Bockstein consistency

def bockstein_vanishes(chi: Character, g: GbarGroup) -> bool:
    """True iff chi lifts to a Z/9-valued character of the group: some lift
    v + 3t of its generator values (t in {0, 1, 2} each) satisfies every
    defining relation mod 9."""
    check_group(g, chi)
    if g.ell != 3:
        raise WrongPrime("the Bockstein check is defined at ell = 3")
    pres = g.presentation()
    return any(
        character_values_valid(pres, [v + 3 * t for v, t in zip(chi.values, lift)], 9)
        for lift in itertools.product(range(3), repeat=len(chi.values))
    )


# ---------------------------------------------------------------------------
# abstract checkers (l = 3, level 9)

def thm52_check(data: AbstractGaloisData) -> MasseyVerdict:
    """Whether <chi, chi, chi> fails to contain zero, from abstract data.

    NonVanishing iff the torsion restriction is nonzero and either some
    group element moves an order-9 kernel vector off its line, or the
    character cuts out a rigid cubic situation: chi is nonzero on the Galois
    side, the base field has no primitive ninth root, the chi-kernel moves
    the ninth roots, and (iota - 4)b stays off every (Z/9)a for all kernel
    elements iota with det = 4 mod 9, all order-9 kernel vectors a, and all
    b outside the torsion kernel.
    """
    if data.chi_on_torsion == (0, 0):
        return MasseyVerdict(VerdictStatus.CONTAINS_ZERO, "zero-torsion-restriction")
    a = first_kernel_vector(data.chi_on_torsion)
    for mat, _ in sorted(data.closure):
        image = mat_apply(mat, a, 9)
        if not _in_cyclic_span(image, a):
            return MasseyVerdict(
                VerdictStatus.NON_VANISHING,
                "kernel-vector-moved-off-line",
                {"a": list(a), "sigma": [list(r) for r in mat], "image": list(image)},
            )
    reason = _thm52_condition2(data, a)
    if reason is None:
        return MasseyVerdict(
            VerdictStatus.NON_VANISHING,
            "rigid-cubic-kernel",
            {"kernel_dets": sorted({mat_det(m, 9) for m in data.kernel_matrices()})},
        )
    return MasseyVerdict(VerdictStatus.CONTAINS_ZERO, reason)


def _thm52_condition2(data: AbstractGaloisData, a) -> str | None:
    """None if the rigid-cubic condition holds; else the failing sub-check.
    The b outside the torsion kernel are their six residues mod 3 (lemma (2))."""
    if data.has_ninth_root:
        return "ninth-root-in-base"
    if all(c == 0 for _, c in data.closure):
        return "character-trivial-on-galois-side"
    kernel_mats = data.kernel_matrices()
    if all(mat_det(m, 9) == 1 for m in kernel_mats):
        return "kernel-fixes-ninth-roots"
    x1, x2 = data.chi_on_torsion
    outside = [(i, j) for i in range(3) for j in range(3) if (x1 * i + x2 * j) % 3]
    for iota in kernel_mats:
        if mat_det(iota, 9) == 4:
            shifted = mat_sub(iota, ((4, 0), (0, 4)), 9)
            if any(_in_cyclic_span(mat_apply(shifted, b, 9), a) for b in outside):
                return "shifted-image-meets-kernel-line"
    return None


def thm11_check(data: AbstractGaloisData) -> dict:
    """Existence of a character with non-vanishing triple product.

    Branch "i": some group element acts non-scalar on the 9-torsion.
    Branch "ii": the action is scalar, the base field lacks a primitive
    ninth root, and its cubic extension is not unique. Otherwise no such
    character exists.
    """
    if not data.all_scalar():
        return {"exists_non_vanishing_chi": True, "branch": "i"}
    if not data.has_ninth_root and not data.unique_cubic_extension:
        return {"exists_non_vanishing_chi": True, "branch": "ii"}
    return {"exists_non_vanishing_chi": False, "branch": "none"}
