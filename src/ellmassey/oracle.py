"""Independent lifting oracle: homomorphisms into U3 and U4 by linear algebra.

A triple Massey product is nonempty iff the three characters lift to a
homomorphism into U4(Z/l) modulo its center, and contains zero iff they lift
to U4(Z/l) itself; cup products correspond to U3(Z/l) lifts (Dwyer's lifting
criterion). The oracle decides these with the superdiagonal pinned to the
character values, evaluating every defining relation of the group with
generic matrix arithmetic.

With the superdiagonal (a1, a2, a3) pinned to (chi1, chi2, chi3), the U4
product and inverse never multiply two free entries (u, v, w) together, and
each entry of a relation residual has a fixed multilinear form:

  a1, a2, a3  linear in chi1, chi2, chi3 (one exponent-sum form)
  u           constant coefficients on the u unknowns; a right-hand side
              bilinear in (chi1, chi2)
  w           constant coefficients on the w unknowns; a right-hand side
              bilinear in (chi2, chi3)
  v           constant coefficients on the v unknowns, chi3-linear ones on
              the u unknowns, chi1-linear ones on the w unknowns; a
              trilinear right-hand side

These tables are compiled once per presentation, by probing the residual at
unit vectors, checked against the residual at one further point, and kept in
a bounded cache. Each question then evaluates the forms and solves one linear
system over Z/l exactly:

  contains zero  unknowns u, v, w; all three slots must vanish
  cup            U4 with a3 = 0, whose u entry multiplies exactly like the
                 U3 corner; unknown u, and the u slot must vanish
  nonempty       unknowns u, w; the u and w slots must vanish. They share no
                 unknown, so this is the u-system on (chi1, chi2) and the
                 w-system on (chi2, chi3), each solved once per ordered pair

A witness is the reduced row-echelon solution with every free unknown set
to 0, so witnesses are reproducible; each is re-verified against every
relation before it is returned. The probing solve that reads the system
afresh for every question, and the literal brute forces, cross-check these
solves from the tests.

The questions on characters of a group are ``oracle_cup``,
``oracle_nonempty``, ``oracle_contains_zero`` and ``oracle_lift_witness``.
``find_full_lift`` and ``center_lift_exists`` ask the contains-zero and
nonempty questions of any presentation and pinned superdiagonals (such as
the torsion subgroup's, which no character of the group reaches);
``lift_is_sound`` re-verifies a witness.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import InternalError, UnsoundLift
from .galois import Character, GbarGroup, Presentation, check_group
from .unitri import U4_ID, u4_inv_raw, u4_mul_raw, u4_pow_raw


# ---------------------------------------------------------------------------
# words and relations

def _eval_word_u4(l, images, word):
    acc = U4_ID
    for g, e in word:
        acc = u4_mul_raw(l, acc, u4_pow_raw(l, images[g], e))
    return acc


def _residual_u4(l, images, rel):
    lhs = _eval_word_u4(l, images, rel.lhs)
    rhs = _eval_word_u4(l, images, rel.rhs)
    return u4_mul_raw(l, lhs, u4_inv_raw(l, rhs))


# ---------------------------------------------------------------------------
# the linear solve

def _solve_linear_mod(eqs, n_unknowns: int, l: int):
    """A solution of a small linear system over Z/l, or None if inconsistent.

    ``eqs`` holds (coefficients, right-hand side) pairs, the coefficients
    reduced mod l. The system is brought to reduced row-echelon form; the
    returned solution sets every free (non-pivot) unknown to 0. Zero rows are
    dropped first: they hold no pivot, and the echelon form is unique.
    """
    rows = [row for coeffs, rhs in eqs if any(row := [*coeffs, rhs % l])]
    pivot_cols = []
    for col in range(n_unknowns):
        r = len(pivot_cols)
        for piv in range(r, len(rows)):
            if rows[piv][col]:
                break
        else:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivot = rows[r]
        if pivot[col] != 1:
            inv = pow(pivot[col], -1, l)
            pivot = rows[r] = [v * inv % l for v in pivot]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != r:
                rows[i] = [(v - f * w) % l for v, w in zip(row, pivot)]
        pivot_cols.append(col)
    if any(row[-1] for row in rows[len(pivot_cols) :]):
        return None
    solution = [0] * n_unknowns
    for row, col in zip(rows, pivot_cols):
        solution[col] = row[-1]
    return solution


# ---------------------------------------------------------------------------
# the compiled system

_A1, _A2, _A3, _U, _V, _W = range(6)  # slots of a raw U4 tuple


class _RelationForms:
    """The residual of one relation as multilinear forms, read by probing.

    Sparse forms are lists of (generator indices..., coefficient) with the
    coefficient nonzero. The constant coefficients on the unknowns are held
    once, as the rows ``urow``, ``vrow``, ``wrow`` of the full system with the
    unknowns ordered (generator, u/v/w); per generator they are the slices
    ``urow[0::3]``, ``vrow[1::3]`` and ``wrow[2::3]``.
    """

    __slots__ = ("diag", "bu", "bw", "mu", "mw", "t", "urow", "vrow", "wrow")

    def __init__(self, l: int, n: int, rel):
        def probe(slot, *entries):
            images = [[0] * 6 for _ in range(n)]
            for g, s in entries:
                images[g][s] = 1
            return _residual_u4(l, [tuple(img) for img in images], rel)[slot]

        gens = range(n)
        pairs = [(f, g) for f in gens for g in gens]
        self.diag = [(g, c) for g in gens if (c := probe(_A1, (g, _A1)))]
        # ``full`` adds each triple's mu and mw terms to a copy of the v row
        self.urow, self.vrow, self.wrow = ([0] * (3 * n) for _ in range(3))
        self.urow[0::3] = [probe(_U, (g, _U)) for g in gens]
        self.vrow[1::3] = [probe(_V, (g, _V)) for g in gens]
        self.wrow[2::3] = [probe(_W, (g, _W)) for g in gens]
        self.bu = [(f, g, c) for f, g in pairs if (c := probe(_U, (f, _A1), (g, _A2)))]
        self.bw = [(f, g, c) for f, g in pairs if (c := probe(_W, (f, _A2), (g, _A3)))]
        self.mu = [(g, h, c) for g, h in pairs if (c := probe(_V, (g, _U), (h, _A3)))]
        self.mw = [(g, h, c) for g, h in pairs if (c := probe(_V, (g, _W), (h, _A1)))]
        self.t = [
            (f, g, h, c)
            for f, g in pairs
            for h in gens
            if (c := probe(_V, (f, _A1), (g, _A2), (h, _A3)))
        ]

    def residual(self, l: int, images):
        """The residual these forms predict at ``images`` (raw U4 tuples)."""
        x, y, z, u, v, w = zip(*images)
        return (
            _linear(self.diag, x) % l,
            _linear(self.diag, y) % l,
            _linear(self.diag, z) % l,
            (_dot(self.urow[0::3], u) + _bilinear(self.bu, x, y)) % l,
            (
                _dot(self.vrow[1::3], v)
                + _bilinear(self.mu, u, z)
                + _bilinear(self.mw, w, x)
                + _trilinear(self.t, x, y, z)
            ) % l,
            (_dot(self.wrow[2::3], w) + _bilinear(self.bw, y, z)) % l,
        )


def _dot(coeffs, x):
    return sum(c * v for c, v in zip(coeffs, x))


def _linear(form, x):
    return sum(c * x[g] for g, c in form)


def _bilinear(form, x, y):
    return sum(c * x[f] * y[g] for f, g, c in form)


def _trilinear(form, x, y, z):
    return sum(c * x[f] * y[g] * z[h] for f, g, h, c in form)


class _LiftSystem:
    """The lifting equations of one presentation, compiled once.

    Arguments are value vectors over the generators, reduced mod l. The
    pair systems are memoised per ordered pair; the full system is built
    per triple, row for row in the order (relation, slot u/v/w) with the
    unknowns ordered (generator, u/v/w).
    """

    def __init__(self, pres: Presentation):
        l = self.ell = pres.ell
        n = self.n = len(pres.gen_names)
        self.forms = [_RelationForms(l, n, rel) for rel in pres.relations]
        check = [tuple(1 + (g + s) % (l - 1) for s in range(6)) for g in range(n)]
        for i, (rel, forms) in enumerate(zip(pres.relations, self.forms)):
            if forms.residual(l, check) != _residual_u4(l, check, rel):
                raise InternalError(
                    f"compiled lifting system disagrees with relation {i} at {check}"
                )
        # (coefficients, right-hand side form) per relation, and the memo
        self._u = ([(f.urow[0::3], f.bu) for f in self.forms], {})
        self._w = ([(f.wrow[2::3], f.bw) for f in self.forms], {})

    def _is_character(self, x) -> bool:
        return all(_linear(f.diag, x) % self.ell == 0 for f in self.forms)

    def _pair_solvable(self, system, x, y) -> bool:
        """The u- or w-system on the pair (x, y), solved once per pair."""
        rows, memo = system
        found = memo.get((x, y))
        if found is None:
            eqs = [(coeffs, -_bilinear(form, x, y)) for coeffs, form in rows]
            found = memo[x, y] = (
                self._is_character(x)
                and self._is_character(y)
                and _solve_linear_mod(eqs, self.n, self.ell) is not None
            )
        return found

    def cup(self, x, y) -> bool:
        """The u-system on (x, y): a U3 lift with superdiagonal (x, y) exists."""
        return self._pair_solvable(self._u, x, y)

    def nonempty(self, x, y, z) -> bool:
        """A lift into U4 modulo its center exists: u on (x, y), w on (y, z)."""
        return self.cup(x, y) and self._pair_solvable(self._w, y, z)

    def full(self, x, y, z):
        """Images (a1, a2, a3, u, v, w) per generator of the RREF solution, or None."""
        if not self.nonempty(x, y, z):  # no lift modulo the center, so none to U4
            return None
        l, n = self.ell, self.n
        eqs = []
        for f in self.forms:
            vrow = f.vrow[:]
            for g, h, c in f.mu:
                vrow[3 * g] = (vrow[3 * g] + c * z[h]) % l
            for g, h, c in f.mw:
                vrow[3 * g + 2] = (vrow[3 * g + 2] + c * x[h]) % l
            eqs.append((f.urow, -_bilinear(f.bu, x, y)))
            eqs.append((vrow, -_trilinear(f.t, x, y, z)))
            eqs.append((f.wrow, -_bilinear(f.bw, y, z)))
        sol = _solve_linear_mod(eqs, 3 * n, l)
        if sol is None:
            return None
        return [(x[g], y[g], z[g], *sol[3 * g : 3 * g + 3]) for g in range(n)]


@lru_cache(maxsize=32)
def _lift_system(pres: Presentation) -> _LiftSystem:
    return _LiftSystem(pres)


def _columns(l, superdiags):
    """The (a1, a2, a3) rows of per-generator superdiagonals as three vectors."""
    return tuple(tuple(v % l for v in col) for col in zip(*superdiags))


# ---------------------------------------------------------------------------
# U4 lifts

def _checked_witness(pres: Presentation, x, y, z):
    images = _lift_system(pres).full(x, y, z)
    if images is None:
        return None
    witness = dict(zip(pres.gen_names, images))
    if not lift_is_sound(pres, list(zip(x, y, z)), witness):
        raise UnsoundLift(f"oracle witness fails a relation: {witness}")
    return witness


def find_full_lift(pres: Presentation, superdiags):
    """A homomorphism into U4(Z/l) with the given superdiagonals, or None.

    ``superdiags[i]`` is the pinned (a1, a2, a3) triple for generator i. The
    returned witness maps generator names to complete (a1,a2,a3,u,v,w) tuples
    and is re-verified against every relation with generic multiplication;
    a witness that fails raises ``UnsoundLift``.
    """
    return _checked_witness(pres, *_columns(pres.ell, superdiags))


def center_lift_exists(pres: Presentation, superdiags) -> bool:
    """True iff a homomorphism into U4/Z(U4) with these superdiagonals exists."""
    return _lift_system(pres).nonempty(*_columns(pres.ell, superdiags))


def lift_is_sound(pres: Presentation, superdiags, witness) -> bool:
    """Generic verification: superdiagonals match and all relations hold exactly."""
    l = pres.ell
    images = [witness[name] for name in pres.gen_names]
    for img, pinned in zip(images, superdiags):
        if img[:3] != tuple(v % l for v in pinned):
            return False
    return all(_residual_u4(l, images, rel) == U4_ID for rel in pres.relations)


# ---------------------------------------------------------------------------
# character-level API (character values are already reduced mod l)

def oracle_cup(chi1: Character, chi2: Character, g: GbarGroup) -> bool:
    """Ground truth for cup-product vanishing: a U3 lift exists."""
    check_group(g, chi1, chi2)
    return _lift_system(g.presentation()).cup(chi1.values, chi2.values)


def oracle_nonempty(chi1: Character, chi2: Character, chi3: Character, g: GbarGroup) -> bool:
    """Ground truth for nonemptiness: a lift into U4 modulo its center exists."""
    check_group(g, chi1, chi2, chi3)
    return _lift_system(g.presentation()).nonempty(chi1.values, chi2.values, chi3.values)


def oracle_contains_zero(chi1: Character, chi2: Character, chi3: Character, g: GbarGroup) -> bool:
    """Ground truth for contains-zero: a full U4 lift exists."""
    return oracle_lift_witness(chi1, chi2, chi3, g) is not None


def oracle_lift_witness(chi1: Character, chi2: Character, chi3: Character, g: GbarGroup):
    """A full U4 lift (the row-echelon solution of the lifting system), or None."""
    check_group(g, chi1, chi2, chi3)
    return _checked_witness(g.presentation(), chi1.values, chi2.values, chi3.values)
