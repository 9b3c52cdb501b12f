"""The finite quotient through which every Z/l-character of pi_1(E) factors.

For a curve over F_q and an odd prime l in {3,5,7} the group is a semidirect
product Gbar = Tbar x| <phi> where phi has order l' (9 when l = 3, else l)
and Tbar is a quotient of the l'-torsion determined by the shape of the
Frobenius action mod l:

  full_torsion     Frobenius trivial on E[l]; Tbar = E[l'], rank 2
  split_line       fixed line, second eigenvalue != 1; Tbar cyclic of order l'
  unipotent_line   fixed line, unipotent action; Tbar = E[l'], rank 2,
                   normalized basis (mprime, m) with mprime = (phi - 1)m
  no_fixed_points  no fixed line; Tbar collapses to 0 (the quotient by
                   (phi^{l'} - 1)E[l'] is everything since that map is
                   invertible here)

At l = 5, 7 (l' = l) the case fixes the normalized action: I, ((1, 1), (0, 1))
with constants 0, or diag(1, q mod l) with alpha = 0, as det = q (AEC III.8).
At l = 3 the E[9] Frobenius matrix A is read after one check, that its shape
mod 3 is the case the rank gave. Then A satisfies X^2 - tX + q, t its trace
(AEC V.2.3.1), so on (mprime, m) a unipotent action is ((t - 1, 1),
(t - 1 - q, 1)) mod 9 for any m moved mod 3; a split one is A on the first
eigenvectors for 1 and q mod 3, the kernels of one row of A - 1 and of A - q.

Every element has the normal form (torsion vector, phi exponent), with
(t1, e1)(t2, e2) = (t1 + xi^{e1} t2, e1 + e2); a group keeps its case and
the normalized action of phi, not its elements. The relation set derived
here is the single source of truth consumed by both the character
enumeration and the lifting oracle.

Abstract data (l = 3) must have generators I mod 3, as massey's lemmas (1)
and (2) need, and then (3): (I + 3M)(I + 3N) = I + 3(M + N) mod 9, so they
commute and cube to I, and pairs (g_i, chi_i) generate in GL2(Z/9) x Z/3
the products of g_i^e_i, e_i in {0, 1, 2}, paired with sum e_i chi_i mod 3.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from enum import Enum

from . import ec
from .errors import (
    CaseMismatch,
    GroupMismatch,
    InvalidData,
    NotCongruentIdentity,
    NotInvertible,
    UnsupportedLevel,
)

def ell_prime(ell: int) -> int:
    """Torsion level at which Frobenius must be tracked: 9 for l=3, else l."""
    return 9 if ell == 3 else ell


class GaloisCase(Enum):
    FULL_TORSION = "full_torsion"
    NO_FIXED_POINTS = "no_fixed_points"
    SPLIT_LINE = "split_line"
    UNIPOTENT_LINE = "unipotent_line"


# ---------------------------------------------------------------------------
# 2x2 matrices over Z/n as ((a, b), (c, d)) row-major tuples

def mat_id():
    return ((1, 0), (0, 1))


def mat_mul(A, B, n):
    return (
        (
            (A[0][0] * B[0][0] + A[0][1] * B[1][0]) % n,
            (A[0][0] * B[0][1] + A[0][1] * B[1][1]) % n,
        ),
        (
            (A[1][0] * B[0][0] + A[1][1] * B[1][0]) % n,
            (A[1][0] * B[0][1] + A[1][1] * B[1][1]) % n,
        ),
    )


def mat_det(A, n):
    return (A[0][0] * A[1][1] - A[0][1] * A[1][0]) % n


def mat_inv(A, n):
    d = mat_det(A, n)
    try:
        dinv = pow(d, -1, n)
    except ValueError as exc:
        raise NotInvertible(f"matrix determinant {d} not invertible mod {n}") from exc
    return (
        (A[1][1] * dinv % n, -A[0][1] * dinv % n),
        (-A[1][0] * dinv % n, A[0][0] * dinv % n),
    )


def mat_conj(A, T, n):
    """T^-1 A T: the matrix A in the basis given by the columns of T."""
    return mat_mul(mat_inv(T, n), mat_mul(A, T, n), n)


def mat_apply(A, v, n):
    return ((A[0][0] * v[0] + A[0][1] * v[1]) % n, (A[1][0] * v[0] + A[1][1] * v[1]) % n)


def mat_sub(A, B, n):
    return tuple(tuple((a - b) % n for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


# ---------------------------------------------------------------------------
# case classification

def classify_case(A, ell: int) -> GaloisCase:
    """Shape of a mod-l Frobenius matrix: identity, no fixed line, split, unipotent."""
    if ell not in ec.SUPPORTED_ELLS:
        raise UnsupportedLevel(f"classification defined at prime level, ell in {ec.SUPPORTED_ELLS}")
    M = mat_sub(A, mat_id(), ell)
    if M == ((0, 0), (0, 0)):
        return GaloisCase.FULL_TORSION
    if mat_det(M, ell) != 0:
        return GaloisCase.NO_FIXED_POINTS
    if mat_mul(M, M, ell) == ((0, 0), (0, 0)):
        return GaloisCase.UNIPOTENT_LINE
    return GaloisCase.SPLIT_LINE


def case_from_rank(rank: int, q: int, ell: int) -> GaloisCase:
    """The case of a curve over F_q from the rank of E(F_q)[l].

    With one fixed line the other eigenvalue of Frobenius is its determinant,
    q mod l (the Weil pairing), so the line is unipotent iff q = 1 mod l.
    """
    if rank == 2:
        return GaloisCase.FULL_TORSION
    if rank == 0:
        return GaloisCase.NO_FIXED_POINTS
    return GaloisCase.UNIPOTENT_LINE if q % ell == 1 else GaloisCase.SPLIT_LINE


def transported_matrix(basis: ec.TorsionBasis, A0, u: int):
    """Frobenius matrix of (u^4 a0, u^6 b0) on its own torsion_basis, from
    the basis of E[l], l prime, of (a0, b0) and its Frobenius matrix A0.

    (x, y) -> (u^2 x, u^3 y) is defined over F_p, so it commutes with
    Frobenius (Silverman, AEC III.1); it scales the table's coordinate keys,
    and ``ec.canonical_basis`` of the scaled table gives the image's basis
    as the columns M of its coordinates on (P, Q). The matrix is M^-1 A0 M.
    """
    p = basis.P.ctx.base.p
    u2, u3 = u * u % p, u * u * u % p
    # a key is (0,) for O, else (1, x, y)
    moved = [((tuple(c * u2 % p for c in key[1]), tuple(c * u3 % p for c in key[2])), vec)
             for key, vec in basis.table.items() if key != (0,)]
    return mat_conj(A0, ec.canonical_basis(moved, basis.n)[2], basis.n)


# ---------------------------------------------------------------------------
# presentations

Word = tuple  # of (generator index, exponent) pairs
Relation = namedtuple("Relation", "lhs rhs")  # two Words


class Presentation:
    """Generators and defining relations, oracle-ready.

    Compared and hashed by identity: a group builds each presentation once.
    """

    __slots__ = ("ell", "gen_names", "relations")

    def __init__(self, ell: int, gen_names: tuple[str, ...], relations: tuple[Relation, ...]):
        self.ell = ell
        self.gen_names = gen_names
        self.relations = relations


def _build_relations(n_torsion: int, xi, lprime):
    """Torsion orders and commutators first, n(n+1)/2 relations that present
    the torsion part alone; then phi's order and its action by conjugation."""
    rels = []
    for i in range(n_torsion):
        rels.append(Relation(((i, lprime),), ()))
    for i in range(n_torsion):
        for j in range(i + 1, n_torsion):
            rels.append(Relation(((i, 1), (j, 1), (i, -1), (j, -1)), ()))
    phi = n_torsion
    rels.append(Relation(((phi, lprime),), ()))
    for i in range(n_torsion):
        image = tuple((j, xi[j][i] % lprime) for j in range(n_torsion) if xi[j][i] % lprime)
        rels.append(Relation(((phi, 1), (i, 1), (phi, -1)), image))
    return tuple(rels)


# ---------------------------------------------------------------------------
# the group

_GEN_NAMES = {
    GaloisCase.FULL_TORSION: ("m1", "m2", "phi"),
    GaloisCase.SPLIT_LINE: ("m", "phi"),
    GaloisCase.UNIPOTENT_LINE: ("mprime", "m", "phi"),
    GaloisCase.NO_FIXED_POINTS: ("phi",),
}


class GbarGroup:
    """Finite quotient Tbar x| <phi>, phi and every torsion generator of order l'.

    ``action`` is the level-l' Frobenius matrix in the normalized basis (the
    raw one for full torsion), None when no line is fixed. The generators
    and ``xi``, the action of phi on the torsion generators
    (columns are images, entries mod l'), follow from the case: ``xi`` is the
    action, its (0, 0) entry on the cyclic split-line torsion, or empty.
    ``constants`` holds the normalized-basis invariants (alpha, beta, gamma,
    delta, c) where the construction defines them.
    """

    def __init__(self, ell, case, action=None, constants=None):
        self.ell = ell
        self.ell_prime = ell_prime(ell)
        self.case = case
        self.action = action
        self.constants = constants
        self.gen_names = _GEN_NAMES[case]
        if case is GaloisCase.SPLIT_LINE:
            self.xi = ((action[0][0],),)
        else:
            self.xi = () if action is None else action
        self._characters = None
        self._presentation = None
        self._torsion_presentation = None

    @property
    def rank(self) -> int:
        return len(self.gen_names) - 1

    @property
    def order(self) -> int:
        return self.ell_prime ** len(self.gen_names)

    def presentation(self) -> Presentation:
        if self._presentation is None:
            self._presentation = Presentation(
                ell=self.ell,
                gen_names=self.gen_names,
                relations=_build_relations(self.rank, self.xi, self.ell_prime),
            )
        return self._presentation

    def torsion_presentation(self) -> Presentation:
        """The torsion subgroup alone (no phi), for restriction tests: the
        first rank(rank+1)/2 relations of the presentation."""
        if self._torsion_presentation is None:
            rank = self.rank
            self._torsion_presentation = Presentation(
                ell=self.ell,
                gen_names=self.gen_names[:rank],
                relations=self.presentation().relations[: rank * (rank + 1) // 2],
            )
        return self._torsion_presentation

    def characters(self) -> list["Character"]:
        if self._characters is None:
            self._characters = enumerate_characters(self)
        return self._characters

    def __repr__(self):
        return f"GbarGroup(ell={self.ell}, case={self.case.value}, order={self.order})"


def check_group(g: GbarGroup, *chars: "Character"):
    """Raise GroupMismatch unless every character belongs to ``g``."""
    for chi in chars:
        if chi.group is not g:
            raise GroupMismatch("character belongs to a different group")


class Character:
    """Z/l-character of a GbarGroup, stored by values on its generators.

    Construction validates the values against the group presentation, so an
    assignment that fails a relation (a nonzero value on mprime in the
    unipotent case, say) is rejected rather than silently mis-dispatched.
    """

    __slots__ = ("group", "values")

    def __init__(self, group: GbarGroup, values):
        self.group = group
        self.values = tuple(v % group.ell for v in values)
        if len(self.values) != len(group.gen_names):
            raise GroupMismatch("character values do not match the generator list")
        if not character_values_valid(group.presentation(), self.values, group.ell):
            raise GroupMismatch(f"values {self.values} do not define a character")

    def on_phi(self) -> int:
        return self.values[-1]

    def torsion_values(self) -> tuple[int, ...]:
        return self.values[: self.group.rank]

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def scaled(self, c: int) -> "Character":
        return Character(self.group, tuple(c * v for v in self.values))

    def __eq__(self, other):
        return (
            isinstance(other, Character)
            and self.group is other.group
            and self.values == other.values
        )

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"Character{self.values}"


def char_word_value(values, word: Word, ell: int) -> int:
    return sum(e * values[g] for g, e in word) % ell


def character_values_valid(pres: Presentation, values, n: int) -> bool:
    """True iff the value assignment respects every defining relation mod n."""
    return all(
        char_word_value(values, rel.lhs, n) == char_word_value(values, rel.rhs, n)
        for rel in pres.relations
    )


def enumerate_characters(g: GbarGroup) -> list[Character]:
    """All Z/l-characters in lexicographic order of their value tuples."""
    pres = g.presentation()
    out = []
    for values in itertools.product(range(g.ell), repeat=len(g.gen_names)):
        if character_values_valid(pres, values, g.ell):
            out.append(Character(g, values))
    return out


def proportional(chi1: Character, chi2: Character) -> bool:
    """True iff the value vectors are proportional over Z/l (zero included)."""
    v, w = chi1.values, chi2.values
    for i in range(len(v)):
        for j in range(i + 1, len(v)):
            if (v[i] * w[j] - v[j] * w[i]) % chi1.group.ell:
                return False
    return True


# ---------------------------------------------------------------------------
# building the group from a curve

def build_gbar(curve: ec.Curve, ell: int) -> GbarGroup:
    """Construct Gbar for the curve at the prime l: from the case alone at
    l = 5, 7 (see the module docstring), else from the E[9] Frobenius matrix A.

    At l = 3 the case given by the rank must be the shape of A mod 3, or
    CaseMismatch is raised; every normalization below follows from it.

    full_torsion: generators are the deterministic E[l'] basis itself.
    split_line:   the torsion part is E[l'] modulo the image of phi^{l'}-1,
                  cyclic of order l', generated by (the class of) a lift of
                  the canonical fixed vector; the action is the scalar
                  1 + l*alpha. A is normalized on the first eigenvectors for
                  1 and q mod 3, the kernels of a row of A - 1 and of A - q.
    unipotent_line: mprime = (phi-1)m for any m moved mod 3, and on
                  (mprime, m) Cayley-Hamilton (phi^2 = t phi - q, t the trace
                  of A) makes the action ((t - 1, 1), (t - 1 - q, 1)): first
                  column (1 + l*alpha, l*gamma), second (1, 1); c = gamma.
    no_fixed_points: the torsion part is trivial (phi^{l'}-1 is invertible).
    """
    if ell not in ec.SUPPORTED_ELLS:
        raise UnsupportedLevel(f"ell must be one of {ec.SUPPORTED_ELLS}")
    if curve.base.p == ell:
        raise UnsupportedLevel("ell equals the characteristic")
    lp = ell_prime(ell)
    q = curve.base.order
    case = case_from_rank(ec.rational_torsion_rank(curve, ell), q, ell)

    if case is GaloisCase.NO_FIXED_POINTS:
        return GbarGroup(ell, case)
    if ell > 3:
        if case is GaloisCase.FULL_TORSION:
            return GbarGroup(ell, case, mat_id())
        if case is GaloisCase.UNIPOTENT_LINE:
            return GbarGroup(ell, case, ((1, 1), (0, 1)),
                             {"alpha": 0, "beta": 0, "gamma": 0, "delta": 0, "c": 0})
        return GbarGroup(ell, case, ((1, 0), (0, q % ell)),
                         {"alpha": 0, "beta": None, "gamma": None, "delta": None, "c": None})

    A = ec.frobenius_matrix(ec.torsion_basis(curve, lp))
    shape = classify_case(A, ell)
    if shape is not case:
        raise CaseMismatch(f"rank gives {case.value} but the Frobenius matrix is {shape.value}")

    if case is GaloisCase.FULL_TORSION:
        return GbarGroup(ell, case, A)
    if case is GaloisCase.UNIPOTENT_LINE:
        t = (A[0][0] + A[1][1]) % lp
        alpha, gamma = (t - 2) % lp // ell, (t - 1 - q) % lp // ell
        return GbarGroup(ell, case, ((1 + ell * alpha, 1), (ell * gamma, 1)),
                         {"alpha": alpha, "beta": 0, "gamma": gamma, "delta": 0, "c": gamma})

    v1, v2 = (
        first_kernel_vector(next(row for row in mat_sub(A, ((lam, 0), (0, lam)), ell) if any(row)))
        for lam in (1, q)
    )
    An = mat_conj(A, ((v1[0], v2[0]), (v1[1], v2[1])), lp)
    # the scalar An[0][0] is 1 + 3*alpha mod 9
    constants = {"alpha": (An[0][0] - 1) // 3, "beta": An[0][1] // 3, "gamma": An[1][0] // 3,
                 "delta": (An[1][1] - 2) // 3, "c": None}
    return GbarGroup(ell, case, An, constants)


def first_kernel_vector(row):
    """Lexicographically first vector (i, j), entries in 0..2 and not both 0,
    with x1*i + x2*j = 0 mod 3 for the row (x1, x2) nonzero mod 3: (0, 1) if
    x2 = 0 mod 3, else (1, -x1/x2) = (1, -x1*x2). As a vector of (Z/9)^2 it is
    the first of order 9 killed by a character with torsion restriction
    (x1, x2); for a nonzero row of A - lam mod 3 it is the first eigenvector."""
    x1, x2 = row
    if x2 % 3 == 0:
        return (0, 1)
    return (1, (-x1 * x2) % 3)


# ---------------------------------------------------------------------------
# abstract Galois data (l = 3, level 9)

class AbstractGaloisData:
    """Galois-side input for the abstract checkers: generator matrices of the
    image in GL2(Z/9) (each I mod 3, else NotCongruentIdentity), the character
    on those generators, the character's restriction to a 9-torsion basis,
    and two field-level flags the matrices cannot see.

    ``closure`` is the subgroup generated inside GL2(Z/9) x Z/3, pairing
    each matrix with the character value of a group element realizing it.
    """

    __slots__ = (
        "chi_on_torsion",
        "has_ninth_root",
        "unique_cubic_extension",
        "closure",
    )

    def __init__(self, generators, chi_on_generators, chi_on_torsion,
                 has_ninth_root, unique_cubic_extension):
        self.chi_on_torsion = chi_on_torsion
        self.has_ninth_root = has_ninth_root
        self.unique_cubic_extension = unique_cubic_extension
        self.closure = _augmented_closure(generators, chi_on_generators)
        dets = {mat_det(g, 9) for g, _ in self.closure}
        if self.has_ninth_root and dets != {1}:
            raise InvalidData(
                "has_ninth_root is true but some group element moves the ninth roots "
                "(a determinant differs from 1 mod 9)"
            )
        if not self.has_ninth_root and dets == {1}:
            raise InvalidData(
                "has_ninth_root is false but every determinant is 1 mod 9, so the "
                "group fixes the ninth roots"
            )

    def kernel_matrices(self):
        """Action matrices realized by elements on which the character vanishes."""
        return {g for g, c in self.closure if c == 0}

    def all_scalar(self) -> bool:
        return all(g[0][1] == 0 and g[1][0] == 0 and g[0][0] == g[1][1] for g, _ in self.closure)


def _check_congruent_identity(mat, idx):
    """Lemma (3)'s premise; load_abstract checks it before parsing the next generator."""
    if mat_sub(mat, mat_id(), 3) != ((0, 0), (0, 0)):
        raise NotCongruentIdentity(f"generators[{idx}] is not congruent to the identity mod 3")


def _augmented_closure(generators, chi_values):
    """The generated subgroup: g1^e1 ... gn^en, e_i in {0, 1, 2}, with sum e_i chi_i (lemma (3))."""
    closure = {(mat_id(), 0)}
    for idx, (g, c) in enumerate(zip(generators, chi_values)):
        _check_congruent_identity(g, idx)
        closure |= {(mat_mul(m, h, 9), (v + e * c) % 3)
                    for e, h in ((1, g), (2, mat_mul(g, g, 9))) for m, v in closure}
    return frozenset(closure)


def _json_int(value, where: str) -> int:
    """``value`` if it is a JSON integer; floats, booleans and strings are InvalidData."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidData(f"{where} must be an integer, got {value!r}")
    return value


def load_abstract(data: dict) -> AbstractGaloisData:
    """Validate and close the abstract-Galois JSON payload."""
    if not isinstance(data, dict):
        raise InvalidData("abstract Galois data must be a JSON object")
    missing = {
        "generators",
        "chi_on_generators",
        "chi_on_torsion",
        "has_ninth_root",
        "unique_cubic_extension",
    } - set(data)
    if missing:
        raise InvalidData(f"missing fields: {sorted(missing)}")
    raw_gens = data["generators"]
    if not isinstance(raw_gens, list):
        raise InvalidData("generators must be a list of 2x2 integer matrices")
    gens = []
    for idx, g in enumerate(raw_gens):
        if not isinstance(g, list) or len(g) != 2 or any(
            not isinstance(row, list) or len(row) != 2 for row in g
        ):
            raise InvalidData(f"generators[{idx}] is not a 2x2 integer matrix")
        mat = tuple(
            tuple(_json_int(v, f"generators[{idx}][{i}][{j}]") % 9 for j, v in enumerate(row))
            for i, row in enumerate(g)
        )
        _check_congruent_identity(mat, idx)
        gens.append(mat)
    chis = data["chi_on_generators"]
    if not isinstance(chis, list) or len(chis) != len(gens):
        raise InvalidData("chi_on_generators must parallel the generator list")
    chis = tuple(_json_int(v, f"chi_on_generators[{i}]") % 3 for i, v in enumerate(chis))
    tor = data["chi_on_torsion"]
    if not isinstance(tor, list) or len(tor) != 2:
        raise InvalidData("chi_on_torsion must be a pair of residues mod 3")
    tor = tuple(_json_int(v, f"chi_on_torsion[{i}]") % 3 for i, v in enumerate(tor))
    flags = (data["has_ninth_root"], data["unique_cubic_extension"])
    if not all(isinstance(f, bool) for f in flags):
        raise InvalidData("field flags must be booleans")
    return AbstractGaloisData(tuple(gens), chis, tor, flags[0], flags[1])
