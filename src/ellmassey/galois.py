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

Every element has the normal form (torsion vector, phi exponent), with
(t1, e1)(t2, e2) = (t1 + xi^{e1} t2, e1 + e2); a group keeps its case and
the normalized action of phi, not its elements. The relation set derived
here is the single source of truth consumed by both the character
enumeration and the lifting oracle.
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
    whose sort gives the image's P (the least) and Q (the first off <P>) as
    columns of M. The matrix on (P, Q) is M^-1 A0 M.
    """
    n = basis.n
    p = basis.P.ctx.base.p
    u2, u3 = u * u % p, u * u * u % p
    moved = sorted(
        (tuple(c * u2 % p for c in key[1]), tuple(c * u3 % p for c in key[2]), vec)
        for key, vec in basis.table.items()
        if key != (0,)  # the point at infinity
    )
    P = moved[0][2]
    Q = next(v for _, _, v in moved if mat_det(((P[0], v[0]), (P[1], v[1])), n))
    return mat_conj(A0, ((P[0], Q[0]), (P[1], Q[1])), n)


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
    """Construct Gbar for the curve at the prime l, normalizing the basis.

    full_torsion: generators are the deterministic E[l'] basis itself.
    split_line:   the torsion part is E[l'] modulo the image of phi^{l'}-1,
                  cyclic of order l', generated by (the class of) a lift of
                  the canonical fixed vector; the action is the scalar
                  1 + l*alpha.
    unipotent_line: m is the canonically first point of exact order l' whose
                  mod-l image moves under phi, mprime = (phi-1)m, and the
                  action matrix has first column (1 + l*alpha, l*gamma) and
                  second column (1, 1); c = gamma for l = 3, else 0.
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

    basis = ec.torsion_basis(curve, lp)
    A = ec.frobenius_matrix(basis)

    if case is GaloisCase.FULL_TORSION:
        if mat_sub(A, mat_id(), ell) != ((0, 0), (0, 0)):
            raise CaseMismatch("full torsion case but phi is not trivial mod l")
        return GbarGroup(ell, case, A)

    # the normalized basis: (mprime, m) for a unipotent line, eigenvectors
    # (v1, v2) for eigenvalues (1, q) mod l on a split one
    if case is GaloisCase.UNIPOTENT_LINE:
        m_vec = _first_moved_vector(basis, A, ell)
        mp_vec = mat_apply(mat_sub(A, mat_id(), lp), m_vec, lp)
        T = ((mp_vec[0], m_vec[0]), (mp_vec[1], m_vec[1]))
    else:
        eps = q % ell
        v1 = _first_eigenvector(A, 1, ell)
        v2 = _first_eigenvector(A, eps, ell)
        if v1 is None or v2 is None:
            raise CaseMismatch("split case but eigenvectors not found mod l")
        T = ((v1[0], v2[0]), (v1[1], v2[1]))
    An = mat_conj(A, T, lp)

    if case is GaloisCase.UNIPOTENT_LINE:
        if An[0][1] != 1 % lp or An[1][1] != 1 % lp:
            raise CaseMismatch("unipotent normalization failed")
        alpha, rem_a = divmod((An[0][0] - 1) % lp, ell)
        gamma, rem_g = divmod(An[1][0] % lp, ell)
        if rem_a or rem_g:
            raise CaseMismatch("unipotent action entries not congruent to identity mod l")
        constants = {"alpha": alpha, "beta": 0, "gamma": gamma, "delta": 0,
                     "c": gamma if ell == 3 else 0}
        return GbarGroup(ell, case, An, constants)

    if mat_sub(An, ((1, 0), (0, eps)), ell) != ((0, 0), (0, 0)):
        raise CaseMismatch("split normalization failed")
    # the scalar An[0][0] is 1 + 3*alpha mod 9 at l = 3, and 1 at l > 3
    if ell == 3:
        constants = {"alpha": (An[0][0] - 1) // 3, "beta": An[0][1] // 3, "gamma": An[1][0] // 3,
                     "delta": (An[1][1] - 2) // 3, "c": None}
    else:
        constants = {"alpha": 0, "beta": None, "gamma": None, "delta": None, "c": None}
    return GbarGroup(ell, case, An, constants)


def _first_moved_vector(basis: ec.TorsionBasis, A, ell: int):
    """First point (in canonical point order) not fixed mod l; it has exact order l'."""
    Abar = tuple(tuple(v % ell for v in r) for r in A)
    for _, vec in sorted(basis.table.items()):
        vbar = (vec[0] % ell, vec[1] % ell)
        if mat_apply(Abar, vbar, ell) != vbar:
            return vec
    raise CaseMismatch("no moved torsion vector found")


def _first_eigenvector(A, lam, ell):
    for i, j in itertools.product(range(ell), repeat=2):
        if (i, j) == (0, 0):
            continue
        if mat_apply(A, (i, j), ell) == ((lam * i) % ell, (lam * j) % ell):
            return (i, j)
    return None


# ---------------------------------------------------------------------------
# abstract Galois data (l = 3, level 9)

class AbstractGaloisData:
    """Galois-side input for the abstract checkers: generator matrices of the
    image in GL2(Z/9) (each congruent to the identity mod 3), the character
    on those generators, the character's restriction to a 9-torsion basis,
    and two field-level flags the matrices cannot see.

    ``closure`` is the subgroup generated inside GL2(Z/9) x Z/3, pairing
    each matrix with the character value of a group element realizing it.
    """

    __slots__ = (
        "generators",
        "chi_on_generators",
        "chi_on_torsion",
        "has_ninth_root",
        "unique_cubic_extension",
        "closure",
    )

    def __init__(self, generators, chi_on_generators, chi_on_torsion,
                 has_ninth_root, unique_cubic_extension):
        self.generators = generators
        self.chi_on_generators = chi_on_generators
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


def _augmented_closure(generators, chi_values):
    gens = [(g, c % 3) for g, c in zip(generators, chi_values)]
    seen = {(mat_id(), 0)}
    frontier = [(mat_id(), 0)]
    while frontier:
        cur_m, cur_c = frontier.pop()
        for g, c in gens:
            nxt = (mat_mul(cur_m, g, 9), (cur_c + c) % 3)
            if nxt not in seen:
                if len(seen) >= 3**5:
                    raise InvalidData("generated group is larger than the mod-3 congruence kernel allows")
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


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
        if mat_sub(mat, mat_id(), 3) != ((0, 0), (0, 0)):
            raise NotCongruentIdentity(f"generators[{idx}] is not congruent to the identity mod 3")
        if mat_det(mat, 9) % 3 == 0:  # unreachable once = I mod 3 holds; kept as a guard
            raise NotInvertible(f"generators[{idx}] is not invertible mod 9")
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
