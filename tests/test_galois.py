"""Case classification, group construction, characters, abstract data."""

import itertools
import random
from collections import Counter

import pytest

import fixtures
from ellmassey import ec, ff, galois
from ellmassey.errors import (
    InvalidData,
    NotCongruentIdentity,
    UnsupportedLevel,
)
from ellmassey.galois import (
    AbstractGaloisData,
    GaloisCase,
    build_gbar,
    case_from_rank,
    classify_case,
    enumerate_characters,
    load_abstract,
    mat_apply,
    mat_det,
    mat_id,
    mat_mul,
)


def test_classify_identity():
    A = ((1, 0), (0, 1))
    assert classify_case(A, 3) is GaloisCase.FULL_TORSION


def test_classify_unipotent():
    A = ((1, 1), (0, 1))
    assert classify_case(A, 5) is GaloisCase.UNIPOTENT_LINE


def test_classify_split():
    A = ((1, 0), (0, 2))
    assert classify_case(A, 5) is GaloisCase.SPLIT_LINE


def test_classify_no_fixed_points():
    A = ((2, 0), (0, 2))
    assert classify_case(A, 3) is GaloisCase.NO_FIXED_POINTS


def test_classify_stable_under_conjugation():
    rng = random.Random(31)
    for ell in (3, 5, 7):
        mats = []
        for _ in range(40):
            M = ((rng.randrange(ell), rng.randrange(ell)), (rng.randrange(ell), rng.randrange(ell)))
            if mat_det(M, ell) != 0:
                mats.append(M)
        conjugators = [
            ((a, b), (c, d))
            for a, b, c, d in itertools.product(range(ell), repeat=4)
            if (a * d - b * c) % ell != 0
        ]
        for M in mats[:10]:
            base_case = classify_case(M, ell)
            for S in rng.sample(conjugators, 25):
                Sinv = galois.mat_inv(S, ell)
                conj = mat_mul(Sinv, mat_mul(M, S, ell), ell)
                assert classify_case(conj, ell) is base_case


@pytest.mark.parametrize(
    "ell,case,order,nchars",
    [
        (3, "full_torsion", 729, 27),
        (3, "split_line", 81, 9),
        (5, "split_line", 25, 25),
        (7, "split_line", 49, 49),
        (3, "unipotent_line", 729, 9),
        (5, "unipotent_line", 125, 25),
        (7, "unipotent_line", 343, 49),
        (3, "no_fixed_points", 9, 3),
        (5, "no_fixed_points", 5, 5),
        (7, "no_fixed_points", 7, 7),
        (5, "full_torsion", 125, 125),
    ],
)
def test_group_shapes(ell, case, order, nchars):
    g = fixtures.group(ell, case)
    assert g.case.value == case
    assert g.order == order
    assert len(g.characters()) == nchars


def test_build_matches_classify_on_frobenius_matrix():
    # the rank-based construction and the matrix classifier must agree
    for ell, case in [
        (3, "full_torsion"),
        (3, "split_line"),
        (5, "split_line"),
        (3, "unipotent_line"),
        (5, "unipotent_line"),
        (3, "no_fixed_points"),
    ]:
        c = fixtures.curve(ell, case)
        g = fixtures.group(ell, case)
        basis = ec.torsion_basis(c, ell)
        action = ec.frobenius_matrix(basis)
        assert classify_case(action, ell).value == g.case.value


def test_case_from_rank_matches_classify_case_on_every_matrix():
    # rank = dimension of the fixed space of A mod l, q = det A (the Weil pairing)
    for ell in (3, 5, 7):
        for a, b, c, d in itertools.product(range(ell), repeat=4):
            A = ((a, b), (c, d))
            if mat_det(A, ell) == 0:
                continue
            fixed = sum(mat_apply(A, v, ell) == v for v in itertools.product(range(ell), repeat=2))
            rank = {1: 0, ell: 1, ell * ell: 2}[fixed]
            assert case_from_rank(rank, mat_det(A, ell), ell) is classify_case(A, ell)


@pytest.mark.parametrize("p", [p for p in range(5, 80) if ff.is_prime(p)])
def test_class_key_is_a_complete_isomorphism_invariant(p):
    """ec.class_key splits the nonsingular pairs into exactly the orbits the
    reference marks, and there are 2p + 6, 2p + 2, 2p + 4, 2p of them for
    p = 1, 5, 7, 11 mod 12."""
    orbits = {fixtures.isomorphism_orbit(a, b, p) for a, b in fixtures.isomorphism_classes(p)}
    by_key = {}
    for a, b in itertools.product(range(p), repeat=2):
        if (4 * a**3 + 27 * b**2) % p:
            by_key.setdefault(ec.class_key(a, b, p), set()).add((a, b))
    assert {frozenset(v) for v in by_key.values()} == orbits
    assert len(by_key) == 2 * p + {1: 6, 5: 2, 7: 4, 11: 0}[p % 12]


def _normalized_by_search(basis, A, case, q, ell):
    """(action, constants) of a fixed-line group at the prime l by the
    normalization build_gbar once searched for at l = 3, carried out at the
    basis's level n (9 for l = 3, else l) on the E[n] basis and its Frobenius
    matrix A: A itself for full torsion, else A in the basis (mprime, m) of a
    unipotent line, m the first point moved mod l, or in the first
    eigenvectors mod l for 1 and q of a split one. The reference for the
    groups build_gbar reads off the case at l = 5, 7 and off Cayley-Hamilton
    and kernel vectors at l = 3."""
    n = basis.n
    if case is GaloisCase.FULL_TORSION:
        return A, None
    if case is GaloisCase.UNIPOTENT_LINE:
        m = next(v for _, v in sorted(basis.table.items())
                 if mat_apply(A, v, ell) != (v[0] % ell, v[1] % ell))
        mp = mat_apply(galois.mat_sub(A, mat_id(), n), m, n)
        An = galois.mat_conj(A, ((mp[0], m[0]), (mp[1], m[1])), n)
        alpha, gamma = (An[0][0] - 1) % n // ell, An[1][0] % n // ell
        return An, {"alpha": alpha, "beta": 0, "gamma": gamma, "delta": 0, "c": gamma}
    v1, v2 = (
        next(v for v in itertools.product(range(ell), repeat=2)
             if v != (0, 0) and mat_apply(A, v, ell) == (lam * v[0] % ell, lam * v[1] % ell))
        for lam in (1, q % ell)
    )
    An = galois.mat_conj(A, ((v1[0], v2[0]), (v1[1], v2[1])), n)
    if n == ell:
        return An, {"alpha": 0, "beta": None, "gamma": None, "delta": None, "c": None}
    return An, {"alpha": (An[0][0] - 1) // ell, "beta": An[0][1] // ell, "gamma": An[1][0] // ell,
                "delta": (An[1][1] - 2) // ell, "c": None}


def test_case_from_rank_matches_classify_case_on_small_fields():
    """Every nonsingular curve up to isomorphism, which keeps the rank and
    conjugates the Frobenius matrix. At the two l = 7 fields only classes of
    rank >= 1 get a matrix: their 80 rank-0 classes put E[7] over fields of
    degree up to 48 and cost about 3.7 s together on a 2-core host. At l = 5, 7
    a class with a fixed line gets the group its basis normalizes to."""
    reached = {3: set(), 5: set(), 7: set()}
    for p, ell, every_rank in [
        (5, 3, True), (7, 3, True), (11, 5, True),
        (7, 5, True), (31, 5, True), (13, 7, False), (29, 7, False),
    ]:
        F = ff.make_field(p, 1)
        for a, b in fixtures.isomorphism_classes(p):
            curve = ec.curve_new(F, a, b)
            rank = ec.rational_torsion_rank(curve, ell)
            if rank or every_rank:
                case = case_from_rank(rank, p, ell)
                basis = ec.torsion_basis(curve, ell)
                A = ec.frobenius_matrix(basis)
                assert classify_case(A, ell) is case
                reached[ell].add(case)
                if rank and ell > 3:
                    g = build_gbar(curve, ell)
                    assert (g.action, g.constants) == _normalized_by_search(basis, A, case, p, ell)
    assert reached[3] == reached[5] == set(GaloisCase)
    assert reached[7] == {GaloisCase.SPLIT_LINE, GaloisCase.UNIPOTENT_LINE}


def test_ell3_normalized_action_matches_the_point_count():
    """The level-9 action of every l = 3 group with a fixed line is a Frobenius
    matrix, so its det is q and its trace t = q + 1 - #E(F_q) mod 9 (Silverman,
    AEC V.2.3.1). Then the unipotent action ((1 + 3 alpha, 1), (3 gamma, 1)) is
    ((t - 1, 1), (t - 1 - q, 1)), and the split diagonal holds the roots of
    X^2 - tX + q, 1 then 2 mod 3. count_points shares no code with build_gbar.
    The action and constants also equal the search-based normalization of the
    E[9] basis (_normalized_by_search)."""
    reached = Counter()
    for p in (5, 7, 11, 13):
        F = ff.make_field(p, 1)
        for a, b in fixtures.isomorphism_classes(p):
            curve = ec.curve_new(F, a, b)
            g = build_gbar(curve, 3)
            if g.action is None:
                continue
            reached[g.case] += 1
            t = p + 1 - ec.count_points(curve)
            (m00, m01), (m10, m11) = g.action
            assert (m00 * m11 - m01 * m10 - p) % 9 == 0 and (m00 + m11 - t) % 9 == 0, (p, a, b)
            if g.case is GaloisCase.UNIPOTENT_LINE:
                assert g.action == (((t - 1) % 9, 1), ((t - 1 - p) % 9, 1)), (p, a, b)
            elif g.case is GaloisCase.SPLIT_LINE:
                assert (m00 % 3, m11 % 3) == (1, 2), (p, a, b)
                assert all((x * x - t * x + p) % 9 == 0 for x in (m00, m11)), (p, a, b)
            basis = ec.torsion_basis(curve, 9)
            reference = _normalized_by_search(basis, ec.frobenius_matrix(basis), g.case, p, 3)
            assert (g.action, g.constants) == reference, (p, a, b)
    assert reached == {
        GaloisCase.SPLIT_LINE: 14, GaloisCase.UNIPOTENT_LINE: 16, GaloisCase.FULL_TORSION: 3,
    }


def test_split_line_alpha_ell3():
    g = fixtures.group(3, "split_line")
    alpha = g.constants["alpha"]
    assert alpha in (0, 1, 2)
    assert g.xi == ((1 + 3 * alpha) % 9,) or g.xi == (((1 + 3 * alpha) % 9,),)


def test_split_line_alpha_matches_literal_quotient():
    """Independent derivation: alpha is the scalar by which Frobenius acts on
    the quotient of the 9-torsion by the image of (phi^9 - 1)."""
    g = fixtures.group(3, "split_line")
    A = ec.frobenius_matrix(ec.torsion_basis(fixtures.curve(3, "split_line"), 9))  # raw level-9 matrix
    A9 = A
    P = A
    for _ in range(8):
        P = galois.mat_mul(P, A9, 9)
    M = galois.mat_sub(P, galois.mat_id(), 9)  # phi^9 - 1
    image = {galois.mat_apply(M, (i, j), 9) for i in range(9) for j in range(9)}
    assert len(image) == 9  # index 9: the quotient is Z/9
    scalar = (1 + 3 * g.constants["alpha"]) % 9
    for i in range(9):
        for j in range(9):
            v = (i, j)
            diff_vec = tuple(
                (x - scalar * y) % 9 for x, y in zip(galois.mat_apply(A9, v, 9), v)
            )
            assert diff_vec in image
    # uniqueness: no other scalar of the form 1 + 3t works
    for t in range(3):
        s = (1 + 3 * t) % 9
        if s == scalar:
            continue
        bad = any(
            tuple((x - s * y) % 9 for x, y in zip(galois.mat_apply(A9, (i, j), 9), (i, j)))
            not in image
            for i in range(9)
            for j in range(9)
        )
        assert bad


def test_split_line_trivial_action_above_3():
    for ell in (5, 7):
        g = fixtures.group(ell, "split_line")
        assert g.xi == ((1,),)
        assert g.constants["alpha"] == 0


def test_unipotent_action_shape():
    for ell in (3, 5, 7):
        g = fixtures.group(ell, "unipotent_line")
        lp = g.ell_prime
        (a11, a12), (a21, a22) = g.xi
        assert a12 == 1 and a22 == 1  # second column is exactly (1, 1)
        assert (a11 - 1) % ell == 0 and a21 % ell == 0
        cst = g.constants
        assert cst["beta"] == 0 and cst["delta"] == 0
        if ell > 3:
            assert g.xi == ((1, 1), (0, 1)) and cst["c"] == 0
        else:
            assert cst["c"] == cst["gamma"]
        # the normalized matrix still has determinant q mod l'
        assert galois.mat_det(g.xi, lp) == fixtures.curve(ell, "unipotent_line").base.order % lp


def test_unipotent_c_is_basis_invariant():
    # recompute c from any other admissible m: (phi-1)^2 m = 3c m mod <3(phi-1)m>
    g = fixtures.group(3, "unipotent_line")
    lp = 9
    A = g.action
    AmI = galois.mat_sub(A, galois.mat_id(), lp)
    sq = galois.mat_mul(AmI, AmI, lp)
    c = g.constants["c"]
    for i, j in itertools.product(range(9), repeat=2):
        vec = (i, j)
        if (i % 3, j % 3) == (0, 0):
            continue
        vbar = (i % 3, j % 3)
        if galois.mat_apply(tuple(tuple(x % 3 for x in r) for r in A), vbar, 3) == vbar:
            continue
        mprime = galois.mat_apply(AmI, vec, lp)
        target = galois.mat_apply(sq, vec, lp)
        # solve target = 3*c'*vec + k*(3*mprime) and check c' == c
        found = set()
        for cp in range(3):
            for k in range(9):
                lhs = (
                    (3 * cp * vec[0] + k * 3 * mprime[0]) % 9,
                    (3 * cp * vec[1] + k * 3 * mprime[1]) % 9,
                )
                if lhs == target:
                    found.add(cp)
        assert found == {c}


def test_full_torsion_xi_congruent_identity():
    for name in ("full_torsion", "full_torsion_2", "full_torsion_3"):
        g = fixtures.group(3, name)
        assert all((g.xi[i][j] - (1 if i == j else 0)) % 3 == 0 for i in range(2) for j in range(2))


def test_no_fixed_points_degenerate():
    g = fixtures.group(3, "no_fixed_points")
    assert g.rank == 0
    assert g.gen_names == ("phi",)
    # characters are exactly the l maps defined by the value on phi
    assert [chi.values for chi in g.characters()] == [(0,), (1,), (2,)]


def test_prime_power_base_field():
    """q = 25: classification, constants and verdicts all use the q-power
    Frobenius, and the oracle agrees on the same-character sweep."""
    from ellmassey import massey, oracle

    F25 = ff.make_field(5, 2)
    c = ec.curve_new(F25, F25.element((0, 0)), F25.element((1, 2)))
    g = build_gbar(c, 3)
    assert g.case is GaloisCase.UNIPOTENT_LINE
    assert g.constants == {"alpha": 1, "beta": 0, "gamma": 2, "delta": 0, "c": 2}
    assert galois.mat_det(g.xi, 9) == 25 % 9
    for chi in g.characters():
        v = massey.triple_verdict(chi, chi, chi, g)
        ne = oracle.oracle_nonempty(chi, chi, chi, g)
        cz = oracle.oracle_contains_zero(chi, chi, chi, g) if ne else False
        want = "Empty" if not ne else ("ContainsZero" if cz else "NonVanishing")
        assert v.status.value == want


def test_unsupported_ell():
    with pytest.raises(UnsupportedLevel):
        build_gbar(fixtures.curve(3, "full_torsion"), 11)


class NormalForm:
    """The reference realization of a group: elements (torsion vector, phi
    exponent) with (t1, e1)(t2, e2) = (t1 + xi^{e1} t2, e1 + e2)."""

    def __init__(self, g):
        self.g = g
        # xi^e for rank 2; phi has order l' and xi^{l'} is the identity on Tbar
        self.xi_powers = [mat_id()]
        if g.rank == 2:
            for _ in range(g.ell_prime - 1):
                self.xi_powers.append(mat_mul(self.xi_powers[-1], g.xi, g.ell_prime))

    def identity(self):
        return ((0,) * self.g.rank, 0)

    def generator(self, idx: int):
        rank = self.g.rank
        if idx == rank:
            return ((0,) * rank, 1)
        t = [0] * rank
        t[idx] = 1
        return (tuple(t), 0)

    def mul(self, x, y):
        (t1, e1), (t2, e2) = x, y
        g = self.g
        rank, lp = g.rank, g.ell_prime
        if rank == 0:
            return ((), (e1 + e2) % lp)
        if rank == 1:
            s = pow(g.xi[0][0], e1 % lp, lp)
            return (((t1[0] + s * t2[0]) % lp,), (e1 + e2) % lp)
        moved = mat_apply(self.xi_powers[e1 % lp], t2, lp)
        t = tuple((a + b) % lp for a, b in zip(t1, moved))
        return (t, (e1 + e2) % lp)

    def inv(self, x):
        t, e = x
        g = self.g
        rank, lp = g.rank, g.ell_prime
        inv_e = (-e) % lp
        if rank == 0:
            return ((), inv_e)
        if rank == 1:
            s = pow(g.xi[0][0], inv_e, lp)
            return (((-s * t[0]) % lp,), inv_e)
        moved = mat_apply(self.xi_powers[inv_e], t, lp)
        return (tuple((-a) % lp for a in moved), inv_e)

    def elements(self):
        g = self.g
        for tup in itertools.product(range(g.ell_prime), repeat=g.rank + 1):
            yield (tup[:-1], tup[-1])


def test_characters_match_bruteforce_on_normal_form():
    """Characters coincide with the value maps that are homomorphisms on the
    concrete normal-form realization.

    The linear extension of an assignment is a homomorphism iff it kills
    (xi - 1) of every torsion element (checked exhaustively); the groups of
    order <= 81 additionally get the definitional all-pairs check, the larger
    ones a seeded sample of pairs.
    """
    rng = random.Random(2024)
    for ell, case in [
        (3, "full_torsion"),
        (3, "split_line"),
        (5, "split_line"),
        (7, "split_line"),
        (3, "unipotent_line"),
        (5, "unipotent_line"),
        (7, "unipotent_line"),
        (3, "no_fixed_points"),
    ]:
        g = fixtures.group(ell, case)
        nf = NormalForm(g)
        els = list(nf.elements())

        def chi_of(el, values):
            t, e = el
            return (sum(v * values[i] for i, v in enumerate(t)) + values[-1] * e) % ell

        found = []
        for values in itertools.product(range(ell), repeat=len(g.gen_names)):
            ok = all(
                chi_of(nf.mul(nf.mul(phi_el, x), nf.inv(phi_el)), values)
                == chi_of(x, values)
                for phi_el in [((0,) * g.rank, 1)]
                for x in els
            )
            if ok:
                found.append(values)
        assert found == [chi.values for chi in g.characters()]
        # definitional pair check on the accepted assignments
        pairs = (
            [(x, y) for x in els for y in els]
            if len(els) <= 81
            else [(rng.choice(els), rng.choice(els)) for _ in range(4000)]
        )
        for values in found:
            for x, y in pairs:
                assert chi_of(nf.mul(x, y), values) == (
                    chi_of(x, values) + chi_of(y, values)
                ) % ell


def test_normal_form_satisfies_presentation():
    # multiply out every relation on the normal-form realization
    for ell, case in [
        (3, "full_torsion"),
        (3, "unipotent_line"),
        (5, "unipotent_line"),
        (3, "split_line"),
        (7, "split_line"),
    ]:
        g = fixtures.group(ell, case)
        pres = g.presentation()
        nf = NormalForm(g)
        gens = [nf.generator(i) for i in range(len(g.gen_names))]

        def eval_word(word):
            acc = nf.identity()
            for idx, e in word:
                x = gens[idx] if e >= 0 else nf.inv(gens[idx])
                for _ in range(abs(e)):
                    acc = nf.mul(acc, x)
            return acc

        for rel in pres.relations:
            assert eval_word(rel.lhs) == eval_word(rel.rhs)
        # conjugation explicitly: phi x phi^-1 = xi(x) for both torsion gens
        phi = gens[-1]
        for i in range(g.rank):
            lhs = nf.mul(nf.mul(phi, gens[i]), nf.inv(phi))
            col = tuple(g.xi[j][i] % g.ell_prime for j in range(g.rank))
            assert lhs == (col, 0)


def test_group_order_matches_element_count():
    for ell, case in [(3, "full_torsion"), (3, "split_line"), (5, "unipotent_line")]:
        g = fixtures.group(ell, case)
        assert len(list(NormalForm(g).elements())) == g.order


# ---------------------------------------------------------------------------
# abstract Galois data

def _data(gens, chis=None, torsion=(0, 1), ninth=False, cubic=False):
    return {
        "generators": gens,
        "chi_on_generators": chis if chis is not None else [0] * len(gens),
        "chi_on_torsion": list(torsion),
        "has_ninth_root": ninth,
        "unique_cubic_extension": cubic,
    }


def test_load_abstract_identity():
    d = load_abstract(_data([[[1, 0], [0, 1]]], ninth=True))
    assert {m for m, _ in d.closure} == {((1, 0), (0, 1))}


def test_load_abstract_scalar_closure():
    d = load_abstract(_data([[[4, 0], [0, 4]]]))
    mats = {m for m, _ in d.closure}
    assert mats == {((1, 0), (0, 1)), ((4, 0), (0, 4)), ((7, 0), (0, 7))}
    assert {mat_det(m, 9) for m in mats} == {1, 7, 4}
    assert d.all_scalar()


def test_load_abstract_unipotent_generator():
    # (1 3; 0 1) has determinant 1, so a consistent payload must carry a
    # second generator moving the ninth roots, or set has_ninth_root = True
    d = load_abstract(_data([[[1, 3], [0, 1]]], ninth=True))
    mats = {m for m, _ in d.closure}
    assert len(mats) == 3
    assert not d.all_scalar()


def test_load_abstract_validation_errors():
    with pytest.raises(NotCongruentIdentity):
        load_abstract(_data([[[0, 1], [1, 0]]]))
    with pytest.raises(InvalidData):
        load_abstract({"generators": []})
    with pytest.raises(InvalidData):
        # scalar 4I moves the ninth roots, so has_ninth_root = True is inconsistent
        load_abstract(_data([[[4, 0], [0, 4]]], ninth=True))
    with pytest.raises(InvalidData):
        # identity-only closure fixes them, so has_ninth_root = False is inconsistent
        load_abstract(_data([[[1, 0], [0, 1]]], ninth=False))


def test_abstract_data_refuses_a_generator_not_congruent_to_identity():
    # the premise of the closure and of both checkers holds wherever the
    # data is built, not only where a JSON payload is loaded
    with pytest.raises(NotCongruentIdentity, match=r"generators\[1\]"):
        AbstractGaloisData((((4, 0), (0, 4)), ((2, 0), (0, 1))), (0, 0), (1, 0), False, False)
    with pytest.raises(NotCongruentIdentity, match=r"generators\[0\]"):
        AbstractGaloisData((((2, 0), (0, 1)),), (0,), (1, 0), False, False)


def test_closure_dets_congruent_1_mod_3():
    d = load_abstract(_data([[[4, 0], [0, 4]], [[1, 3], [0, 1]]]))
    assert all(mat_det(m, 9) % 3 == 1 for m, _ in d.closure)


def test_closure_augmented_with_character():
    d = load_abstract(_data([[[4, 0], [0, 4]]], chis=[1]))
    # chi value propagates: (4I)^k carries chi = k mod 3
    assert (((4, 0), (0, 4)), 1) in d.closure
    assert (((7, 0), (0, 7)), 2) in d.closure
    assert (((1, 0), (0, 1)), 0) in d.closure


def test_enumerate_characters_deterministic_order():
    g = fixtures.group(3, "full_torsion")
    vals = [chi.values for chi in enumerate_characters(g)]
    assert vals == sorted(vals)
    assert len(vals) == 27
