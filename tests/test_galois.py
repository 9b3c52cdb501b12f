"""Case classification, group construction, characters, abstract data."""

import itertools
import random

import pytest

import fixtures
from ellmassey import ec, ff, galois
from ellmassey.errors import (
    InvalidData,
    NotCongruentIdentity,
    UnsupportedLevel,
)
from ellmassey.galois import (
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


def _isomorphism_classes(p):
    """The first (a, b) of each GF(p)-isomorphism class of nonsingular curves:
    (a, b) ~ (u^4 a, u^6 b) for u != 0."""
    seen = set()
    for a, b in itertools.product(range(p), repeat=2):
        if (4 * a**3 + 27 * b**2) % p and (a, b) not in seen:
            seen.update(fixtures.isomorphism_orbit(a, b, p))
            yield a, b


@pytest.mark.parametrize("p", [p for p in range(5, 80) if ff.is_prime(p)])
def test_class_key_is_a_complete_isomorphism_invariant(p):
    """ec.class_key splits the nonsingular pairs into exactly the orbits the
    reference marks, and there are 2p + 6, 2p + 2, 2p + 4, 2p of them for
    p = 1, 5, 7, 11 mod 12."""
    orbits = {fixtures.isomorphism_orbit(a, b, p) for a, b in _isomorphism_classes(p)}
    by_key = {}
    for a, b in itertools.product(range(p), repeat=2):
        if (4 * a**3 + 27 * b**2) % p:
            by_key.setdefault(ec.class_key(a, b, p), set()).add((a, b))
    assert {frozenset(v) for v in by_key.values()} == orbits
    assert len(by_key) == 2 * p + {1: 6, 5: 2, 7: 4, 11: 0}[p % 12]


def test_case_from_rank_matches_classify_case_on_small_fields():
    """Every nonsingular curve up to isomorphism, which keeps the rank and
    conjugates the Frobenius matrix. At the last four fields only classes of
    rank >= 1 get a matrix: a rank-0 class there puts E[l] over a field of
    degree up to l^2 - 1 and costs 0.1-0.8 s on a 2-core host."""
    reached = {3: set(), 5: set(), 7: set()}
    for p, ell, every_rank in [
        (5, 3, True), (7, 3, True), (11, 5, True),
        (7, 5, False), (31, 5, False), (13, 7, False), (29, 7, False),
    ]:
        F = ff.make_field(p, 1)
        for a, b in _isomorphism_classes(p):
            curve = ec.curve_new(F, a, b)
            rank = ec.rational_torsion_rank(curve, ell)
            if rank or every_rank:
                case = case_from_rank(rank, p, ell)
                assert classify_case(ec.frobenius_matrix(ec.torsion_basis(curve, ell)), ell) is case
                reached[ell].add(case)
    assert reached[3] == reached[5] == set(GaloisCase)
    assert reached[7] == {GaloisCase.SPLIT_LINE, GaloisCase.UNIPOTENT_LINE}


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
