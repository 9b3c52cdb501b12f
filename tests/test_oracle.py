"""Lifting-oracle internals: soundness, monotonicity, brute-force agreement."""

import itertools
import random

import pytest

import fixtures
from ellmassey import oracle, unitri
from ellmassey.errors import GroupMismatch, InternalError, UnsoundLift
from ellmassey.oracle import (
    center_lift_exists,
    find_full_lift,
    lift_is_sound,
    oracle_contains_zero,
    oracle_cup,
    oracle_lift_witness,
    oracle_nonempty,
)


def _superdiags(g, c1, c2, c3):
    return [(c1.values[i], c2.values[i], c3.values[i]) for i in range(len(g.gen_names))]


def test_zero_characters_always_lift():
    for ell, case in [(3, "full_torsion"), (5, "unipotent_line"), (3, "split_line")]:
        g = fixtures.group(ell, case)
        zero = g.characters()[0]
        assert zero.is_zero()
        assert oracle_nonempty(zero, zero, zero, g)
        assert oracle_contains_zero(zero, zero, zero, g)
        assert oracle_cup(zero, zero, g)


def test_cup_with_zero_left_factor_always_lifts():
    g = fixtures.group(5, "split_line")
    zero = g.characters()[0]
    for chi in g.characters():
        assert oracle_cup(zero, chi, g)
        assert oracle_cup(chi, zero, g)


def test_split_independent_pair_has_no_cup_lift():
    g = fixtures.group(5, "split_line")
    chars = {chi.values: chi for chi in g.characters()}
    assert not oracle_cup(chars[(1, 0)], chars[(0, 1)], g)
    assert oracle_cup(chars[(1, 0)], chars[(2, 0)], g)


def test_witness_soundness_and_determinism():
    rng = random.Random(7)
    for ell, case in [(3, "full_torsion"), (3, "unipotent_line"), (5, "unipotent_line")]:
        g = fixtures.group(ell, case)
        chars = g.characters()
        pres = g.presentation()
        for _ in range(40):
            c1, c2, c3 = (rng.choice(chars) for _ in range(3))
            w1 = oracle_lift_witness(c1, c2, c3, g)
            w2 = oracle_lift_witness(c1, c2, c3, g)
            assert w1 == w2  # reproducible
            if w1 is not None:
                assert lift_is_sound(pres, _superdiags(g, c1, c2, c3), w1)
                # superdiagonals reproduce the three characters
                for i, name in enumerate(g.gen_names):
                    assert w1[name][:3] == (c1.values[i], c2.values[i], c3.values[i])


def test_witness_relations_hold_under_generic_multiplication():
    g = fixtures.group(3, "unipotent_line")
    chars = g.characters()
    pres = g.presentation()
    rng = random.Random(11)
    checked = 0
    for _ in range(60):
        c1, c2, c3 = (rng.choice(chars) for _ in range(3))
        w = oracle_lift_witness(c1, c2, c3, g)
        if w is None:
            continue
        checked += 1
        imgs = {name: unitri.U4Matrix.from_raw(3, w[name]) for name in g.gen_names}
        for rel in pres.relations:
            lhs = unitri.u4_identity(3)
            for gi, e in rel.lhs:
                lhs = lhs * imgs[g.gen_names[gi]] ** e
            rhs = unitri.u4_identity(3)
            for gi, e in rel.rhs:
                rhs = rhs * imgs[g.gen_names[gi]] ** e
            assert lhs == rhs
    assert checked > 10


def test_monotonicity_contains_zero_implies_nonempty():
    rng = random.Random(13)
    for ell, case in [(3, "full_torsion"), (5, "unipotent_line"), (7, "split_line")]:
        g = fixtures.group(ell, case)
        chars = g.characters()
        for _ in range(150):
            c1, c2, c3 = (rng.choice(chars) for _ in range(3))
            if oracle_contains_zero(c1, c2, c3, g):
                assert oracle_nonempty(c1, c2, c3, g)


# ---------------------------------------------------------------------------
# reference: the probing solve, reading the lifting system afresh per question

_CUP_SLOTS = (3,)
_QUOTIENT_SLOTS = (3, 5)
_FULL_SLOTS = (3, 4, 5)


def _reference_lift(pres, superdiags, slots):
    """Generator images making every relation residual vanish, or None.

    Every generator image has its superdiagonal pinned and its other free
    entries 0, except the unknowns at ``slots``. Each residual slot is
    affine in the unknowns, so its coefficients are read off by probing the
    residual at the pinned images and at the pinned images plus each unit
    vector; the residual entries before the first slot are the
    superdiagonal ones, which no unknown can change.
    """
    l = pres.ell
    base = [(s[0] % l, s[1] % l, s[2] % l, 0, 0, 0) for s in superdiags]
    k = len(slots)
    n_unknowns = k * len(base)
    eqs = []
    for rel in pres.relations:
        r0 = oracle._residual_u4(l, base, rel)
        if any(r0[: slots[0]]):
            return None
        rows = [[0] * n_unknowns for _ in slots]
        for g in sorted({g for g, _ in rel.lhs + rel.rhs}):
            images = list(base)
            for j, s in enumerate(slots):
                images[g] = base[g][:s] + (1,) + base[g][s + 1 :]
                r1 = oracle._residual_u4(l, images, rel)
                for row, t in zip(rows, slots):
                    row[g * k + j] = (r1[t] - r0[t]) % l
        eqs.extend((row, -r0[t]) for row, t in zip(rows, slots))
    sol = oracle._solve_linear_mod(eqs, n_unknowns, l)
    if sol is None:
        return None
    images = []
    for g, img in enumerate(base):
        img = list(img)
        for j, s in enumerate(slots):
            img[s] = sol[g * k + j]
        images.append(tuple(img))
    return images


def _triples_to_check(chars, seed):
    if len(chars) ** 3 <= 729:
        return list(itertools.product(chars, repeat=3))
    rng = random.Random(seed)
    return [tuple(rng.choice(chars) for _ in range(3)) for _ in range(300)]


@pytest.mark.parametrize("key", sorted(fixtures.CURVES), ids=lambda k: f"l{k[0]}-{k[1]}")
def test_compiled_system_matches_probing_reference(key):
    """Witnesses, nonemptiness and cups equal those of the probing solve."""
    g = fixtures.group(*key)
    pres = g.presentation()
    for c1, c2, c3 in _triples_to_check(g.characters(), 43):
        diags = _superdiags(g, c1, c2, c3)
        ref = _reference_lift(pres, diags, _FULL_SLOTS)
        expected = None if ref is None else dict(zip(pres.gen_names, ref))
        assert find_full_lift(pres, diags) == expected
        assert oracle_lift_witness(c1, c2, c3, g) == expected
        nonempty = _reference_lift(pres, diags, _QUOTIENT_SLOTS) is not None
        assert center_lift_exists(pres, diags) == nonempty
        assert oracle_nonempty(c1, c2, c3, g) == nonempty
        cup_diags = [(a, b, 0) for a, b in zip(c1.values, c2.values)]
        cup = _reference_lift(pres, cup_diags, _CUP_SLOTS) is not None
        assert oracle_cup(c1, c2, g) == cup


def test_compiled_system_matches_reference_off_characters():
    """The low-level API also agrees on superdiagonals that are not characters."""
    g = fixtures.group(3, "unipotent_line")
    pres = g.presentation()
    rng = random.Random(47)
    for _ in range(200):
        diags = [tuple(rng.randrange(3) for _ in range(3)) for _ in pres.gen_names]
        ref = _reference_lift(pres, diags, _FULL_SLOTS)
        expected = None if ref is None else dict(zip(pres.gen_names, ref))
        assert find_full_lift(pres, diags) == expected
        nonempty = _reference_lift(pres, diags, _QUOTIENT_SLOTS) is not None
        assert center_lift_exists(pres, diags) == nonempty


def test_compiled_table_disagreement_raises(monkeypatch):
    """A compiled table that disagrees with the residual is an internal error."""
    pres = fixtures.group(5, "unipotent_line").presentation()
    oracle._LiftSystem(pres)  # the real tables pass their check
    real = oracle._RelationForms.residual

    def off_by_one_in_v(self, l, images):
        r = real(self, l, images)
        return r[:4] + ((r[4] + 1) % l,) + r[5:]

    monkeypatch.setattr(oracle._RelationForms, "residual", off_by_one_in_v)
    with pytest.raises(InternalError):
        oracle._LiftSystem(pres)


def test_nonempty_equals_cup_pair_condition():
    # the two oracles must agree: nonempty iff both consecutive cups lift
    for ell, case in [(3, "full_torsion"), (3, "split_line"), (5, "unipotent_line")]:
        g = fixtures.group(ell, case)
        chars = g.characters()
        rng = random.Random(17)
        triples = (
            list(itertools.product(chars, repeat=3))
            if len(chars) <= 9
            else [tuple(rng.choice(chars) for _ in range(3)) for _ in range(400)]
        )
        pres = g.presentation()
        for c1, c2, c3 in triples:
            nonempty = oracle_nonempty(c1, c2, c3, g)
            assert nonempty == (oracle_cup(c1, c2, g) and oracle_cup(c2, c3, g))
            # the joint (u, w) system of the probing reference, not split by pairs
            joint = _reference_lift(pres, _superdiags(g, c1, c2, c3), _QUOTIENT_SLOTS)
            assert nonempty == (joint is not None)


def test_structured_search_matches_bruteforce_l3():
    """The linear solve finds a lift exactly when the literal (u,v,w)^3
    brute force does."""
    rng = random.Random(19)
    for case in ("full_torsion", "unipotent_line", "split_line", "no_fixed_points"):
        g = fixtures.group(3, case)
        chars = g.characters()
        pres = g.presentation()
        for _ in range(25):
            c1, c2, c3 = (rng.choice(chars) for _ in range(3))
            diags = _superdiags(g, c1, c2, c3)
            fast = find_full_lift(pres, diags)
            slow = _full_lift_bruteforce(pres, diags)
            assert (fast is None) == (slow is None)
            if slow is not None:
                assert lift_is_sound(pres, diags, slow)


def _full_lift_bruteforce(pres, diags):
    """Literal scan over all (u, v, w) per generator: a full U4 lift, or None."""
    l = pres.ell
    space = [
        [(s[0], s[1], s[2], u, v, w) for u in range(l) for v in range(l) for w in range(l)]
        for s in diags
    ]
    for images in itertools.product(*space):
        if all(oracle._residual_u4(l, images, rel) == unitri.U4_ID for rel in pres.relations):
            return dict(zip(pres.gen_names, images))
    return None


def _center_lift_bruteforce(pres, diags):
    """Literal scan over all (u, w) per generator: a lift into U4 modulo its
    center exists iff every relation residual is central."""
    l = pres.ell
    space = [
        [(s[0], s[1], s[2], u, 0, w) for u in range(l) for w in range(l)] for s in diags
    ]
    for images in itertools.product(*space):
        residuals = (oracle._residual_u4(l, images, rel) for rel in pres.relations)
        if all(r[:4] == (0, 0, 0, 0) and r[5] == 0 for r in residuals):
            return True
    return False


def _eval_word_u3(l, images, word):
    acc = unitri.U3_ID
    for g, e in word:
        acc = unitri.u3_mul_raw(l, acc, unitri.u3_pow_raw(l, images[g], e))
    return acc


def _cup_lift_bruteforce(pres, diag1, diag2):
    """Literal scan over all U3 corners per generator, in U3 arithmetic."""
    l = pres.ell
    space = [[(a, b, c) for c in range(l)] for a, b in zip(diag1, diag2)]
    for images in itertools.product(*space):
        if all(
            _eval_word_u3(l, images, rel.lhs) == _eval_word_u3(l, images, rel.rhs)
            for rel in pres.relations
        ):
            return True
    return False


@pytest.mark.parametrize("case", ["full_torsion", "unipotent_line", "split_line", "no_fixed_points"])
def test_center_lift_matches_bruteforce_l3(case):
    rng = random.Random(41)
    g = fixtures.group(3, case)
    chars = g.characters()
    pres = g.presentation()
    for _ in range(25):
        c1, c2, c3 = (rng.choice(chars) for _ in range(3))
        diags = _superdiags(g, c1, c2, c3)
        assert center_lift_exists(pres, diags) == _center_lift_bruteforce(pres, diags)


@pytest.mark.parametrize("case", ["full_torsion", "unipotent_line", "split_line", "no_fixed_points"])
def test_cup_lift_matches_corner_scan_l3(case):
    g = fixtures.group(3, case)
    pres = g.presentation()
    for c1, c2 in itertools.product(g.characters(), repeat=2):
        assert oracle_cup(c1, c2, g) == _cup_lift_bruteforce(pres, c1.values, c2.values)


def test_unsound_witness_raises_even_under_optimization(monkeypatch):
    """The witness re-check is an explicit error, not an assert."""
    g = fixtures.group(3, "full_torsion")
    zero = g.characters()[0]
    monkeypatch.setattr(oracle, "lift_is_sound", lambda pres, diags, witness: False)
    with pytest.raises(UnsoundLift):
        oracle_lift_witness(zero, zero, zero, g)
    with pytest.raises(UnsoundLift):
        find_full_lift(g.presentation(), _superdiags(g, zero, zero, zero))


def test_torsion_restriction_lifts_whenever_nonempty():
    """On the torsion subgroup alone, nonempty implies contains-zero
    (exhaustive at l = 3)."""
    for case in ("full_torsion", "unipotent_line"):
        g = fixtures.group(3, case)
        pres = g.torsion_presentation()
        values = list(itertools.product(range(3), repeat=g.rank))
        for v1, v2, v3 in itertools.product(values, repeat=3):
            diags = [(v1[i], v2[i], v3[i]) for i in range(g.rank)]
            if center_lift_exists(pres, diags):
                assert find_full_lift(pres, diags) is not None


def test_scaling_invariance_of_oracle_answers():
    rng = random.Random(23)
    for ell, case in [(3, "full_torsion"), (5, "unipotent_line")]:
        g = fixtures.group(ell, case)
        chars = g.characters()
        units = range(1, ell)
        for _ in range(60):
            c1, c2, c3 = (rng.choice(chars) for _ in range(3))
            base_ne = oracle_nonempty(c1, c2, c3, g)
            base_cz = oracle_contains_zero(c1, c2, c3, g)
            a, b, c = (rng.choice(units) for _ in range(3))
            assert oracle_nonempty(c1.scaled(a), c2.scaled(b), c3.scaled(c), g) == base_ne
            assert oracle_contains_zero(c1.scaled(a), c2.scaled(b), c3.scaled(c), g) == base_cz


def test_center_coordinate_is_free_modulo_solved_system():
    """Perturbing a witness's central entries by any solution of the
    homogeneous system keeps it a homomorphism; the v-freedom is real."""
    g = fixtures.group(3, "full_torsion")
    chars = g.characters()
    pres = g.presentation()
    rng = random.Random(29)
    for _ in range(20):
        c1, c2, c3 = (rng.choice(chars) for _ in range(3))
        w = oracle_lift_witness(c1, c2, c3, g)
        if w is None:
            continue
        # in the full-torsion presentation every relation has zero exponent
        # sums mod 3, so arbitrary central shifts stay homomorphisms
        shifted = {}
        for name in g.gen_names:
            a1, a2, a3, u, v, wv = w[name]
            shifted[name] = (a1, a2, a3, u, (v + rng.randrange(3)) % 3, wv)
        assert lift_is_sound(pres, _superdiags(g, c1, c2, c3), shifted)


def test_group_mismatch_rejected():
    g1 = fixtures.group(3, "full_torsion")
    g2 = fixtures.group(3, "split_line")
    chi1 = g1.characters()[1]
    chi2 = g2.characters()[1]
    with pytest.raises(GroupMismatch):
        oracle_cup(chi1, chi2, g1)
    with pytest.raises(GroupMismatch):
        oracle_nonempty(chi1, chi1, chi2, g1)

