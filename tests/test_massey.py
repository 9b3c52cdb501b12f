"""Closed-form verdict engine: cups, triple dispatch, Bockstein, checkers."""

import itertools
import random
from types import SimpleNamespace

import pytest

import fixtures
from ellmassey import galois, massey, oracle
from ellmassey.errors import GroupMismatch, WrongPrime
from ellmassey.galois import load_abstract
from ellmassey.massey import (
    VerdictStatus,
    bockstein_vanishes,
    cup_vanishes,
    thm11_check,
    thm52_check,
    triple_verdict,
    verdict_table,
)


def chars_by_values(g):
    return {chi.values: chi for chi in g.characters()}


def test_cup_zero_character_always_vanishes():
    for ell, case in [(3, "full_torsion"), (5, "split_line"), (5, "unipotent_line")]:
        g = fixtures.group(ell, case)
        zero = g.characters()[0]
        for chi in g.characters():
            assert cup_vanishes(zero, chi, g)
            assert cup_vanishes(chi, zero, g)


def test_cup_split_proportional_rule():
    g = fixtures.group(5, "split_line")
    cv = chars_by_values(g)
    chi = cv[(1, 2)]
    assert cup_vanishes(chi, cv[(2, 4)], g)  # 2*chi
    assert not cup_vanishes(chi, cv[(0, 1)], g)  # independent


def test_cup_unipotent_always_vanishes():
    for ell in (3, 5, 7):
        g = fixtures.group(ell, "unipotent_line")
        chars = g.characters()
        for c1 in chars:
            for c2 in chars:
                assert cup_vanishes(c1, c2, g)


def test_cup_matches_oracle_exhaustively():
    # acceptance criterion 2 at module scale: every pair on every fixture case
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
        chars = g.characters()
        for c1 in chars:
            for c2 in chars:
                assert cup_vanishes(c1, c2, g) == oracle.oracle_cup(c1, c2, g), (
                    ell,
                    case,
                    c1.values,
                    c2.values,
                )


def test_full_torsion_cup_needs_full_proportionality():
    # torsion-proportional but phi-mismatched pairs do not cup to zero
    g = fixtures.group(3, "full_torsion")
    cv = chars_by_values(g)
    assert not cup_vanishes(cv[(1, 0, 0)], cv[(1, 0, 1)], g)
    assert not oracle.oracle_cup(cv[(1, 0, 0)], cv[(1, 0, 1)], g)
    assert cup_vanishes(cv[(1, 0, 2)], cv[(2, 0, 1)], g)


def test_verdict_zero_middle_character_contains_zero():
    for ell, case in [(3, "full_torsion"), (5, "unipotent_line"), (3, "split_line")]:
        g = fixtures.group(ell, case)
        zero = g.characters()[0]
        for chi in g.characters()[:6]:
            v = triple_verdict(chi, zero, chi, g)
            assert v.status is VerdictStatus.CONTAINS_ZERO


def test_verdict_empty_on_cup_obstruction():
    g = fixtures.group(5, "split_line")
    cv = chars_by_values(g)
    v = triple_verdict(cv[(1, 0)], cv[(0, 1)], cv[(1, 0)], g)
    assert v.status is VerdictStatus.EMPTY
    assert v.reason == "cup12-nonzero"
    v = triple_verdict(cv[(1, 0)], cv[(2, 0)], cv[(0, 1)], g)
    assert v.status is VerdictStatus.EMPTY
    assert v.reason == "cup23-nonzero"


def test_split_line_never_non_vanishing():
    for ell in (3, 5, 7):
        g = fixtures.group(ell, "split_line")
        for t in itertools.product(g.characters(), repeat=3):
            assert triple_verdict(*t, g).status is not VerdictStatus.NON_VANISHING


def test_no_fixed_points_all_contain_zero():
    g = fixtures.group(3, "no_fixed_points")
    for t in itertools.product(g.characters(), repeat=3):
        assert triple_verdict(*t, g).status is VerdictStatus.CONTAINS_ZERO


def test_unipotent_construction_triple_non_vanishing():
    """x1 = x3 = 0, phi1 = phi3 = 1, x2 = 1, phi2 = 0: condition (2) fails
    with residue -2 phi1 phi3, so the product is nonempty without zero."""
    for ell in (5, 7):
        g = fixtures.group(ell, "unipotent_line")
        cv = chars_by_values(g)
        chi1 = cv[(0, 0, 1)]
        chi2 = cv[(0, 1, 0)]
        chi3 = cv[(0, 0, 1)]
        v = triple_verdict(chi1, chi2, chi3, g)
        assert v.status is VerdictStatus.NON_VANISHING
        assert v.witness["condition1_residue"] == 0
        assert v.witness["condition2_residue"] == (-2) % ell
        assert oracle.oracle_nonempty(chi1, chi2, chi3, g)
        assert not oracle.oracle_contains_zero(chi1, chi2, chi3, g)


def test_unipotent_same_character_contains_zero():
    # chi(mprime) = chi(phi) = 0, chi(m) = 1: both conditions hold (c = 0)
    for ell in (5, 7):
        g = fixtures.group(ell, "unipotent_line")
        chi = chars_by_values(g)[(0, 1, 0)]
        v = triple_verdict(chi, chi, chi, g)
        assert v.status is VerdictStatus.CONTAINS_ZERO
        assert oracle.oracle_contains_zero(chi, chi, chi, g)


def test_full_torsion_scalar_action_all_contain_zero():
    # a synthetic group whose level-9 action is the scalar 4: every kernel
    # line is preserved, so no witness vector can exist
    g = galois.GbarGroup(3, galois.GaloisCase.FULL_TORSION, ((4, 0), (0, 4)))
    for t in itertools.product(g.characters(), repeat=3):
        v = triple_verdict(*t, g)
        assert v.status is not VerdictStatus.NON_VANISHING
        if v.status is VerdictStatus.CONTAINS_ZERO:
            assert v.reason != "kernel-vector-moved-off-line"
        # the oracle agrees
        assert (v.status is not VerdictStatus.EMPTY) == oracle.oracle_nonempty(*t, g)
        if v.status is VerdictStatus.CONTAINS_ZERO:
            assert oracle.oracle_contains_zero(*t, g)


def test_full_torsion_above_3_always_contains_zero():
    """Full rational 5-torsion: the quotient group is abelian of exponent 5
    and a length-3 product is shorter than the exponent, so every nonempty
    triple contains zero; the oracle agrees on a seeded sample."""
    g = fixtures.group(5, "full_torsion")
    assert g.order == 125
    chars = g.characters()
    rng = random.Random(59)
    for _ in range(250):
        t = tuple(rng.choice(chars) for _ in range(3))
        v = triple_verdict(*t, g)
        assert v.status is not VerdictStatus.NON_VANISHING
        ne = oracle.oracle_nonempty(*t, g)
        assert ne == (v.status is not VerdictStatus.EMPTY)
        if ne:
            assert oracle.oracle_contains_zero(*t, g)
    # cup rule on the abelian group: proportionality, matching the oracle
    for _ in range(250):
        c1, c2 = rng.choice(chars), rng.choice(chars)
        assert cup_vanishes(c1, c2, g) == oracle.oracle_cup(c1, c2, g)


def test_full_torsion_non_vanishing_needs_proportional_nonzero():
    # Whenever the verdict is NonVanishing in the full-torsion case, the
    # characters are pairwise proportional with nonzero torsion restrictions,
    # and the witness is verified by matrix arithmetic.
    found = 0
    for g in fixtures.full_torsion_groups():
        for t in itertools.product(g.characters(), repeat=3):
            v = triple_verdict(*t, g)
            if v.status is not VerdictStatus.NON_VANISHING:
                continue
            found += 1
            c1, c2, c3 = t
            assert galois.proportional(c1, c2) and galois.proportional(c2, c3)
            assert all(chi.torsion_values() != (0, 0) for chi in t)
            a = tuple(v.witness["torsion_vector"])
            image = galois.mat_apply(g.xi, a, 9)
            assert list(image) == v.witness["frobenius_image"]
            assert (c3.values[0] * a[0] + c3.values[1] * a[1]) % 3 == 0
            assert not any(
                ((lam * a[0]) % 9, (lam * a[1]) % 9) == image for lam in range(9)
            )
    assert found > 0


def test_unipotent_l3_all_c_values_agree_with_oracle():
    """Curves realizing every value of the condition-(2) constant c, swept
    exhaustively against the oracle: the constant genuinely changes which
    triples contain zero, and the engine tracks it."""
    from ellmassey import ec, ff
    from ellmassey.galois import build_gbar

    picks = {0: (7, 3, 2), 1: (7, 1, 3), 2: (7, 0, 1)}
    verdicts_by_c = {}
    for c_expected, (p, a, b) in picks.items():
        g = build_gbar(ec.curve_new(ff.make_field(p, 1), a, b), 3)
        assert g.constants["c"] == c_expected
        rows = []
        for t in itertools.product(g.characters(), repeat=3):
            v = triple_verdict(*t, g)
            ne = oracle.oracle_nonempty(*t, g)
            cz = oracle.oracle_contains_zero(*t, g) if ne else False
            want = "Empty" if not ne else ("ContainsZero" if cz else "NonVanishing")
            assert v.status.value == want
            rows.append((tuple(x.values for x in t), v.status.value))
        verdicts_by_c[c_expected] = rows
    # c is not decorative: some triple flips status between c = 0 and c = 1
    flips = [
        (t0, s0, s1)
        for (t0, s0), (_, s1) in zip(verdicts_by_c[0], verdicts_by_c[1])
        if s0 != s1
    ]
    assert flips


def test_split_line_explicit_lift_formula():
    """The constructive lift for the split case: send the torsion generator
    to the full-superdiagonal matrix and phi to the alpha-shifted matrix
    times the phi-th power; it satisfies the conjugation relation exactly."""
    from ellmassey.oracle import lift_is_sound

    for case in ("split_line", "split_line_a0"):
        g = fixtures.group(3, case)
        alpha = g.constants["alpha"]
        pres = g.presentation()
        for phi_val in range(3):
            m_img = (1, 1, 1, 0, 0, 0)
            shift = (0, 0, 0, alpha, 0, 0)
            from ellmassey.unitri import u4_mul_raw, u4_pow_raw

            phi_img = u4_mul_raw(3, shift, u4_pow_raw(3, m_img, phi_val))
            witness = {"m": m_img, "phi": phi_img}
            diags = [(1, 1, 1), (phi_val, phi_val, phi_val)]
            assert lift_is_sound(pres, diags, witness)


def test_scaling_invariance_exhaustive_l3():
    units = (1, 2)
    for case in ("full_torsion", "unipotent_line", "split_line"):
        g = fixtures.group(3, case)
        chars = g.characters()
        for t in itertools.product(chars, repeat=3):
            base = triple_verdict(*t, g).status
            for a, b, c in itertools.product(units, repeat=3):
                scaled = (t[0].scaled(a), t[1].scaled(b), t[2].scaled(c))
                assert triple_verdict(*scaled, g).status is base


@pytest.mark.parametrize("ell", [5, 7])
def test_scaling_invariance_sampled(ell):
    rng = random.Random(ell * 41)
    for case in ("unipotent_line", "split_line"):
        g = fixtures.group(ell, case)
        chars = g.characters()
        for _ in range(300):
            t = tuple(rng.choice(chars) for _ in range(3))
            base = triple_verdict(*t, g).status
            a, b, c = (rng.randrange(1, ell) for _ in range(3))
            scaled = (t[0].scaled(a), t[1].scaled(b), t[2].scaled(c))
            assert triple_verdict(*scaled, g).status is base


def test_bockstein_zero_character():
    g = fixtures.group(3, "full_torsion")
    assert bockstein_vanishes(g.characters()[0], g)


def test_bockstein_split_trivial_action():
    g = fixtures.group(3, "split_line_a0")
    assert g.constants["alpha"] == 0
    chi = chars_by_values(g)[(1, 0)]
    assert bockstein_vanishes(chi, g)


def test_bockstein_wrong_prime():
    g = fixtures.group(5, "split_line")
    with pytest.raises(WrongPrime):
        bockstein_vanishes(g.characters()[0], g)


def test_bockstein_vanishing_forces_contains_zero():
    # criterion 10 shape: beta(chi) = 0 puts zero into <chi,chi,chi>
    for g in fixtures.full_torsion_groups():
        hits = 0
        for chi in g.characters():
            if bockstein_vanishes(chi, g):
                hits += 1
                assert triple_verdict(chi, chi, chi, g).status is VerdictStatus.CONTAINS_ZERO
        assert hits > 0


def test_bockstein_matches_direct_z9_lift_search():
    # independent check: brute-force all value assignments into Z/9
    g = fixtures.group(3, "split_line")
    pres = g.presentation()
    for chi in g.characters():
        brute = False
        for values in itertools.product(range(9), repeat=len(g.gen_names)):
            if any((v - c) % 3 for v, c in zip(values, chi.values)):
                continue
            if all(
                galois.char_word_value(values, rel.lhs, 9)
                == galois.char_word_value(values, rel.rhs, 9)
                for rel in pres.relations
            ):
                brute = True
                break
        assert bockstein_vanishes(chi, g) == brute


def test_group_mismatch():
    g1 = fixtures.group(3, "full_torsion")
    g2 = fixtures.group(3, "split_line")
    with pytest.raises(GroupMismatch):
        cup_vanishes(g1.characters()[1], g2.characters()[1], g1)
    with pytest.raises(GroupMismatch):
        next(verdict_table([g1.characters()[1], g2.characters()[1]], g1))


TABLE_GROUPS = [
    (3, "full_torsion"),
    (3, "full_torsion_2"),
    (3, "full_torsion_3"),
    (3, "split_line"),
    (3, "split_line_a0"),
    (3, "unipotent_line"),
    (3, "no_fixed_points"),
    (5, "unipotent_line"),
    (7, "split_line"),
]


@pytest.mark.parametrize("ell,case", TABLE_GROUPS, ids=[f"l{e}-{c}" for e, c in TABLE_GROUPS])
def test_verdict_table_is_the_per_triple_dispatch(ell, case, monkeypatch):
    """The table yields triple_verdict of every triple in product order, and
    decides each cup once per ordered pair: n^2 decisions, not up to 2n^3."""
    g = fixtures.group(ell, case)
    chars = g.characters()
    n = len(chars)
    calls = [0]
    cup = massey._cup_vanishes

    def counted(chi1, chi2, case):
        calls[0] += 1
        return cup(chi1, chi2, case)

    monkeypatch.setattr(massey, "_cup_vanishes", counted)
    table = list(verdict_table(chars, g))
    assert calls[0] <= n * n
    monkeypatch.setattr(massey, "_cup_vanishes", cup)
    assert len(table) == n**3
    for (c1, c2, c3), v in zip(itertools.product(chars, repeat=3), table):
        assert v == triple_verdict(c1, c2, c3, g), (c1, c2, c3)


# ---------------------------------------------------------------------------
# abstract checkers

def _payload(gens, chis=None, torsion=(0, 1), ninth=False, cubic=False):
    return {
        "generators": gens,
        "chi_on_generators": chis if chis is not None else [0] * len(gens),
        "chi_on_torsion": list(torsion),
        "has_ninth_root": ninth,
        "unique_cubic_extension": cubic,
    }


SCALARS = [[[4, 0], [0, 4]]]
NON_SCALAR = [[[1, 3], [0, 1]], [[4, 0], [0, 4]]]


def test_thm52_scalar_closure_contains_zero():
    # scalars preserve every line and chi kills the Galois side: both
    # conditions fail, the lift is constructible
    d = load_abstract(_payload(SCALARS, chis=[0], torsion=(0, 1)))
    v = thm52_check(d)
    assert v.status is VerdictStatus.CONTAINS_ZERO


def test_thm52_non_scalar_closure_non_vanishing():
    # (1 3; 0 1) moves exactly the vectors with second coordinate a unit mod
    # 3, so the character must kill one of those: chi_torsion = (1, 0) puts
    # a = (0, 1) into the kernel with sigma(a) = (3, 1) off the line (Z/9)a
    d = load_abstract(_payload(NON_SCALAR, chis=[0, 0], torsion=(1, 0)))
    v = thm52_check(d)
    assert v.status is VerdictStatus.NON_VANISHING
    assert v.reason == "kernel-vector-moved-off-line"
    a = tuple(v.witness["a"])
    sigma = tuple(tuple(r) for r in v.witness["sigma"])
    assert (1 * a[0] + 0 * a[1]) % 3 == 0  # a is in the torsion kernel
    image = galois.mat_apply(sigma, a, 9)
    assert not any(((k * a[0]) % 9, (k * a[1]) % 9) == image for k in range(9))
    # the complementary character (0, 1) keeps every kernel vector on its
    # line, so condition (1) fails there
    d2 = load_abstract(_payload(NON_SCALAR, chis=[0, 0], torsion=(0, 1)))
    assert thm52_check(d2).status is VerdictStatus.CONTAINS_ZERO


def test_thm52_zero_restriction_contains_zero():
    d = load_abstract(_payload(SCALARS, torsion=(0, 0)))
    assert thm52_check(d).status is VerdictStatus.CONTAINS_ZERO


def test_thm52_rigid_cubic_condition_non_vanishing():
    # scalar closure, chi nonzero on a generator with det = 1 part in the
    # kernel: kernel = <(4I, 1)> powers with chi = 0 only at identity...
    # build: generators 4I with chi = 1: kernel matrices = {I}: dets = {1}:
    # kernel fixes ninth roots -> condition 2 fails
    d = load_abstract(_payload(SCALARS, chis=[1], torsion=(0, 1)))
    v = thm52_check(d)
    assert v.status is VerdictStatus.CONTAINS_ZERO
    assert v.reason == "kernel-fixes-ninth-roots"
    # two generators: 4I carries chi = 0 (kernel moves ninth roots),
    # another scalar generator carries chi = 1 -> rigid cubic case
    gens = [[[4, 0], [0, 4]], [[1, 0], [0, 1]]]
    d = load_abstract(_payload(gens, chis=[0, 1], torsion=(0, 1)))
    v = thm52_check(d)
    assert v.status is VerdictStatus.NON_VANISHING
    assert v.reason == "rigid-cubic-kernel"


def test_thm52_condition2_blocked_by_meeting_line():
    # iota = diag(4, 1) has det 4, lies in the chi-kernel, and preserves all
    # the kernel lines of chi_torsion = (1, 0); its shift (iota - 4) kills
    # b = (1, 0), and 0 lies in every (Z/9)a, so condition (2) is blocked
    gens = [[[4, 0], [0, 1]], [[1, 0], [0, 1]]]
    d = load_abstract(_payload(gens, chis=[0, 1], torsion=(1, 0)))
    v = thm52_check(d)
    assert v.status is VerdictStatus.CONTAINS_ZERO
    assert v.reason == "shifted-image-meets-kernel-line"


def test_thm52_scalar_times_unipotent_rigid_case():
    # sigma = 4 * (1 3; 0 1) acts as the scalar 4 on the kernel of (0, 1),
    # so condition (1) fails; the kernel's dets are {1,4,7} and the shifted
    # iota action is injective off the kernel, so condition (2) holds
    gens = [[[4, 3], [0, 4]], [[1, 0], [0, 1]]]
    d = load_abstract(_payload(gens, chis=[0, 1], torsion=(0, 1)))
    v = thm52_check(d)
    assert v.status is VerdictStatus.NON_VANISHING
    assert v.reason == "rigid-cubic-kernel"


def test_thm11_branches():
    d = load_abstract(_payload(NON_SCALAR))
    assert thm11_check(d) == {"exists_non_vanishing_chi": True, "branch": "i"}
    d = load_abstract(_payload([[[1, 0], [0, 1]]], ninth=True, cubic=False))
    assert thm11_check(d) == {"exists_non_vanishing_chi": False, "branch": "none"}
    d = load_abstract(_payload(SCALARS, ninth=False, cubic=True))
    assert thm11_check(d) == {"exists_non_vanishing_chi": False, "branch": "none"}
    d = load_abstract(_payload(SCALARS, ninth=False, cubic=False))
    assert thm11_check(d) == {"exists_non_vanishing_chi": True, "branch": "ii"}


def test_thm52_agrees_with_oracle_on_matching_group():
    """Abstract data mirroring each l = 3 full-torsion fixture gives, for each
    character nonzero on the torsion, the verdict the concrete engine and the
    oracle give for <chi, chi, chi>."""
    for g in fixtures.full_torsion_groups():
        for chi in g.characters():
            if chi.torsion_values() == (0, 0):
                continue
            d = load_abstract(
                _payload(
                    [[list(r) for r in g.xi]],
                    chis=[chi.on_phi()],
                    torsion=list(chi.torsion_values()),
                    ninth=(galois.mat_det(g.xi, 9) == 1),
                    cubic=True,
                )
            )
            status = thm52_check(d).status
            assert status is triple_verdict(chi, chi, chi, g).status
            nonempty = oracle.oracle_nonempty(chi, chi, chi, g)
            zero = nonempty and oracle.oracle_contains_zero(chi, chi, chi, g)
            assert status.value == ("Empty" if not nonempty else ("ContainsZero" if zero else "NonVanishing"))


# ---------------------------------------------------------------------------
# kernel-line searches: the enumerations the determinant tests replaced

def _reference_kernel_vectors(chi_torsion):
    """Order-9 vectors killed by the torsion restriction, lexicographically."""
    x1, x2 = chi_torsion
    out = []
    for i in range(9):
        for j in range(9):
            if i % 3 == 0 and j % 3 == 0:
                continue
            if (x1 * i + x2 * j) % 3 == 0:
                out.append((i, j))
    return out


def _reference_in_cyclic_span(w, v):
    return any(((lam * v[0]) % 9, (lam * v[1]) % 9) == tuple(w) for lam in range(9))


def _reference_moved_kernel_vector(xi, torsion_values):
    for a in _reference_kernel_vectors(torsion_values):
        image = galois.mat_apply(xi, a, 9)
        if not _reference_in_cyclic_span(image, a):
            return a, image
    return None


def _reference_condition2(data, kernel_vectors):
    if data.has_ninth_root:
        return "ninth-root-in-base"
    if all(c == 0 for _, c in data.closure):
        return "character-trivial-on-galois-side"
    kernel_mats = data.kernel_matrices()
    if all(galois.mat_det(m, 9) == 1 for m in kernel_mats):
        return "kernel-fixes-ninth-roots"
    iotas = sorted(m for m in kernel_mats if galois.mat_det(m, 9) == 4)
    x1, x2 = data.chi_on_torsion
    outside = [
        (i, j) for i in range(9) for j in range(9) if (x1 * i + x2 * j) % 3 != 0
    ]
    for iota in iotas:
        shifted = ((iota[0][0] - 4) % 9, iota[0][1], iota[1][0], (iota[1][1] - 4) % 9)
        mat = ((shifted[0], shifted[1]), (shifted[2], shifted[3]))
        for b in outside:
            w = galois.mat_apply(mat, b, 9)
            for a in kernel_vectors:
                if _reference_in_cyclic_span(w, a):
                    return "shifted-image-meets-kernel-line"
    return None


def _reference_thm52(data):
    if data.chi_on_torsion == (0, 0):
        return {"status": "ContainsZero", "reason": "zero-torsion-restriction", "witness": None}
    kv = _reference_kernel_vectors(data.chi_on_torsion)
    closure_sorted = sorted(data.closure)
    for a in kv:
        for mat, _ in closure_sorted:
            image = galois.mat_apply(mat, a, 9)
            if not _reference_in_cyclic_span(image, a):
                return {
                    "status": "NonVanishing",
                    "reason": "kernel-vector-moved-off-line",
                    "witness": {"a": list(a), "sigma": [list(r) for r in mat], "image": list(image)},
                }
    reason = _reference_condition2(data, kv)
    if reason is None:
        dets = sorted({galois.mat_det(m, 9) for m in data.kernel_matrices()})
        return {"status": "NonVanishing", "reason": "rigid-cubic-kernel", "witness": {"kernel_dets": dets}}
    return {"status": "ContainsZero", "reason": reason, "witness": None}


# every matrix congruent to the identity mod 3, and every nonzero chi-bar
CONGRUENT_TO_I = [
    ((1 + 3 * m[0], 3 * m[1]), (3 * m[2], 1 + 3 * m[3]))
    for m in itertools.product(range(3), repeat=4)
]
NONZERO_CHI_BAR = [t for t in itertools.product(range(3), repeat=2) if t != (0, 0)]


def test_moved_kernel_vector_matches_search_exhaustively():
    moved = kept = 0
    for xi in CONGRUENT_TO_I:
        for chi_bar in NONZERO_CHI_BAR:
            want = _reference_moved_kernel_vector(xi, chi_bar)
            assert massey._moved_kernel_vector(SimpleNamespace(xi=xi), chi_bar) == want, (xi, chi_bar)
            moved += want is not None
            kept += want is None
    assert moved and kept


def test_first_kernel_vector_is_the_search_order_head():
    for chi_bar in NONZERO_CHI_BAR:
        assert massey._first_kernel_vector(chi_bar) == _reference_kernel_vectors(chi_bar)[0]


def test_cyclic_span_determinant_matches_scalar_search():
    order9 = [v for v in itertools.product(range(9), repeat=2) if v[0] % 3 or v[1] % 3]
    assert len(order9) == 72
    for v in order9:
        for w in itertools.product(range(9), repeat=2):
            assert massey._in_cyclic_span(w, v) == _reference_in_cyclic_span(w, v), (v, w)


def test_condition2_matches_search_on_every_iota_and_chi_bar():
    # generators (iota, I) with chi = (0, 1): the chi-kernel is <iota>,
    # whose only element of det 4 is iota itself (the group has exponent 3)
    iotas = [m for m in CONGRUENT_TO_I if galois.mat_det(m, 9) == 4]
    assert len(iotas) == 27
    seen = set()
    for iota in iotas:
        for chi_bar in NONZERO_CHI_BAR:
            d = load_abstract(_payload([[list(r) for r in iota], [[1, 0], [0, 1]]], chis=[0, 1], torsion=chi_bar))
            a = massey._first_kernel_vector(chi_bar)
            want = _reference_condition2(d, _reference_kernel_vectors(chi_bar))
            assert massey._thm52_condition2(d, a) == want, (iota, chi_bar)
            seen.add(want)
    assert seen == {None, "shifted-image-meets-kernel-line"}


def _random_payload(rng):
    """A valid abstract payload: generators = I (mod 3), mostly sparse."""
    gens = []
    for _ in range(rng.randint(1, 3)):
        m = [rng.choice((0, 0, 0, 1, 2)) for _ in range(4)]
        gens.append([[1 + 3 * m[0], 3 * m[1]], [3 * m[2], 1 + 3 * m[3]]])
    chis = [rng.randrange(3) for _ in gens]
    closure = galois._augmented_closure([tuple(map(tuple, g)) for g in gens], chis)
    ninth = all(galois.mat_det(g, 9) == 1 for g, _ in closure)
    torsion = (rng.randrange(3), rng.randrange(3))
    return _payload(gens, chis=chis, torsion=torsion, ninth=ninth, cubic=rng.random() < 0.5)


def test_thm52_matches_search_on_random_payloads():
    rng = random.Random(52)
    reasons = {}
    for _ in range(1500):
        d = load_abstract(_random_payload(rng))
        want = _reference_thm52(d)
        assert thm52_check(d).to_json() == want
        reasons[want["reason"]] = reasons.get(want["reason"], 0) + 1
    assert set(reasons) == {
        "zero-torsion-restriction",
        "kernel-vector-moved-off-line",
        "rigid-cubic-kernel",
        "ninth-root-in-base",
        "character-trivial-on-galois-side",
        "kernel-fixes-ninth-roots",
        "shifted-image-meets-kernel-line",
    }, reasons
