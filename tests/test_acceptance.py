"""Acceptance suite: one test per criterion, exact tolerances, pass lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Every comparison here is exact (integer arithmetic);
the brute-force oracles are the ground truth throughout.
"""

import itertools
import json
import random
import time

import pytest

import fixtures
from ellmassey import cli, ec, ff, galois, massey, oracle, unitri
from ellmassey.massey import VerdictStatus

SEED = 0xC0FFEE


def _report(criterion, detail):
    print(f"[criterion {criterion}] PASS  {detail}")


def _oracle_status(c1, c2, c3, g):
    if not oracle.oracle_nonempty(c1, c2, c3, g):
        return "Empty"
    if oracle.oracle_contains_zero(c1, c2, c3, g):
        return "ContainsZero"
    return "NonVanishing"


def _agreement_sweep(g, triples):
    mismatches = 0
    for c1, c2, c3 in triples:
        verdict = massey.triple_verdict(c1, c2, c3, g)
        if verdict.status.value != _oracle_status(c1, c2, c3, g):
            mismatches += 1
    return mismatches


def test_criterion_01_u4_closed_forms():
    t0 = time.monotonic()
    # l = 3: every matrix and every ordered pair
    mats3 = [tuple(v) for v in itertools.product(range(3), repeat=6)]
    for m in mats3:
        cube = unitri.u4_mul_raw(3, unitri.u4_mul_raw(3, m, m), m)
        assert unitri.u4_pow_l_closed_raw(3, m) == cube
    for m in mats3:
        mi = unitri.u4_inv_raw(3, m)
        for n in mats3:
            generic = unitri.u4_mul_raw(
                3, unitri.u4_mul_raw(3, unitri.u4_mul_raw(3, m, n), mi), unitri.u4_inv_raw(3, n)
            )
            assert unitri.u4_commutator_closed_raw(3, m, n) == generic
    # l in {5, 7}: 10^5 random pairs each
    for l in (5, 7):
        rng = random.Random(SEED + l)
        for _ in range(100_000):
            m = tuple(rng.randrange(l) for _ in range(6))
            n = tuple(rng.randrange(l) for _ in range(6))
            generic = unitri.u4_mul_raw(
                l,
                unitri.u4_mul_raw(l, unitri.u4_mul_raw(l, m, n), unitri.u4_inv_raw(l, m)),
                unitri.u4_inv_raw(l, n),
            )
            assert unitri.u4_commutator_closed_raw(l, m, n) == generic
            powm = unitri.u4_pow_l_closed_raw(l, m)
            assert powm == unitri.u4_pow_raw(l, m, l)
    elapsed = time.monotonic() - t0
    assert elapsed < 60  # generous wall guard; target envelope is ~10 s
    _report(1, f"729 cubes + 729^2 commutators exact; 2x10^5 random pairs at l=5,7 ({elapsed:.1f}s)")


def test_criterion_02_cup_oracle_agreement():
    t0 = time.monotonic()
    cases = [
        (3, "full_torsion"),
        (3, "split_line"),
        (5, "split_line"),
        (7, "split_line"),
        (3, "unipotent_line"),
        (5, "unipotent_line"),
        (7, "unipotent_line"),
    ]
    total = 0
    for ell, case in cases:
        g = fixtures.group(ell, case)
        chars = g.characters()
        for c1 in chars:
            for c2 in chars:
                assert massey.cup_vanishes(c1, c2, g) == oracle.oracle_cup(c1, c2, g)
                total += 1
    _report(2, f"{total} character pairs across {len(cases)} fixtures ({time.monotonic()-t0:.1f}s)")


def test_criterion_03_full_torsion_reproduction():
    t0 = time.monotonic()
    # the three fixtures are exactly what the search emits first
    code = cli.main(["search", "--ell", "3", "--case", "full3", "--max-p", "20", "--limit", "3"])
    assert code == 0
    groups = fixtures.full_torsion_groups()
    assert len(groups) >= 3
    witnesses = 0
    for g in groups:
        chars = g.characters()
        for c1, c2, c3 in itertools.product(chars, repeat=3):
            verdict = massey.triple_verdict(c1, c2, c3, g)
            assert verdict.status.value == _oracle_status(c1, c2, c3, g)
            if verdict.status is VerdictStatus.NON_VANISHING:
                witnesses += 1
                a = tuple(verdict.witness["torsion_vector"])
                image = galois.mat_apply(g.xi, a, 9)
                assert (a[0] % 3, a[1] % 3) != (0, 0)
                assert (c3.values[0] * a[0] + c3.values[1] * a[1]) % 3 == 0
                assert not any(
                    ((k * a[0]) % 9, (k * a[1]) % 9) == image for k in range(9)
                )
    assert witnesses > 0
    _report(3, f"3 fixtures x 27^3 triples vs oracle, {witnesses} witnessed non-vanishing "
               f"({time.monotonic()-t0:.0f}s)")


def test_criterion_04_split_line_reproduction():
    t0 = time.monotonic()
    checked = 0
    for ell in (3, 5, 7):
        g = fixtures.group(ell, "split_line")
        p = fixtures.CURVES[(ell, "split_line")][0]
        assert p % ell == 2  # the recipe: p = 2 mod l with a rational l-torsion point
        chars = g.characters()
        for c1, c2, c3 in itertools.product(chars, repeat=3):
            if not (massey.cup_vanishes(c1, c2, g) and massey.cup_vanishes(c2, c3, g)):
                continue
            checked += 1
            assert massey.triple_verdict(c1, c2, c3, g).status is VerdictStatus.CONTAINS_ZERO
            assert oracle.oracle_contains_zero(c1, c2, c3, g)
    _report(4, f"{checked} cup-vanishing split triples all contain zero ({time.monotonic()-t0:.0f}s)")


def test_criterion_05_unipotent_reproduction():
    t0 = time.monotonic()
    g3 = fixtures.group(3, "unipotent_line")
    m3 = _agreement_sweep(g3, itertools.product(g3.characters(), repeat=3))
    g5 = fixtures.group(5, "unipotent_line")
    m5 = _agreement_sweep(g5, itertools.product(g5.characters(), repeat=3))
    g7 = fixtures.group(7, "unipotent_line")
    rng = random.Random(SEED)
    chars7 = g7.characters()
    sample7 = [tuple(rng.choice(chars7) for _ in range(3)) for _ in range(200)]
    m7 = _agreement_sweep(g7, sample7)
    assert m3 == m5 == m7 == 0
    _report(5, f"l=3 exhaustive 9^3, l=5 exhaustive 25^3, l=7 sample 200: 0 mismatches "
               f"({time.monotonic()-t0:.0f}s)")


def test_criterion_06_nonvanishing_construction():
    t0 = time.monotonic()
    for ell, max_p in ((5, 2000), (7, 2000)):
        code = cli.main(
            ["search", "--ell", str(ell), "--case", "unipotent", "--max-p", str(max_p), "--limit", "1"]
        )
        assert code == 0
        g = fixtures.group(ell, "unipotent_line")
        cv = {chi.values: chi for chi in g.characters()}
        chi1 = cv[(0, 0, 1)]
        chi2 = cv[(0, 1, 0)]  # kills mprime and phi, sends m to 1
        chi3 = cv[(0, 0, 1)]
        verdict = massey.triple_verdict(chi1, chi2, chi3, g)
        assert verdict.status is VerdictStatus.NON_VANISHING
        assert oracle.oracle_nonempty(chi1, chi2, chi3, g)
        assert not oracle.oracle_contains_zero(chi1, chi2, chi3, g)
    _report(6, f"l=5 and l=7 unipotent constructions: nonempty without zero ({time.monotonic()-t0:.0f}s)")


def test_criterion_07_weil_determinant_invariant():
    t0 = time.monotonic()
    checked = []
    for (ell, case), (p, a, b) in sorted(fixtures.CURVES.items()):
        if case.startswith("no_fixed_points"):
            continue  # no torsion basis is constructed in the degenerate case
        curve = fixtures.curve(ell, case)
        lp = galois.ell_prime(ell)
        basis = ec.torsion_basis(curve, lp)
        action = ec.frobenius_matrix(basis)
        assert galois.mat_det(action, lp) == p % lp
        e = ec.weil_pairing(basis.P, basis.Q, lp)
        lhs = ec.weil_pairing(
            ec.frobenius_endo(basis.P, p), ec.frobenius_endo(basis.Q, p), lp
        )
        assert lhs == e**p
        checked.append((ell, case))
    assert len(checked) >= 9
    _report(7, f"det = q and Frobenius-equivariant pairing on {len(checked)} fixtures "
               f"({time.monotonic()-t0:.0f}s)")


def test_criterion_08_scaling_invariance():
    t0 = time.monotonic()
    units3 = (1, 2)
    count = 0
    for case in ("full_torsion", "split_line", "unipotent_line", "no_fixed_points"):
        g = fixtures.group(3, case)
        for t in itertools.product(g.characters(), repeat=3):
            base = massey.triple_verdict(*t, g).status
            for a, b, c in itertools.product(units3, repeat=3):
                scaled = (t[0].scaled(a), t[1].scaled(b), t[2].scaled(c))
                assert massey.triple_verdict(*scaled, g).status is base
                count += 1
    for ell in (5, 7):
        rng = random.Random(SEED + ell)
        for case in ("split_line", "unipotent_line"):
            g = fixtures.group(ell, case)
            chars = g.characters()
            for _ in range(500):
                t = tuple(rng.choice(chars) for _ in range(3))
                base = massey.triple_verdict(*t, g).status
                a, b, c = (rng.randrange(1, ell) for _ in range(3))
                scaled = (t[0].scaled(a), t[1].scaled(b), t[2].scaled(c))
                assert massey.triple_verdict(*scaled, g).status is base
                count += 1
    _report(8, f"{count} scaled comparisons, statuses invariant ({time.monotonic()-t0:.0f}s)")


def test_criterion_09_torsion_restriction_contains_zero():
    t0 = time.monotonic()
    checked = 0
    for case in ("full_torsion", "unipotent_line", "split_line"):
        g = fixtures.group(3, case)
        pres = g.torsion_presentation()
        values = list(itertools.product(range(3), repeat=g.rank))
        for v1, v2, v3 in itertools.product(values, repeat=3):
            diags = [(v1[i], v2[i], v3[i]) for i in range(g.rank)]
            if oracle.center_lift_exists(pres, diags):
                checked += 1
                assert oracle.find_full_lift(pres, diags) is not None
    _report(9, f"{checked} nonempty torsion-only triples all lift fully ({time.monotonic()-t0:.0f}s)")


def test_criterion_10_bockstein_consistency():
    t0 = time.monotonic()
    vanishing = 0
    for g in fixtures.full_torsion_groups():
        for chi in g.characters():
            if massey.bockstein_vanishes(chi, g):
                vanishing += 1
                status = massey.triple_verdict(chi, chi, chi, g).status
                assert status is VerdictStatus.CONTAINS_ZERO
    assert vanishing > 0
    _report(10, f"{vanishing} characters with vanishing Bockstein all contain zero "
                f"({time.monotonic()-t0:.0f}s)")


def test_criterion_11_abstract_checkers(tmp_path, capsys):
    t0 = time.monotonic()

    def check(payload, theorem):
        path = tmp_path / f"{theorem}-{abs(hash(json.dumps(payload, sort_keys=True)))}.json"
        path.write_text(json.dumps(payload))
        code = cli.main(["galois-check", "--input", str(path), "--theorem", theorem])
        assert code == 0
        return json.loads(capsys.readouterr().out)

    scalar_finite = {
        "generators": [[[4, 0], [0, 4]]],
        "chi_on_generators": [0],
        "chi_on_torsion": [0, 1],
        "has_ninth_root": False,
        "unique_cubic_extension": True,
    }
    out = check(scalar_finite, "11")
    assert out["exists_non_vanishing_chi"] is False and out["branch"] == "none"

    non_scalar = {
        "generators": [[[1, 3], [0, 1]], [[4, 0], [0, 4]]],
        "chi_on_generators": [0, 0],
        "chi_on_torsion": [1, 0],
        "has_ninth_root": False,
        "unique_cubic_extension": False,
    }
    out = check(non_scalar, "11")
    assert out["exists_non_vanishing_chi"] is True and out["branch"] == "i"

    out = check(non_scalar, "52")
    assert out["status"] == "NonVanishing"
    assert out["witness"]["a"] and out["witness"]["sigma"]

    # the finite-field flag combination (all scalar, unique cubic extension)
    # never yields a non-vanishing character, whatever the scalar subgroup
    for gens in ([[[1, 0], [0, 1]]], [[[4, 0], [0, 4]]], [[[7, 0], [0, 7]]]):
        ninth = all((g[0][0] * g[1][1]) % 9 == 1 for g in gens)
        payload = {
            "generators": gens,
            "chi_on_generators": [0] * len(gens),
            "chi_on_torsion": [0, 1],
            "has_ninth_root": ninth,
            "unique_cubic_extension": True,
        }
        out = check(payload, "11")
        assert out["exists_non_vanishing_chi"] is False
    _report(11, f"theorem checkers reproduce all stated branches ({time.monotonic()-t0:.0f}s)")


def _class_representatives(p):
    """The first nonsingular pair (a, b) of each GF(p)-isomorphism class."""
    first = {}
    for a, b in itertools.product(range(p), repeat=2):
        if (4 * a**3 + 27 * b * b) % p:
            first.setdefault(ec.class_key(a, b, p), (a, b))
    return list(first.values())


def test_engine_equals_oracle_on_every_isomorphism_class_of_small_fields():
    """Criteria 3-5 beyond the fixtures: one curve per GF(p)-isomorphism class
    at l = 3 (p = 5, 7, 11, 13), l = 5 (p = 7, 11) and l = 7 (p = 5); every
    same-character triple and 60 seeded random triples per class agree with
    the oracle."""
    t0 = time.monotonic()
    classes = {3: 0, 5: 0, 7: 0}
    cases = set()
    mismatches = 0
    for ell, primes in ((3, (5, 7, 11, 13)), (5, (7, 11)), (7, (5,))):
        for p in primes:
            F = ff.make_field(p, 1)
            for a, b in _class_representatives(p):
                g = galois.build_gbar(ec.curve_new(F, a, b), ell)
                classes[ell] += 1
                cases.add((ell, g.case))
                chars = g.characters()
                rng = random.Random(f"{p} {a} {b}")
                triples = [(chi, chi, chi) for chi in chars]
                triples += [tuple(rng.choice(chars) for _ in range(3)) for _ in range(60)]
                mismatches += _agreement_sweep(g, triples)
    assert mismatches == 0
    assert classes == {3: 84, 5: 40, 7: 12}
    assert {case for level, case in cases if level == 3} == set(galois.GaloisCase)
    _report("3-5", f"{sum(classes.values())} isomorphism classes vs oracle, 0 mismatches "
                   f"({time.monotonic()-t0:.0f}s)")


def _every_group():
    """Every group build_gbar can return, as far as the engine and the oracle
    read it: the case, l, the action and the constant c. At l = 3 a
    full-torsion action is any matrix = I mod 3 with entries mod 9, a
    unipotent one is ((1 + 3 alpha, 1), (3 gamma, 1)) with c = gamma, and a
    split presentation reads only the scalar 1 + 3 alpha; at l = 5, 7 the
    case fixes the group (the split one reads only its (0, 0) entry, 1)."""
    G, C = galois.GbarGroup, galois.GaloisCase
    groups = [
        G(3, C.FULL_TORSION, ((1 + 3 * a, 3 * b), (3 * c, 1 + 3 * d)))
        for a, b, c, d in itertools.product(range(3), repeat=4)
    ]
    groups += [
        G(3, C.UNIPOTENT_LINE, ((1 + 3 * alpha, 1), (3 * gamma, 1)),
          {"alpha": alpha, "beta": 0, "gamma": gamma, "delta": 0, "c": gamma})
        for alpha, gamma in itertools.product(range(3), repeat=2)
    ]
    groups += [
        G(3, C.SPLIT_LINE, ((1 + 3 * alpha, 0), (0, 2)),
          {"alpha": alpha, "beta": 0, "gamma": 0, "delta": 0, "c": None})
        for alpha in range(3)
    ]
    groups.append(G(3, C.NO_FIXED_POINTS))
    for ell in (5, 7):
        groups += [
            G(ell, C.FULL_TORSION, galois.mat_id()),
            G(ell, C.UNIPOTENT_LINE, ((1, 1), (0, 1)),
              {"alpha": 0, "beta": 0, "gamma": 0, "delta": 0, "c": 0}),
            G(ell, C.SPLIT_LINE, ((1, 0), (0, 2)),
              {"alpha": 0, "beta": None, "gamma": None, "delta": None, "c": None}),
            G(ell, C.NO_FIXED_POINTS),
        ]
    return groups


def test_engine_equals_oracle_on_every_group_build_gbar_can_return():
    """Engine = oracle on the groups themselves, including those no fixture
    or small field reaches: every triple of a group with at most 729, else
    every same-character triple and 100 triples seeded from the group."""
    t0 = time.monotonic()
    groups = _every_group()
    assert len(groups) == 102
    checked = mismatches = 0
    for g in groups:
        chars = g.characters()
        if len(chars) ** 3 <= 729:
            triples = list(itertools.product(chars, repeat=3))
        else:
            rng = random.Random(f"{g.ell} {g.case.value} {g.action}")
            triples = [(chi, chi, chi) for chi in chars]
            triples += [tuple(rng.choice(chars) for _ in range(3)) for _ in range(100)]
        checked += len(triples)
        mismatches += _agreement_sweep(g, triples)
    assert mismatches == 0
    _report("3-5", f"{len(groups)} groups, {checked} triples vs oracle, 0 mismatches "
                   f"({time.monotonic()-t0:.1f}s)")


def _projective_representatives(chars):
    """The zero character and every character whose first nonzero value is 1:
    one per line of the character group."""
    return [chi for chi in chars if next((v for v in chi.values if v), 1) == 1]


def test_engine_equals_oracle_on_every_projective_triple_of_every_group():
    """Engine = oracle on every triple of projective representatives of every
    group build_gbar can return. Both answers are invariant under
    chi_i -> a_i chi_i for units a_i (criterion 8 for the engine, the next
    test for the oracle), so these triples stand for every triple."""
    t0 = time.monotonic()
    checked = {3: 0, 5: 0, 7: 0}
    for g in _every_group():
        reps = _projective_representatives(g.characters())
        checked[g.ell] += len(reps) ** 3
        assert _agreement_sweep(g, itertools.product(reps, repeat=3)) == 0, g
    assert checked == {3: 223_772, 5: 33_462, 7: 196_578}
    _report(3, f"{sum(checked.values())} projective triples of 102 groups vs oracle, "
               f"0 mismatches ({time.monotonic()-t0:.1f}s)")


def test_oracle_answers_are_invariant_under_unit_scaling():
    """The premise of the sweep above on the oracle side: conjugating a lift
    by diag(1, a1, a1 a2, a1 a2 a3) lifts the scaled triple, so the cup,
    nonempty and contains-zero answers do not move under chi_i -> a_i chi_i."""
    statuses = {}
    for g in _every_group():
        chars = g.characters()
        rng = random.Random(f"scaling {g.ell} {g.case.value} {g.action}")
        for _ in range(40):
            t = [rng.choice(chars) for _ in range(3)]
            s = [chi.scaled(rng.randrange(1, g.ell)) for chi in t]
            for i in (0, 1):
                assert oracle.oracle_cup(t[i], t[i + 1], g) == oracle.oracle_cup(s[i], s[i + 1], g), (g, t, s)
            status = _oracle_status(*t, g)
            assert _oracle_status(*s, g) == status, (g, t, s)
            statuses[status] = statuses.get(status, 0) + 1
    assert set(statuses) == {"Empty", "ContainsZero", "NonVanishing"}, statuses
    _report(8, f"oracle cups and statuses unchanged on scaled triples: {statuses}")


def test_coded_verdicts_equal_triple_verdict_and_decide_each_pair_once(monkeypatch):
    """The sampled-triple coder is triple_verdict on seeded samples of every
    group build_gbar can return, and it decides each ordered pair's cup at
    most once, however many triples share the pair."""
    groups = _every_group()
    data_calls = []
    pair_datum = massey._pair_datum

    def counted(chi_a, chi_b, g):
        data_calls.append((id(chi_a), id(chi_b)))  # chars keeps every character alive
        return pair_datum(chi_a, chi_b, g)

    checked = 0
    for g in groups:
        chars = g.characters()
        n = len(chars)
        rng = random.Random(f"{g.ell} {g.case.value} {g.action} {g.constants}")
        indices = [rng.randrange(n) for _ in range(3 * 300)]
        indices += [i for i in range(n) for _ in range(3)]
        data_calls.clear()
        monkeypatch.setattr(massey, "_pair_datum", counted)
        kinds, codes = massey.coded_verdicts(chars, indices, g)
        monkeypatch.setattr(massey, "_pair_datum", pair_datum)
        assert data_calls and len(data_calls) == len(set(data_calls))
        assert len(codes) == len(indices) // 3
        it = iter(indices)
        for (i, j, k), code in zip(zip(it, it, it), codes):
            assert kinds[code] == massey.triple_verdict(chars[i], chars[j], chars[k], g), (g, i, j, k)
        checked += len(codes)
    _report("3-5", f"{len(groups)} groups, {checked} sampled triples coded once per pair")


def test_verdict_table_equals_triple_verdict_on_every_group_build_gbar_can_return():
    """The coded table of every group is triple_verdict on every triple of a
    group with at most 729, else on the triples the oracle sweep above
    checks, and it has at most 256 kinds, so each code fits one byte."""
    groups = _every_group()
    assert len(groups) == 102
    checked = 0
    for g in groups:
        chars = g.characters()
        n = len(chars)
        kinds, codes = massey.verdict_table(chars, g)
        assert len(codes) == n**3
        assert len(kinds) <= 256
        if n**3 <= 729:
            triples = list(itertools.product(range(n), repeat=3))
        else:
            rng = random.Random(f"{g.ell} {g.case.value} {g.action}")
            triples = [(i, i, i) for i in range(n)]
            triples += [tuple(rng.choice(range(n)) for _ in range(3)) for _ in range(100)]
        for i, j, k in triples:
            v = kinds[codes[(i * n + j) * n + k]]
            assert v == massey.triple_verdict(chars[i], chars[j], chars[k], g), (g, i, j, k)
        checked += len(triples)
    _report("3-5", f"{len(groups)} coded tables, {checked} triples vs triple_verdict")
