"""CLI behavior: flags, exit codes, output schema, determinism."""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from ellmassey import cli, ec


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def strip_timing(payload):
    if isinstance(payload, dict):
        payload = dict(payload)
        meta = payload.get("meta")
        if isinstance(meta, dict):
            payload["meta"] = {k: v for k, v in meta.items() if k != "elapsed_ms"}
    return payload


def test_search_unipotent_ell5(capsys):
    code, data = run_json(
        capsys, "search", "--ell", "5", "--case", "unipotent", "--max-p", "2000", "--limit", "4"
    )
    assert code == 0
    assert data["rows"]
    for row in data["rows"]:
        assert row["p"] % 5 == 1
        assert row["points"] % 5 == 0
        A = row["frobenius_matrix"]
        assert (A[0][0] + A[1][1]) % 5 == 2
        assert (A[0][0] * A[1][1] - A[0][1] * A[1][0]) % 5 == row["p"] % 5


def test_search_full3_rows_have_p_1_mod_3(capsys):
    code, data = run_json(
        capsys, "search", "--ell", "3", "--case", "full3", "--max-p", "50", "--limit", "3"
    )
    assert code == 0
    for row in data["rows"]:
        assert row["p"] % 3 == 1
        assert row["frobenius_matrix"] == [[1, 0], [0, 1]]
        assert row["points"] % 9 == 0


def test_search_split_example_recipe(capsys):
    # p = 2 mod 3 with a rational 3-torsion point
    code, data = run_json(
        capsys, "search", "--ell", "3", "--case", "split", "--max-p", "100", "--limit", "3"
    )
    assert code == 0
    for row in data["rows"]:
        assert row["p"] % 3 == 2
        assert row["points"] % 3 == 0


def test_search_exhausted_exit_3(capsys):
    code, data = run_json(capsys, "search", "--ell", "3", "--case", "full3", "--max-p", "5")
    assert code == 3
    assert "error" in data


def test_search_case_validation(capsys):
    code, data = run_json(capsys, "search", "--ell", "5", "--case", "full3", "--max-p", "100")
    assert code == 2


def test_search_csv_format(capsys):
    code, out = run(
        capsys, "search", "--ell", "3", "--case", "split", "--max-p", "20",
        "--limit", "1", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,a,b,frobenius_matrix,points"
    assert len(lines) == 2


def test_analyze_csv_with_no_rows_prints_only_the_header(capsys):
    code, out = run(
        capsys, "analyze", "--p", "11", "--a", "1", "--b", "7", "--ell", "5",
        "--triples", "sample", "0", "--format", "csv",
    )
    assert code == 0
    assert out == "chi1,chi2,chi3,status,reason\n"


@pytest.mark.parametrize("curve", [("7", "0", "2"), ("7", "0", "1"), ("5", "0", "1")])
def test_analyze_csv_rows_equal_json_rows(capsys, curve):
    p, a, b = curve
    args = ("analyze", "--p", p, "--a", a, "--b", b, "--ell", "3", "--triples", "all")
    code, data = run_json(capsys, *args)
    assert code == 0
    code, out = run(capsys, *args, "--format", "csv")
    assert code == 0
    header, *rows = out.splitlines()
    assert header == "chi1,chi2,chi3,status,reason"
    assert rows == [
        ",".join(
            ["|".join(map(str, v[k])) for k in ("chi1", "chi2", "chi3")] + [v["status"], v["reason"]]
        )
        for v in data["verdicts"]
    ]
    assert len(rows) == data["characters"] ** 3


@pytest.mark.parametrize("fmt", ("json", "csv"))
def test_closed_stdout_exits_2_without_traceback(fmt):
    """A reader that stops early (``| head -c 10``) is not a mismatch. The
    table (15,625 rows) outgrows a pipe's buffer, so the pipe breaks while
    its rows are being written."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ellmassey.cli", "analyze", "--p", "11", "--a", "1",
         "--b", "7", "--ell", "5", "--triples", "all", "--format", fmt],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert stderr == ""  # no traceback, and no "Exception ignored" at exit


class _NullSink:
    """A stdout that keeps nothing, so only the program's own buffers count."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize(
    "argv,bound_mb",
    [
        # 117,649 rows, and the 5^9-row l = 5 full-torsion table
        ("analyze --p 23 --a 1 --b 1 --ell 7 --triples all --format json", 1.5),
        ("analyze --p 31 --a 0 --b 11 --ell 5 --triples all --format csv", 6),
    ],
    ids=["l7-split-json", "l5-full-torsion-csv"],
)
def test_analyze_table_holds_one_byte_per_triple(argv, bound_mb):
    """A table's traced peak is its codes, one byte per triple, and one block
    of rows, not a reference per verdict. The first run builds the fields,
    so the traced second run measures the group and the table."""
    with contextlib.redirect_stdout(_NullSink()):
        assert cli.main(argv.split()) == 0
        tracemalloc.start()
        try:
            assert cli.main(argv.split()) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < bound_mb * 2**20, peak


def test_verify_sample_holds_index_arrays_not_character_triples():
    """A verify sample keeps its triples as the index array, as analyze does:
    50,000 triples peak within 1 MB of 1,000 (a tuple of characters per
    triple held about 3.6 MB more)."""
    def peak(count):
        argv = f"verify --p 7 --a 1 --b 1 --ell 5 --mode sample {count}".split()
        with contextlib.redirect_stdout(_NullSink()):
            assert cli.main(argv) == 0
            tracemalloc.start()
            try:
                assert cli.main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    assert peak(50000) - peak(1000) < 2**20


@pytest.mark.parametrize("triples", [["all"], ["sample", "5000"], ["same-char"]])
def test_analyze_decides_every_verdict_before_the_first_row(monkeypatch, triples):
    """meta.elapsed_ms covers the verdicts: they are all decided before any
    text of the report is written."""
    from ellmassey import massey

    decided = []
    for name in ("verdict_table", "coded_verdicts"):
        def done(*args, _decide=getattr(massey, name)):
            out = _decide(*args)
            decided.append(len(out[1]))
            return out
        monkeypatch.setattr(massey, name, done)

    class Sink(_NullSink):
        def write(self, text):
            assert decided, "a row was written before the verdicts were decided"
            return len(text)

    argv = ["analyze", "--p", "13", "--a", "0", "--b", "3", "--ell", "3", "--triples", *triples]
    with contextlib.redirect_stdout(Sink()):
        assert cli.main(argv) == 0
    assert decided == [{"all": 27**3, "sample": 5000, "same-char": 27}[triples[0]]]


def test_analyze_unipotent_ell5_contains_non_vanishing_row(capsys):
    code, data = run_json(
        capsys, "analyze", "--p", "11", "--a", "1", "--b", "7", "--ell", "5"
    )
    assert code == 0
    assert data["case"] == "unipotent_line"
    assert data["characters"] == 25
    statuses = {v["status"] for v in data["verdicts"]}
    assert "NonVanishing" in statuses
    nv = [v for v in data["verdicts"] if v["status"] == "NonVanishing"]
    assert all(v["witness"] is not None for v in nv)
    assert data["frobenius_matrix_l"] == [[1, 1], [0, 1]]


def test_analyze_split_ell7_no_non_vanishing(capsys):
    code, data = run_json(
        capsys, "analyze", "--p", "5", "--a", "2", "--b", "1", "--ell", "7",
        "--triples", "sample", "400",
    )
    assert code == 0
    assert data["case"] == "split_line"
    statuses = {v["status"] for v in data["verdicts"]}
    assert statuses <= {"Empty", "ContainsZero"}


def test_analyze_full3_report_shape(capsys):
    code, data = run_json(
        capsys, "analyze", "--p", "7", "--a", "0", "--b", "2", "--ell", "3",
        "--triples", "same-char",
    )
    assert code == 0
    assert data["ell_prime"] == 9
    assert set(data["constants"]) == {"alpha", "beta", "gamma", "delta", "c"}
    assert len(data["verdicts"]) == 27
    assert data["curve"]["j"] == [0]
    keys = {
        "curve", "ell", "ell_prime", "case", "frobenius_matrix_l",
        "frobenius_matrix_lprime", "constants", "characters", "verdicts", "meta",
    }
    assert set(data) == keys
    assert set(data["meta"]) == {"seed", "mode", "elapsed_ms"}


def test_analyze_full3_scalar_action_never_non_vanishing(capsys):
    # y^2 = x^3 + 5 over GF(61): full rational 3-torsion with Frobenius 4*I
    # on the 9-torsion; no witness vector can leave its line
    code, data = run_json(
        capsys, "analyze", "--p", "61", "--a", "0", "--b", "5", "--ell", "3",
        "--triples", "same-char",
    )
    assert code == 0
    assert data["case"] == "full_torsion"
    A = data["frobenius_matrix_lprime"]
    assert A == [[4, 0], [0, 4]]
    assert all(v["status"] == "ContainsZero" for v in data["verdicts"])
    code, data = run_json(
        capsys, "analyze", "--p", "61", "--a", "0", "--b", "5", "--ell", "3",
        "--triples", "sample", "500",
    )
    assert all(v["status"] != "NonVanishing" for v in data["verdicts"])


def test_analyze_singular_curve_exit_2(capsys):
    code, data = run_json(capsys, "analyze", "--p", "7", "--a", "0", "--b", "0", "--ell", "3")
    assert code == 2
    assert "error" in data


def test_analyze_bad_characteristic_and_coeffs_exit_2(capsys):
    code, data = run_json(capsys, "analyze", "--p", "3", "--a", "1", "--b", "1", "--ell", "5")
    assert code == 2 and "error" in data
    code, data = run_json(capsys, "analyze", "--p", "7", "--a", "x", "--b", "1", "--ell", "3")
    assert code == 2 and "error" in data


def test_analyze_strong_pseudoprime_to_twelve_bases_exit_2(capsys):
    # psi_12 of OEIS A014233 passes Miller-Rabin on the first 12 primes
    code, data = run_json(
        capsys, "analyze", "--p", "318665857834031151167461", "--a", "1", "--b", "1", "--ell", "3",
    )
    assert code == 2 and "not prime" in data["error"]["message"]


def test_analyze_no_fixed_points_reports_matrix_when_affordable(capsys):
    code, data = run_json(
        capsys, "analyze", "--p", "5", "--a", "1", "--b", "0", "--ell", "3",
        "--triples", "same-char",
    )
    assert code == 0
    assert data["case"] == "no_fixed_points"
    A = data["frobenius_matrix_l"]
    assert A is not None
    det = (A[0][0] * A[1][1] - A[0][1] * A[1][0]) % 3
    assert det == 5 % 3
    assert all(v["status"] == "ContainsZero" for v in data["verdicts"])


def test_analyze_no_fixed_points_past_the_degree_cap_reports_null(capsys, monkeypatch):
    # psi_7's factors over GF(5) have lcm 24, and 2 * 24 exceeds
    # NO_FIXED_POINTS_REPORT_DEGREE_CAP: both matrices are null, and no
    # torsion basis is built
    def no_basis(curve, n):
        raise AssertionError("torsion_basis called past the report cap")

    monkeypatch.setattr(ec, "torsion_basis", no_basis)
    code, data = run_json(
        capsys, "analyze", "--p", "5", "--a", "1", "--b", "0", "--ell", "7",
        "--triples", "same-char",
    )
    assert code == 0
    assert data["case"] == "no_fixed_points"
    assert data["frobenius_matrix_l"] is None
    assert data["frobenius_matrix_lprime"] is None
    assert all(v["status"] == "ContainsZero" for v in data["verdicts"])


def test_analyze_no_fixed_points_past_the_absolute_degree_cap_reports_null(capsys, monkeypatch):
    # both matrices are null and no torsion basis is built when the field the
    # report would build is too large, though 2 * lcm is within the cap
    def no_basis(curve, n):
        raise AssertionError("torsion_basis called past the report cap")

    monkeypatch.setattr(ec, "torsion_basis", no_basis)
    for curve_args in (
        # over GF(25) psi_7's factors have lcm 12, and the field that doubles
        # them has degree 2 * 2 * 12 = 48 over GF(5)
        ("--p", "5", "--k0", "2", "--a", "1", "--b", "0", "--ell", "7"),
        # psi_5's factors have lcm 12, and GF(1000003^24) has more than
        # ff.MAX_FIELD_ORDER elements
        ("--p", "1000003", "--a", "1", "--b", "1", "--ell", "5"),
    ):
        code, data = run_json(capsys, "analyze", *curve_args, "--triples", "same-char")
        assert code == 0, curve_args
        assert data["case"] == "no_fixed_points"
        assert data["frobenius_matrix_l"] is None
        assert data["frobenius_matrix_lprime"] is None
        assert all(v["status"] == "ContainsZero" for v in data["verdicts"])


def test_analyze_no_fixed_points_with_k0_past_the_cap_skips_factoring(capsys, monkeypatch):
    # the report's degree is at least 2 * k0 = 26 > 24, so both matrices are
    # null before psi_5 is factored over GF(11^13)
    def no_factoring(curve, n):
        raise AssertionError("psi_l factored although k0 alone breaks the report cap")

    monkeypatch.setattr(ec, "_torsion_field_degree", no_factoring)
    code, data = run_json(
        capsys, "analyze", "--p", "11", "--k0", "13", "--a", "1", "--b", "1", "--ell", "5",
        "--triples", "sample", "0",
    )
    assert code == 0
    assert data["case"] == "no_fixed_points"
    assert data["frobenius_matrix_l"] is None
    assert data["frobenius_matrix_lprime"] is None


def test_torsion_field_past_the_extension_cap_is_an_input_error(capsys):
    # y^2 = x^3 + 2x + 3 over GF(7^33) has full 3-torsion, so build_gbar needs
    # E[9], which lies over GF(7^99): the message is ff.make_field's, without a
    # class name, as for every input error
    code, data = run_json(
        capsys, "analyze", "--p", "7", "--k0", "33", "--a", "2", "--b", "3", "--ell", "3",
        "--triples", "sample", "0",
    )
    assert code == 2
    assert data == {"error": {"message": "extension degree 99 outside 1..96"}}


def test_oversized_torsion_field_is_refused_after_one_stage(capsys, monkeypatch):
    """E[9] of y^2 = x^3 + x + 3 over GF(7^96): psi_9's first distinct-degree
    stage leaves a factor of degree at least 2, so the torsion field has
    degree at least 2 * 96 = 192 over GF(7), and make_field refuses that
    lower bound without any later stage or quadratic-character power. The
    message names the bound: the torsion field's own degree is 288.

    In process this took 1.9-3.1 s (median 2.2 s) on a 2-core host, and 6.7 s
    when every stage was found first; the budget is 3 times the median."""
    from ellmassey import ff

    stages, dd = [], ff.distinct_degree_factors

    def counted(F, f):
        for stage in dd(F, f):
            stages.append(stage[0])
            yield stage

    monkeypatch.setattr(ff, "distinct_degree_factors", counted)
    ec._torsion_field_degree.cache_clear()
    t0 = time.perf_counter()
    code, data = run_json(
        capsys, "analyze", "--p", "7", "--k0", "96", "--a", "1", "--b", "3", "--ell", "3",
        "--triples", "sample", "1",
    )
    elapsed = time.perf_counter() - t0
    assert code == 2
    assert data == {"error": {"message": "extension degree 192 outside 1..96"}}
    assert stages == [1]  # the one stage of psi_9 drawn; the rank factors nothing
    assert elapsed < 6.5, f"refusal took {elapsed:.1f} s"


@pytest.mark.parametrize("command", ("analyze", "verify"))
def test_field_past_the_order_cap_is_refused_naming_p_and_the_degree(capsys, command):
    # p has 82 bits, so the base field GF(p^5) has about 2^407 elements
    p = 3000000000000000000000007
    code, data = run_json(capsys, command, "--p", str(p), "--k0", "5", "--a", "1", "--b", "1", "--ell", "3")
    assert code == 2
    assert data == {"error": {"message": f"GF({p}^5) has more than 2^380 elements; larger fields are unsupported"}}


def _large_prime(rng, bits):
    from ellmassey import ff

    while True:
        p = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        if ff.is_prime(p):
            return p


LARGE_PRIME_BUDGET_S = 5.0  # per command; the slowest measured was 1.0 s in process


def test_large_prime_inputs_finish_within_budget_and_honour_the_exit_contract():
    """Seeded analyze and verify inputs at every l, with p of 20-73 bits and
    k0 in {1, 2, 3}: each command ends in exit 0 or 2 (a field past the
    stated 2^380 cap), never 1, 4 or a traceback, within its budget. The
    torsion-field caches are cleared before each command, so each one pays
    for its own fields."""
    import random

    rng = random.Random(20)
    codes = []
    for i in range(15):
        ell, k0 = (3, 5, 7)[i % 3], (1, 2, 3)[i // 3 % 3]
        p = _large_prime(rng, rng.randint(20, 73))
        a, b = (",".join(str(rng.randrange(p)) for _ in range(k0)) for _ in "ab")
        curve = ["--p", str(p), "--k0", str(k0), "--a", a, "--b", b, "--ell", str(ell)]
        for argv in (["analyze", *curve, "--triples", "sample", "3"],
                     ["verify", *curve, "--mode", "sample", "3"]):
            ec._torsion_field_degree.cache_clear()
            ec._rational_rank_cached.cache_clear()
            out = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            elapsed = time.perf_counter() - t0
            assert code in (0, 2), (argv, out.getvalue())
            assert elapsed < LARGE_PRIME_BUDGET_S, (argv, elapsed)
            json.loads(out.getvalue())
            codes.append(code)
    assert codes.count(0) > 20


def test_fixed_line_at_ell5_needs_no_torsion_field(capsys, monkeypatch):
    # E[5] of y^2 = x^3 + x + 1 over GF(7^49) lies over GF(7^196), past the
    # cap, but its fixed line alone decides the group: 7^49 = 2 (mod 5)
    def refuse(curve, n):
        raise AssertionError("torsion basis built")

    monkeypatch.setattr(ec, "torsion_basis", refuse)
    code, data = run_json(
        capsys, "analyze", "--p", "7", "--k0", "49", "--a", "1", "--b", "1", "--ell", "5",
        "--triples", "sample", "0",
    )
    assert code == 0
    assert data["case"] == "split_line"
    assert data["frobenius_matrix_l"] == data["frobenius_matrix_lprime"] == [[1, 0], [0, 2]]


def test_analyze_no_fixed_points_over_a_large_prime(capsys):
    # E[3] lies over GF(p^4) with p = 1000003 = 3 (mod 4): the field's scan
    # rules out the 10^6 binomials X^4 + c at once
    code, data = run_json(capsys, "analyze", "--p", "1000003", "--a", "1", "--b", "1", "--ell", "3")
    assert code == 0
    assert data["case"] == "no_fixed_points"


def test_analyze_output_deterministic(capsys):
    args = ("analyze", "--p", "11", "--a", "1", "--b", "7", "--ell", "5",
            "--triples", "sample", "50")
    code1, d1 = run_json(capsys, *args)
    code2, d2 = run_json(capsys, *args)
    assert code1 == code2 == 0
    assert strip_timing(d1) == strip_timing(d2)


def test_analyze_prime_power_base(capsys):
    code, data = run_json(
        capsys, "analyze", "--p", "5", "--k0", "2", "--a", "0,1", "--b", "2", "--ell", "3",
        "--triples", "same-char",
    )
    assert code == 0
    assert data["curve"]["k0"] == 2
    assert data["curve"]["a"] == [0, 1]


def test_verify_exhaustive_split_ell3(capsys):
    code, data = run_json(
        capsys, "verify", "--p", "5", "--a", "0", "--b", "1", "--ell", "3",
        "--mode", "exhaustive",
    )
    assert code == 0
    assert data["checked"] == 9**3
    assert data["mismatches"] == []


def test_verify_exhaustive_unipotent_ell3(capsys):
    code, data = run_json(
        capsys, "verify", "--p", "7", "--a", "0", "--b", "1", "--ell", "3",
        "--mode", "exhaustive",
    )
    assert code == 0
    assert data["checked"] == 9**3
    assert data["mismatches"] == []


def test_character_validation_rejects_bad_values():
    import fixtures
    from ellmassey.errors import GroupMismatch
    from ellmassey.galois import Character

    g = fixtures.group(5, "unipotent_line")
    with pytest.raises(GroupMismatch):
        Character(g, (1, 0, 0))  # nonzero on mprime violates the conjugation relation


def test_verify_sample_ell7_unipotent(capsys):
    code, data = run_json(
        capsys, "verify", "--p", "29", "--a", "1", "--b", "7", "--ell", "7",
        "--mode", "sample", "60",
    )
    assert code == 0
    assert data["checked"] == 60
    assert data["mismatches"] == []


def test_verify_exhaustive_no_fixed_points(capsys):
    code, data = run_json(
        capsys, "verify", "--p", "5", "--a", "1", "--b", "0", "--ell", "3",
        "--mode", "exhaustive",
    )
    assert code == 0
    assert data["case"] == "no_fixed_points"
    assert data["checked"] == 27
    assert data["mismatches"] == []


def test_verify_exhaustive_rejected_for_ell7(capsys):
    code, data = run_json(
        capsys, "verify", "--p", "29", "--a", "1", "--b", "7", "--ell", "7",
        "--mode", "exhaustive",
    )
    assert code == 2


def test_verify_exhaustive_cap_is_stated(capsys):
    # l = 5 full torsion: 125 characters, 125^3 triples
    code, data = run_json(
        capsys, "verify", "--p", "31", "--a", "0", "--b", "11", "--ell", "5",
        "--mode", "exhaustive",
    )
    assert code == 2
    assert str(27**3) in data["error"]["message"]


def test_verify_exhaustive_no_fixed_points_ell5(capsys):
    code, data = run_json(
        capsys, "verify", "--p", "7", "--a", "0", "--b", "1", "--ell", "5",
        "--mode", "exhaustive",
    )
    assert code == 0
    assert data["case"] == "no_fixed_points"
    assert data["checked"] == 125
    assert data["mismatches"] == []


def test_verify_mismatch_exits_1_with_one_row_per_mismatch(capsys, monkeypatch):
    from ellmassey import ff, galois, massey
    from ellmassey.massey import MasseyVerdict, VerdictStatus
    from ellmassey.oracle import oracle_contains_zero, oracle_nonempty

    forced = MasseyVerdict(VerdictStatus.CONTAINS_ZERO, "forced")
    monkeypatch.setattr(massey, "triple_verdict", lambda c1, c2, c3, g: forced)
    code, data = run_json(capsys, "verify", "--p", "5", "--a", "0", "--b", "1", "--ell", "3")
    assert code == 1
    group = galois.build_gbar(ec.curve_new(ff.make_field(5, 1), 0, 1), 3)
    chars = group.characters()
    assert data["checked"] == len(chars) ** 3
    expected = []
    for c1, c2, c3 in itertools.product(chars, repeat=3):
        if not oracle_nonempty(c1, c2, c3, group):
            status = "Empty"
        elif oracle_contains_zero(c1, c2, c3, group):
            continue
        else:
            status = "NonVanishing"
        expected.append(
            {
                "chi1": list(c1.values),
                "chi2": list(c2.values),
                "chi3": list(c3.values),
                "engine": "ContainsZero",
                "oracle": status,
            }
        )
    assert expected
    assert all(set(row) == {"chi1", "chi2", "chi3", "engine", "oracle"} for row in data["mismatches"])
    assert data["mismatches"] == expected


@pytest.mark.parametrize("count", ["x", "abc", "1.5", "-3"])
def test_verify_bad_sample_count_exit_2(capsys, count):
    code, data = run_json(
        capsys, "verify", "--p", "5", "--a", "1", "--b", "0", "--ell", "3",
        "--mode", "sample", count,
    )
    assert code == 2
    assert "sample count" in data["error"]["message"]


@pytest.mark.parametrize("count", ["x", "abc", "-3"])
def test_analyze_bad_sample_count_exit_2(capsys, count):
    code, data = run_json(
        capsys, "analyze", "--p", "5", "--a", "1", "--b", "0", "--ell", "3",
        "--triples", "sample", count,
    )
    assert code == 2
    assert "sample count" in data["error"]["message"]


@pytest.mark.parametrize(
    "command,spec,extra",
    [
        ("analyze", ("--triples", "sample", "5", "9"), "9"),
        ("analyze", ("--triples", "all", "x"), "x"),
        ("analyze", ("--triples", "same-char", "4"), "4"),
        ("verify", ("--mode", "exhaustive", "7"), "7"),
        ("verify", ("--mode", "sample", "5", "2"), "2"),
    ],
)
def test_trailing_mode_token_exit_2(capsys, command, spec, extra):
    code, data = run_json(
        capsys, command, "--p", "5", "--a", "1", "--b", "0", "--ell", "3", *spec
    )
    assert code == 2
    assert repr(extra) in data["error"]["message"]


@pytest.mark.parametrize(
    "command,spec,message",
    [
        ("analyze", ("--triples", "all", "x"), "--triples all: unexpected extra token 'x'"),
        ("analyze", ("--triples", "sample", "-3"),
         "--triples sample count must be a non-negative integer, got '-3'"),
        ("analyze", ("--triples", "some"), "--triples must be all, same-char, or sample [N]"),
        ("verify", ("--mode", "exhaustive", "7"), "--mode exhaustive: unexpected extra token '7'"),
        ("verify", ("--mode", "sample", "x"),
         "--mode sample count must be a non-negative integer, got 'x'"),
        ("verify", ("--mode", "every"), "--mode must be exhaustive or sample [N]"),
        ("analyze", ("--triples", "sample", "1953126"),
         "--triples sample 1953126 exceeds the cap of 1953125 triples"),
        ("verify", ("--mode", "sample", "1953126"),
         "--mode sample 1953126 exceeds the cap of 1953125 triples"),
    ],
    ids=["analyze-extra", "analyze-count", "analyze-word", "verify-extra", "verify-count", "verify-word",
         "analyze-cap", "verify-cap"],
)
def test_malformed_mode_rejected_before_the_group_is_built(capsys, monkeypatch, command, spec, message):
    from ellmassey import galois

    def build_gbar(curve, ell):
        raise RuntimeError("the group was built before the mode was checked")

    monkeypatch.setattr(galois, "build_gbar", build_gbar)
    code, data = run_json(
        capsys, command, "--p", "11", "--k0", "2", "--a", "1,2", "--b", "1,2", "--ell", "3", *spec
    )
    assert code == 2
    assert data["error"]["message"] == message


def test_sample_count_at_the_triple_cap_is_accepted():
    assert cli.TRIPLE_CAP == 125**3  # the l = 5 full-torsion table
    for flag, words in (("--triples", ("all", "same-char", "sample")), ("--mode", ("exhaustive", "sample"))):
        spec = ["sample", str(cli.TRIPLE_CAP)]
        assert cli._parse_mode(spec, flag, words, "usage") == ("sample", cli.TRIPLE_CAP)


def test_analyze_table_past_the_triple_cap_exit_2(capsys):
    # l = 7 full torsion: 343 characters, 343^3 triples, rejected before any is built
    t0 = time.monotonic()
    code, data = run_json(capsys, "analyze", "--p", "43", "--a", "0", "--b", "3", "--ell", "7")
    assert time.monotonic() - t0 < 1.0
    assert code == 2
    assert data["error"]["message"] == (
        "--triples all is capped at 1953125 triples; this curve has 343 characters, "
        "40353607 triples (use --triples sample N)"
    )


def test_sample_count_shared_by_verify_and_analyze(capsys):
    # both commands draw the same seeded triples from one helper
    code, verify = run_json(
        capsys, "verify", "--p", "5", "--a", "1", "--b", "0", "--ell", "3",
        "--mode", "sample", "7",
    )
    assert code == 0
    assert verify["checked"] == 7
    assert verify["meta"]["mode"] == "sample 7"
    code, analyze = run_json(
        capsys, "analyze", "--p", "5", "--a", "1", "--b", "0", "--ell", "3",
        "--triples", "sample", "7",
    )
    assert code == 0
    assert len(analyze["verdicts"]) == 7
    assert analyze["meta"]["mode"] == "sample 7"
    code, empty = run_json(
        capsys, "verify", "--p", "5", "--a", "1", "--b", "0", "--ell", "3",
        "--mode", "sample", "0",
    )
    assert code == 0
    assert empty["checked"] == 0


def test_search_case_mismatch_is_an_error_not_an_assert(capsys, monkeypatch):
    from ellmassey import galois

    monkeypatch.setattr(galois, "classify_case", lambda A, ell: galois.GaloisCase.NO_FIXED_POINTS)
    code, data = run_json(
        capsys, "search", "--ell", "3", "--case", "split", "--max-p", "20", "--limit", "1"
    )
    assert code == 4
    assert data["error"]["message"].startswith("CaseMismatch:")


@pytest.mark.parametrize("p,a,b,rank", [(7, 0, 2, 1), (7, 0, 1, 2), (5, 1, 0, 1)])
def test_analyze_rank_that_disagrees_with_the_frobenius_matrix_exits_4(capsys, monkeypatch, p, a, b, rank):
    """At l = 3 the group is built from the case the rank gives and the E[9]
    Frobenius matrix; a full-torsion, a unipotent and a no-fixed-points curve
    given a wrong rank are an internal error, not a group."""
    monkeypatch.setattr(ec, "rational_torsion_rank", lambda curve, ell: rank)
    code, data = run_json(
        capsys, "analyze", "--p", str(p), "--a", str(a), "--b", str(b), "--ell", "3"
    )
    assert code == 4
    assert data["error"]["message"].startswith("CaseMismatch:")


@pytest.mark.parametrize(
    "argv",
    [
        ("search", "--ell", "3", "--case", "split", "--max-p", "5", "--limit", "1"),
        ("analyze", "--p", "5", "--a", "0", "--b", "1", "--ell", "3"),
    ],
)
def test_frobenius_inconsistency_exits_4(capsys, monkeypatch, argv):
    from ellmassey import ec

    monkeypatch.setattr(ec, "frobenius_endo", lambda P, q: P)
    code, data = run_json(capsys, *argv)
    assert code == 4
    assert data["error"]["message"].startswith("InternalError:")


def test_search_decides_the_rank_once_per_isomorphism_class(capsys, monkeypatch):
    """The rank is computed once per GF(p)-isomorphism class of every scanned
    prime, and the E[3] basis and its Frobenius matrix once per class that
    reports a row; the point count shared by a class is each row's own
    (p + 1 + a Legendre-symbol sum)."""
    import fixtures
    from ellmassey import ec

    calls = {"rank": 0, "basis": 0, "matrix": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(ec, "rational_torsion_rank", counted("rank", ec.rational_torsion_rank))
    monkeypatch.setattr(ec, "torsion_basis", counted("basis", ec.torsion_basis))
    monkeypatch.setattr(ec, "frobenius_matrix", counted("matrix", ec.frobenius_matrix))
    code, data = run_json(
        capsys, "search", "--ell", "3", "--case", "unipotent", "--max-p", "40", "--limit", "1000000"
    )
    assert code == 0
    primes = (7, 13, 19, 31, 37)
    assert {row["p"] for row in data["rows"]} == set(primes)
    assert calls["rank"] == sum(2 * p + {1: 6, 7: 4}[p % 12] for p in primes)

    row_classes = {(r["p"], fixtures.isomorphism_orbit(r["a"], r["b"], r["p"])) for r in data["rows"]}
    assert calls["basis"] == calls["matrix"] == len(row_classes)
    for r in data["rows"]:
        p, a, b = r["p"], r["a"], r["b"]
        symbols = [pow(x**3 + a * x + b, (p - 1) // 2, p) for x in range(p)]
        assert r["points"] == p + 1 + symbols.count(1) - symbols.count(p - 1)


def test_fixed_line_groups_at_ell5_and_ell7_build_no_torsion_basis(capsys, monkeypatch):
    """analyze and verify read an l = 5, 7 group with a fixed line off its
    case; only the no-fixed-points report builds E[l] and its matrix."""
    import fixtures

    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(ec, "torsion_basis", counted("basis", ec.torsion_basis))
    monkeypatch.setattr(ec, "frobenius_matrix", counted("matrix", ec.frobenius_matrix))
    for ell, case in [(5, "split_line"), (5, "unipotent_line"), (5, "full_torsion"),
                      (7, "split_line"), (7, "unipotent_line")]:
        p, a, b = fixtures.CURVES[(ell, case)]
        curve = ("--p", str(p), "--a", str(a), "--b", str(b), "--ell", str(ell))
        code, data = run_json(capsys, "analyze", *curve, "--triples", "sample", "5")
        assert (code, data["case"]) == (0, case)
        code, data = run_json(capsys, "verify", *curve, "--mode", "sample", "5")
        assert (code, data["mismatches"]) == (0, [])
    assert calls == []

    p, a, b = fixtures.CURVES[(5, "no_fixed_points")]
    code, data = run_json(capsys, "analyze", "--p", str(p), "--a", str(a), "--b", str(b), "--ell", "5")
    assert (code, data["case"]) == (0, "no_fixed_points")
    assert data["frobenius_matrix_l"] is not None
    assert calls == ["basis", "matrix"]


def test_search_with_a_pair_off_its_class_orbit_exits_4_without_rows(capsys, monkeypatch):
    """A class key that merges classes puts pairs in a class whose first
    curve does not carry over to them: an InternalError, not a row."""
    from ellmassey import ec

    monkeypatch.setattr(ec, "class_key", lambda a, b, p: 0)
    code, data = run_json(
        capsys, "search", "--ell", "5", "--case", "split", "--max-p", "100", "--limit", "3"
    )
    assert code == 4
    assert data["error"]["message"].startswith("InternalError:")
    assert "rows" not in data


def test_search_checks_the_class_orbit_before_the_row_matrix(capsys, monkeypatch):
    """A pair is looked up in its class's orbit {(u^4 a0, u^6 b0)} before its
    matrix is read off the class: a pair off the orbit is named with its key,
    and no matrix is transported to it. With every pair in one class, each
    prime below 29 starts its class with a curve of another case and reports
    nothing; over GF(29) the first curve, (0, 1), is a row and the one matrix
    transported, and (0, 2) is not of the form (0, u^6)."""
    from ellmassey import ec, galois

    real, transported = galois.transported_matrix, []

    def counted(basis, A0, u):
        transported.append(u)
        return real(basis, A0, u)

    monkeypatch.setattr(ec, "class_key", lambda a, b, p: 0)
    monkeypatch.setattr(galois, "transported_matrix", counted)
    code, data = run_json(
        capsys, "search", "--ell", "5", "--case", "split", "--max-p", "100", "--limit", "3"
    )
    assert code == 4
    assert data["error"]["message"] == "InternalError: (0, 2) lies off the orbit of its class 0 over GF(29)"
    assert len(transported) == 1


def test_search_rows_do_not_depend_on_seed(capsys):
    args = ("search", "--ell", "3", "--case", "full3", "--max-p", "100", "--limit", "5")
    code1, d1 = run_json(capsys, *args, "--seed", "1")
    code2, d2 = run_json(capsys, *args, "--seed", "2")
    assert code1 == code2 == 0
    assert d1["rows"] == d2["rows"]
    assert (d1["meta"]["seed"], d2["meta"]["seed"]) == (1, 2)


def test_analyze_verdicts_do_not_depend_on_seed(capsys):
    # E[9] of this curve lies over an extension, so building the group splits
    args = ("analyze", "--p", "5", "--a", "0", "--b", "1", "--ell", "3", "--triples", "all")
    code1, d1 = run_json(capsys, *args, "--seed", "1")
    code2, d2 = run_json(capsys, *args, "--seed", "2")
    assert code1 == code2 == 0
    d1.pop("meta")
    d2.pop("meta")
    assert d1 == d2


@pytest.mark.parametrize("limit", ["0", "-2"])
def test_search_limit_below_one_exit_2(capsys, limit):
    code, data = run_json(
        capsys, "search", "--ell", "3", "--case", "split", "--max-p", "20", "--limit", limit
    )
    assert code == 2
    assert "--limit" in data["error"]["message"]


def test_search_max_p_past_the_point_count_cap_exit_2(capsys):
    code, data = run_json(capsys, "search", "--ell", "3", "--case", "split", "--max-p", "50022")
    assert code == 2
    assert data == {"error": {"message": f"--max-p capped at {ec.POINT_COUNT_CAP}"}}


def test_galois_check_examples(tmp_path, capsys):
    scalar = tmp_path / "scalar.json"
    scalar.write_text(
        json.dumps(
            {
                "generators": [[[4, 0], [0, 4]]],
                "chi_on_generators": [0],
                "chi_on_torsion": [0, 1],
                "has_ninth_root": False,
                "unique_cubic_extension": True,
            }
        )
    )
    code, data = run_json(capsys, "galois-check", "--input", str(scalar), "--theorem", "11")
    assert code == 0
    assert data == {"theorem": "11", "exists_non_vanishing_chi": False, "branch": "none"}

    nonscalar = tmp_path / "nonscalar.json"
    nonscalar.write_text(
        json.dumps(
            {
                "generators": [[[1, 3], [0, 1]], [[4, 0], [0, 4]]],
                "chi_on_generators": [0, 0],
                "chi_on_torsion": [1, 0],
                "has_ninth_root": False,
                "unique_cubic_extension": False,
            }
        )
    )
    code, data = run_json(capsys, "galois-check", "--input", str(nonscalar), "--theorem", "11")
    assert code == 0
    assert data["branch"] == "i" and data["exists_non_vanishing_chi"] is True

    code, data = run_json(capsys, "galois-check", "--input", str(nonscalar), "--theorem", "52")
    assert code == 0
    assert data["status"] == "NonVanishing"
    assert data["witness"]["a"] and data["witness"]["sigma"]


def test_galois_check_schema_violation_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"generators": [[[0, 1], [1, 0]]]}))
    code, data = run_json(capsys, "galois-check", "--input", str(bad), "--theorem", "52")
    assert code == 2
    assert "error" in data



def test_galois_check_undecodable_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "binary.json"
    bad.write_bytes(b'{"generators": "\xd0\x00"}')
    code, data = run_json(capsys, "galois-check", "--input", str(bad), "--theorem", "52")
    assert code == 2
    assert "error" in data


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100_000 + "]" * 100_000,
        '{"generators": ' + "[" * 5_000 + "[[1, 0], [0, 1]]" + "]" * 5_000 + ', "chi_on_generators": [0], '
        '"chi_on_torsion": [0, 0], "has_ninth_root": false, "unique_cubic_extension": true}',
    ],
    ids=["brackets", "generators"],
)
def test_galois_check_deeply_nested_json_exit_2(tmp_path, capsys, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, data = run_json(capsys, "galois-check", "--input", str(path), "--theorem", "52")
    assert code == 2
    assert data["error"]["message"].endswith("JSON nested too deeply")


VALID_ABSTRACT = {
    "generators": [[[1, 3], [0, 1]], [[4, 0], [0, 4]]],
    "chi_on_generators": [0, 1],
    "chi_on_torsion": [1, 0],
    "has_ninth_root": False,
    "unique_cubic_extension": False,
}


@pytest.mark.parametrize(
    "field,value",
    [
        ("chi_on_generators", ["x", 1]),
        ("chi_on_generators", [1.7, 1]),
        ("chi_on_generators", [True, 1]),
        ("chi_on_torsion", [1, "0"]),
        ("chi_on_torsion", [1.7, 0]),
        ("chi_on_torsion", [False, 0]),
        ("generators", [[[1, 3], [0, 1]], [[4.0, 0], [0, 4]]]),
        ("generators", [[[1, 3], [0, True]], [[4, 0], [0, 4]]]),
        ("generators", [[[1, 3], [0, "1"]], [[4, 0], [0, 4]]]),
        ("generators", [[[1, 3], [0, 1]], "ab"]),
    ],
    ids=["chi-str", "chi-float", "chi-bool", "tor-str", "tor-float", "tor-bool",
         "gen-float", "gen-bool", "gen-str", "gen-not-matrix"],
)
def test_galois_check_non_integer_entries_exit_2(tmp_path, capsys, field, value):
    path = tmp_path / "data.json"
    path.write_text(json.dumps({**VALID_ABSTRACT, field: value}))
    for theorem in ("52", "11"):
        code, data = run_json(capsys, "galois-check", "--input", str(path), "--theorem", theorem)
        assert code == 2
        assert "error" in data


def test_galois_check_valid_abstract_baseline(tmp_path, capsys):
    # the payload the non-integer cases perturb is itself accepted
    path = tmp_path / "data.json"
    path.write_text(json.dumps(VALID_ABSTRACT))
    code, data = run_json(capsys, "galois-check", "--input", str(path), "--theorem", "11")
    assert code == 0
    assert data["branch"] == "i"
