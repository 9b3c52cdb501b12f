"""Tests of the benchmark's own logic: span self times, seeded generators and
the output checks. Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import pytest  # noqa: E402

import checks  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import traced_cli  # noqa: E402
import workloads  # noqa: E402


def run_cli(args, traced=False):
    script = [str(HERE / "traced_cli.py")] if traced else ["-m", "ellmassey.cli"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *script, *args], capture_output=True, env=env, timeout=120)


def command(kind, args, requested=None):
    return workloads.Command(kind, tuple(args), "test", requested)


# ---------------------------------------------------------------------------
# spans

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_subtracts_nested_child_span():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    lift = tracer.span("oracle.oracle_lift_witness", lambda: clock.advance(5.0))

    def contains_zero():
        clock.advance(2.0)
        lift()
        clock.advance(3.0)

    tracer.span("oracle.oracle_contains_zero", contains_zero)()
    names = [tracer.names[rec[0]] for rec in tracer.spans]
    assert names == ["oracle.oracle_contains_zero", "oracle.oracle_lift_witness"]
    assert tracer.spans[1][1] == 0  # the witness span's parent
    assert spans.self_times(tracer.spans) == [5.0, 5.0]


def test_self_time_clips_children_to_parent_and_merges_overlap():
    # [start, end] of a parent and children that overlap each other and the parent's end
    recs = [[0, -1, 0.0, 10.0, None], [0, 0, 1.0, 4.0, None], [0, 0, 3.0, 6.0, None], [0, 0, 9.0, 12.0, None]]
    assert spans.self_times(recs) == [10.0 - 5.0 - 1.0, 3.0, 3.0, 3.0]


def test_traced_command_nests_witness_under_contains_zero():
    args = ["verify", "--p", "5", "--a", "1", "--b", "0", "--ell", "3", "--mode", "exhaustive"]
    plain, traced = run_cli(args), run_cli(args, traced=True)
    assert plain.returncode == traced.returncode == 0
    assert checks.stable_stdout(plain.stdout) == checks.stable_stdout(traced.stdout)
    line = next(x for x in traced.stderr.decode().splitlines() if x.startswith(traced_cli.MARKER))
    dump = json.loads(line[len(traced_cli.MARKER):])
    names = dump["names"]
    by_name = {}
    for rec, own in zip(dump["spans"], spans.self_times(dump["spans"])):
        by_name.setdefault(names[rec[0]], []).append((rec, own))
    witness = by_name["oracle.oracle_lift_witness"]
    assert all(names[dump["spans"][rec[1]][0]] == "oracle.oracle_contains_zero" for rec, _ in witness)
    for rec, own in by_name["oracle.oracle_contains_zero"]:
        assert 0.0 <= own <= rec[3] - rec[2]
    # oracle binds u4_mul_raw by name; the count must include those calls
    assert dump["counts"]["unitri.u4_mul_raw"] > 0
    metrics = spans.layer_metrics(
        [{"dump": dump, "label": "l3_no_fixed_points", "kind": "verify", "items": 27,
          "stdout_bytes": len(traced.stdout), "plain_s": 1.0, "traced_s": 1.5}],
        [f[0] for f in workloads.FIXTURES])
    assert metrics["oracle.oracle_contains_zero.calls"][0] == len(by_name["oracle.oracle_contains_zero"])
    assert metrics["oracle.triple_ms.l3_no_fixed_points"][0] > 0
    assert metrics["oracle.triple_ms.l7_unipotent_line"][0] == 0
    assert metrics["trace.overhead_frac"][0] == pytest.approx(0.5)


def test_powmods_per_root_counts_only_powmods_under_root_finding():
    dump = {
        "names": ["ff.roots_in_field", "ff.poly_powmod"],
        "spans": [[0, -1, 0.0, 4.0, 2], [1, 0, 1.0, 2.0, None], [1, 0, 2.0, 3.0, None],
                  [1, -1, 5.0, 6.0, None]],
        "counts": {}, "caches": {"ff.make_field": [3, 1]},
    }
    metrics = spans.layer_metrics(
        [{"dump": dump, "label": "x", "kind": "analyze", "items": 1, "stdout_bytes": 0,
          "plain_s": 1.0, "traced_s": 1.0}], [])
    assert metrics["ff.roots_in_field.powmods_per_root"][0] == 1.0
    assert metrics["ff.poly_powmod.calls"][0] == 3
    assert metrics["ff.make_field.cache_hit_frac"][0] == 0.75


# ---------------------------------------------------------------------------
# generators

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_in_the_seed(name):
    generate = workloads.WORKLOADS[name]
    assert generate(7) == generate(7)
    assert any(generate(7) != generate(seed) for seed in range(8, 12))


def test_catalogue_is_a_fixed_nonsingular_draw():
    assert workloads.draw_curves(workloads.GENERIC_CATALOGUE_SEED, workloads.GENERIC_CURVES) == workloads.CATALOGUE
    for ell, p, a, b in workloads.CATALOGUE:
        assert workloads.is_prime(p) and p in workloads.GENERIC_PRIMES[ell]
        assert (4 * a**3 + 27 * b**2) % p


# ---------------------------------------------------------------------------
# end-to-end timing

class FakeLauncher:
    """Replies with scripted (wall seconds, stdout) per verify command, advancing ``clock``."""

    def __init__(self, script, clock):
        self.script = {argv: iter(replies) for argv, replies in script.items()}
        self.clock = clock

    def run(self, argv, timeout):
        if argv[-1] == "--help":
            wall, stdout = 0.1, b"usage: ellmassey"
        else:
            wall, stdout = next(self.script[tuple(argv[3:])])
        self.clock.advance(wall)
        return bench.Child(0, wall, 20.0, stdout, b"")


def test_end_to_end_takes_each_commands_median_and_checks_repeats(monkeypatch):
    monkeypatch.setattr(bench, "checks", checks, raising=False)
    ok = json.dumps({"checked": 10, "mismatches": [], "meta": {"elapsed_ms": 5}}).encode()
    other_elapsed = ok.replace(b'"elapsed_ms": 5', b'"elapsed_ms": 9')
    changed = json.dumps({"checked": 10, "mismatches": [], "meta": {"elapsed_ms": 5, "x": 1}}).encode()
    cmds = [command("verify", ["verify", "--p", "5", "--a", "1", "--b", "0", "--ell", "3",
                               "--mode", "sample", "10", "--seed", seed], 10) for seed in ("1", "2")]
    clock = FakeClock()
    launcher = FakeLauncher({
        cmds[0].argv: [(1.0, ok), (0.8, other_elapsed), (0.9, ok)],
        cmds[1].argv: [(2.0, ok), (1.5, changed), (1.7, ok)],
    }, clock)
    run = bench.Run("fixtures", float("inf"), launcher)
    # round-robin until 7 s have passed: each command runs three times
    metrics, _ = bench.end_to_end(run, cmds, 7.0, clock)
    assert metrics["cmd_geomean_s"] == (pytest.approx((0.9 * 1.7) ** 0.5), "s")
    assert metrics["items_per_s"] == (pytest.approx(20 / (0.9 + 1.7)), "1/s")
    assert metrics["setup_s"] == (0.1, "s")
    # only the repeat whose stdout differs beyond elapsed_ms fails
    timed = [r["error"] is not None for r in run.records if r["label"] == "test"]
    assert timed == [False, False, False, True, False, False]
    assert run.failed == 1 and run.attempted == len(run.records)


# ---------------------------------------------------------------------------
# checks

def test_verify_check_rejects_doctored_output():
    cmd = command("verify", ["verify", "--p", "5", "--a", "1", "--b", "0", "--ell", "3", "--mode", "sample", "10"], 10)
    good = {"checked": 10, "mismatches": [], "meta": {"elapsed_ms": 3}}
    groups = checks.GroupCache()
    assert checks.check(cmd, 0, json.dumps(good).encode(), groups) == 10
    bad_outputs = [
        (1, good),
        (0, dict(good, checked=9)),
        (0, dict(good, mismatches=[{"engine": "Empty", "oracle": "ContainsZero"}])),
        (0, [good]),
    ]
    for rc, out in bad_outputs:
        with pytest.raises(checks.CheckFailed):
            checks.check(cmd, rc, json.dumps(out).encode(), groups)
    with pytest.raises(checks.CheckFailed):
        checks.check(cmd, 0, b"not json", groups)


def test_verify_check_counts_exhaustive_triples_from_the_group():
    cmd = command("verify", ["verify", "--p", "5", "--a", "1", "--b", "0", "--ell", "3", "--mode", "exhaustive"])
    out = json.dumps({"checked": 27, "mismatches": []}).encode()
    assert checks.check(cmd, 0, out, checks.GroupCache()) == 27


ANALYZE = ["analyze", "--p", "7", "--a", "0", "--b", "1", "--ell", "3", "--triples", "all"]
SWAP = {"Empty": "ContainsZero", "ContainsZero": "NonVanishing", "NonVanishing": "Empty"}


def test_analyze_check_accepts_real_output_and_rejects_doctored_json():
    cmd = command("analyze", ANALYZE)
    stdout = run_cli(ANALYZE).stdout
    groups = checks.GroupCache()
    assert checks.check(cmd, 0, stdout, groups) == 9**3
    out = json.loads(stdout)
    dropped = dict(out, verdicts=out["verdicts"][:-1])
    wrong = dict(out, verdicts=[dict(v, status=SWAP[v["status"]]) for v in out["verdicts"]])
    for doctored in (dropped, wrong, dict(out, characters=8)):
        with pytest.raises(checks.CheckFailed):
            checks.check(cmd, 0, json.dumps(doctored).encode(), groups)


def test_analyze_check_rejects_doctored_csv():
    args = ANALYZE + ["--format", "csv"]
    cmd = command("analyze", args)
    lines = run_cli(args).stdout.decode().splitlines()
    groups = checks.GroupCache()
    assert checks.check(cmd, 0, ("\n".join(lines) + "\n").encode(), groups) == 9**3
    wrong = [lines[0]] + [",".join(f[:3] + [SWAP[f[3]]] + f[4:]) for f in (x.split(",") for x in lines[1:])]
    for doctored in (lines[:-1], wrong):
        with pytest.raises(checks.CheckFailed):
            checks.check(cmd, 0, "\n".join(doctored).encode(), groups)


def test_search_check_rejects_doctored_rows():
    args = ["search", "--ell", "3", "--case", "full3", "--max-p", "40", "--limit", "3"]
    cmd = command("search", args, 3)
    out = json.loads(run_cli(args).stdout)
    assert checks.check(cmd, 0, json.dumps(out).encode(), None) == 3
    rows = out["rows"]
    off_by_one = [dict(rows[0], points=rows[0]["points"] + 3)] + rows[1:]
    # y^2 = x^3 + x + 1 over F_7 has 5 points: counted right, but 3 does not divide it
    not_divisible = [dict(rows[0], p=7, a=1, b=1, points=5)] + rows[1:]
    for doctored in (rows[:-1], off_by_one, not_divisible):
        with pytest.raises(checks.CheckFailed):
            checks.check(cmd, 0, json.dumps(dict(out, rows=doctored)).encode(), None)
    with pytest.raises(checks.CheckFailed):
        checks.check(cmd, 3, json.dumps(out).encode(), None)


def test_legendre_count_matches_brute_force():
    for p, a, b in ((7, 1, 1), (11, 3, 5), (13, 0, 2)):
        brute = 1 + sum(1 for x in range(p) for y in range(p) if (y * y - x**3 - a * x - b) % p == 0)
        assert checks.legendre_point_count(p, a, b) == brute


def test_stable_stdout_blanks_only_elapsed_ms():
    a = b'{"meta": {"elapsed_ms": 12, "seed": 1}}'
    b = b'{"meta": {"elapsed_ms": 907, "seed": 1}}'
    assert checks.stable_stdout(a) == checks.stable_stdout(b)
    assert checks.stable_stdout(a) != checks.stable_stdout(a.replace(b'"seed": 1', b'"seed": 2'))
