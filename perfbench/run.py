"""End-to-end benchmark of the ellmassey CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each command of the workload (see ``workloads.py``) runs in a fresh
interpreter, one at a time, from this single closed-loop process, so the
package's caches start cold as they do for a user. The workload's pass of
commands (``workloads.py``) repeats round-robin for ``S`` seconds, and each
command is timed by the median of its runs: on a shared host one command's
time moves by 10-40% from run to run, and only long runs average that out.
Every output is checked after the command has been timed (``checks.py``); a
repeat must print the same stdout as the checked first run.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median cold
``--help``), ``items_per_s`` (a pass's items over the sum of the commands'
median times, so long commands weigh most), ``cmd_geomean_s`` (geometric
mean of the commands' median times, so every command weighs the same) and
``peak_rss_mb``. Failed commands are the result's ``failed`` out of
``attempted``. ``--trace 1`` runs one pass twice per command, untraced and
then under ``traced_cli.py``, and reports the per-layer metrics of
``spans.py`` plus the tracing overhead.

The last line of stdout is one JSON result. A record of the run (git state,
Python, nproc, load averages, every command's argv, exit code, child RSS
and stdout digest, and in traced runs every span) is written once at the end
to ``.perfbench/``.

Deliberately left out, for cost: exhaustive l=5 ``verify`` (about 321 s),
the Tier-1 test suite (350-637 s), the l=5 full-torsion ``analyze`` table
(1.95 M rows, 40 s, 2.2 GB RSS), random l=7 curves (fields up to
GF(p^42)), and the l=7 tables' second format (JSON of the unipotent table,
CSV of the split one), which would make the fixtures pass too long to
repeat within a run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 10
RUN_DEADLINE_S = 170.0  # a run must end within 180 s


@dataclass
class Child:
    """One finished child process."""

    rc: int
    wall_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


class Launcher:
    """Runs child processes through ``launcher.py``, which stays small."""

    def __init__(self):
        self.dir = Path(tempfile.mkdtemp(dir=OUT_DIR))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], cwd=ROOT, env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], timeout: float) -> Child:
        """Run ``argv`` from the repository root; wall time includes interpreter start."""
        out, err = self.dir / "stdout", self.dir / "stderr"
        request = {"argv": argv, "stdout": str(out), "stderr": str(err), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Child(reply["rc"], reply["wall_s"], reply["rss_kb"] / 1024, out.read_bytes(), err.read_bytes())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        shutil.rmtree(self.dir)


def cli_argv(args) -> list[str]:
    return [sys.executable, "-m", "ellmassey.cli", *args]


def traced_argv(args) -> list[str]:
    return [sys.executable, str(HERE / "traced_cli.py"), *args]


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True,
                                timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}
    return {"sha": sha.stdout.strip() or None, "dirty": bool(status.stdout.strip())}


class Run:
    """Executes, checks and records the commands of one benchmark run."""

    def __init__(self, workload: str, deadline: float, launcher: Launcher):
        self.workload = workload
        self.launcher = launcher
        self.deadline = deadline
        self.groups = checks.GroupCache()
        self.checked: dict[tuple, tuple[str, int]] = {}  # argv -> (stdout digest, items) of a passed check
        self.records: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def execute(self, argv: list[str], cmd, label: str) -> tuple[Child, int]:
        """Run and check one command; returns the child and its item count.

        A command whose argv already passed its check is checked by comparing
        its stdout digest with that run's.
        """
        self.attempted += 1
        child = self.launcher.run(argv, self.deadline - time.monotonic())
        check_start = time.perf_counter()
        digest = hashlib.sha256(checks.stable_stdout(child.stdout)).hexdigest()
        error, items = None, 0
        try:
            if cmd is None:
                if child.rc != 0 or b"usage: ellmassey" not in child.stdout:
                    raise checks.CheckFailed(f"--help exit code {child.rc}")
            elif tuple(argv) in self.checked:
                first_digest, items = self.checked[tuple(argv)]
                if child.rc != 0 or digest != first_digest:
                    raise checks.CheckFailed("stdout or exit code differs from the checked run of this command")
            else:
                items = checks.check(cmd, child.rc, child.stdout, self.groups)
                if self.workload == "analyze_generic":
                    items = 1  # an item is a curve
                if child.rc == 0:
                    self.checked[tuple(argv)] = (digest, items)
        except checks.CheckFailed as exc:
            error = str(exc)
        if error is None and child.rc != 0:
            error = f"exit code {child.rc}"
        if error is not None:
            self.failed += 1
            items = 0
        self.records.append({
            "label": label,
            "argv": argv[1:],
            "exit_code": child.rc,
            "wall_s": child.wall_s,
            "rss_mb": child.rss_mb,
            "stdout_bytes": len(child.stdout),
            "stdout_sha256": digest,
            "items": items,
            "error": error,
            "check_s": time.perf_counter() - check_start,
        })
        return child, items

    def out_of_time(self) -> bool:
        """True once the run's deadline has passed; a command not run then counts as failed."""
        if time.monotonic() < self.deadline:
            return False
        self.attempted += 1
        self.failed += 1
        return True


def end_to_end(run: Run, cmds, seconds: float, clock=time.monotonic) -> tuple[dict, dict]:
    """Run the pass's commands round-robin until ``seconds`` have passed.

    At least one whole pass runs. A command's time is the median of its runs,
    so a pass cut short biases nothing. Cold ``--help`` runs for setup_s are
    spread evenly over the run.
    """
    start = clock()
    setup, rss, walls, items = [], [], defaultdict(list), {}
    next_setup, n = start, 0
    while n < len(cmds) or clock() - start < seconds:
        if run.out_of_time():
            break
        if clock() >= next_setup:
            setup.append(run.execute(cli_argv(["--help"]), None, "setup --help")[0].wall_s)
            next_setup = clock() + seconds / SETUP_REPEATS
        i = n % len(cmds)
        child, items[i] = run.execute(cli_argv(cmds[i].argv), cmds[i], cmds[i].label)
        walls[i].append(child.wall_s)
        rss.append(child.rss_mb)
        n += 1
    per_cmd = [statistics.median(w) for w in walls.values()]
    metrics = {
        "setup_s": (statistics.median(setup) if setup else 0.0, "s"),
        "items_per_s": (sum(items.values()) / sum(per_cmd) if per_cmd else 0.0, "1/s"),
        "cmd_geomean_s": (statistics.geometric_mean(per_cmd) if per_cmd else 0.0, "s"),
        "peak_rss_mb": (max(rss) if rss else 0.0, "MB"),
    }
    samples = {"setup_s": len(setup), "items_per_s": n, "cmd_geomean_s": n, "peak_rss_mb": len(rss)}
    return metrics, samples


def read_trace(stderr: bytes) -> dict | None:
    for line in stderr.decode(errors="replace").splitlines():
        if line.startswith(traced_cli.MARKER):
            try:
                return json.loads(line[len(traced_cli.MARKER):])
            except ValueError:
                return None
    return None


def traced(run: Run, cmds) -> tuple[dict, dict, list]:
    """Run each command untraced, then traced; per-layer metrics from the traced runs."""
    entries, dumps = [], []
    for cmd in cmds:
        if run.out_of_time():
            continue
        plain, items = run.execute(cli_argv(cmd.argv), cmd, cmd.label)
        child, _ = run.execute(traced_argv(cmd.argv), cmd, cmd.label + " traced")
        dump = read_trace(child.stderr)
        if dump is None or checks.stable_stdout(child.stdout) != checks.stable_stdout(plain.stdout):
            if run.records[-1]["error"] is None:
                run.failed += 1
                run.records[-1]["error"] = "traced run left no trace or changed stdout"
            continue
        dumps.append({"label": cmd.label, "spans": dump["spans"], "names": dump["names"]})
        entries.append({"dump": dump, "label": cmd.label, "kind": cmd.kind, "items": items,
                        "stdout_bytes": len(child.stdout), "plain_s": plain.wall_s, "traced_s": child.wall_s})
    metrics = spans.layer_metrics(entries, [f[0] for f in workloads.FIXTURES])
    return metrics, {name: len(entries) for name in metrics}, dumps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_DEADLINE_S
    OUT_DIR.mkdir(exist_ok=True)
    cmds = workloads.WORKLOADS[args.workload](args.seed)
    launcher = Launcher()
    run = Run(args.workload, deadline, launcher)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git": git_state(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
    }
    dumps = None
    try:
        if args.trace:
            metrics, samples, dumps = traced(run, cmds)
        else:
            metrics, samples = end_to_end(run, cmds, args.seconds)
    finally:
        launcher.close()
    meta["loadavg_after"] = os.getloadavg()

    digest = hashlib.sha256("".join(r["stdout_sha256"] for r in run.records).encode()).hexdigest()
    record = {"meta": meta, "commands": run.records, "stdout_digest": digest,
              "metrics": {k: v for k, (v, _) in metrics.items()}, "samples": samples}
    if dumps is not None:
        record["spans"] = dumps
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, separators=(",", ":")))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"commands={run.attempted} failed={run.failed} loadavg={meta['loadavg_before'][0]:.2f}"
          f"->{meta['loadavg_after'][0]:.2f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}  (n={samples[name]})")
    for rec in run.records:
        if rec["error"]:
            print(f"  FAILED {rec['label']}: {rec['error']}")
    print(f"  stdout digest {digest}")
    print(f"  record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "ellmassey" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no ellmassey sources under {SRC}; run from a full checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import checks
    import spans
    import traced_cli
    import workloads

    sys.exit(main())
