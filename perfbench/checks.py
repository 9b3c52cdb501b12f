"""Untimed correctness checks on one command's exit code and stdout.

Each ``check_*`` returns the number of triples checked, rows found or verdict
rows emitted, and raises ``CheckFailed`` on any wrong output. Analyze
rows are re-derived with the lifting oracle on a seeded sample; search rows
are re-counted with Legendre symbols, independently of ``ec.count_points``.
"""

from __future__ import annotations

import json
import random
import re

from ellmassey import ec, ff, galois, oracle
from ellmassey.errors import EllmasseyError
from workloads import Command

ANALYZE_SAMPLE_ROWS = 6
_ELAPSED = re.compile(rb'"elapsed_ms": -?\d+')


class CheckFailed(Exception):
    pass


def stable_stdout(stdout: bytes) -> bytes:
    """Stdout with the ``meta.elapsed_ms`` value blanked, for bit-identical diffs."""
    return _ELAPSED.sub(b'"elapsed_ms": null', stdout)


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def _json(stdout: bytes) -> dict:
    try:
        return json.loads(stdout)
    except ValueError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None


def check_verify(cmd: Command, rc: int, stdout: bytes, groups) -> int:
    _require(rc == 0, f"exit code {rc}")
    out = _json(stdout)
    _require(out.get("mismatches") == [], f"mismatches: {out.get('mismatches')!r:.200}")
    expected = cmd.requested
    if expected is None:  # exhaustive: every ordered triple of characters
        expected = len(groups.get(cmd).characters()) ** 3
    _require(out.get("checked") == expected, f"checked {out.get('checked')} of {expected}")
    return expected


def legendre_point_count(p: int, a: int, b: int) -> int:
    """#E(F_p) for y^2 = x^3 + ax + b, by Euler's criterion on each x."""
    count = 1
    for x in range(p):
        rhs = (x * x * x + a * x + b) % p
        count += 1 if rhs == 0 else (2 if pow(rhs, (p - 1) // 2, p) == 1 else 0)
    return count


def check_search(cmd: Command, rc: int, stdout: bytes, groups=None) -> int:
    _require(rc == 0, f"exit code {rc}")
    rows = _json(stdout).get("rows")
    _require(isinstance(rows, list) and len(rows) == cmd.requested,
             f"{len(rows) if isinstance(rows, list) else rows!r} rows, limit {cmd.requested}")
    ell = int(cmd.flag("--ell"))
    for row in rows:
        points = legendre_point_count(row["p"], row["a"], row["b"])
        _require(row["points"] == points, f"row {row['p'], row['a'], row['b']}: {row['points']} points, not {points}")
        _require(points % ell == 0, f"row {row['p'], row['a'], row['b']}: {ell} does not divide {points}")
    return len(rows)


def _table(cmd: Command, stdout: bytes):
    """(character count or None, raw rows, row parser) of a JSON or CSV table.

    Rows are parsed only when sampled: a table has up to 7^6 of them.
    """
    if "--format" in cmd.argv and cmd.flag("--format") == "csv":
        lines = stdout.decode().splitlines()
        _require(bool(lines) and lines[0] == "chi1,chi2,chi3,status,reason", "bad CSV header")

        def parse(line):
            fields = line.split(",")
            return (*(tuple(int(v) for v in f.split("|")) for f in fields[:3]), fields[3])

        return None, lines[1:], parse
    out = _json(stdout)

    def parse(v):
        return tuple(v["chi1"]), tuple(v["chi2"]), tuple(v["chi3"]), v["status"]

    return out.get("characters"), out["verdicts"], parse


def oracle_status(group, values) -> str:
    """Verdict of the lifting oracle for a triple of character value tuples."""
    chis = [galois.Character(group, v) for v in values]
    if not oracle.oracle_nonempty(*chis, group):
        return "Empty"
    return "ContainsZero" if oracle.oracle_contains_zero(*chis, group) else "NonVanishing"


def check_analyze(cmd: Command, rc: int, stdout: bytes, groups) -> int:
    _require(rc == 0, f"exit code {rc}")
    reported, rows, parse = _table(cmd, stdout)
    group = groups.get(cmd)
    chars = len(group.characters())
    _require(reported in (None, chars), f"{reported} characters reported, group has {chars}")
    _require(len(rows) == chars**3, f"{len(rows)} verdict rows, expected {chars}^3")
    rng = random.Random(" ".join(cmd.argv))
    for raw in rng.sample(rows, min(ANALYZE_SAMPLE_ROWS, len(rows))):
        row = parse(raw)
        expected = oracle_status(group, row[:3])
        _require(row[3] == expected, f"triple {row[:3]}: engine {row[3]}, oracle {expected}")
    return len(rows)


class GroupCache:
    """Gbar groups of the checked curves, built once per run with the default seed."""

    def __init__(self):
        self._groups = {}

    def get(self, cmd: Command):
        key = tuple(int(cmd.flag(f)) for f in ("--p", "--a", "--b", "--ell"))
        if key not in self._groups:
            p, a, b, ell = key
            self._groups[key] = galois.build_gbar(ec.curve_new(ff.make_field(p, 1), a, b), ell)
        return self._groups[key]


CHECKS = {"verify": check_verify, "search": check_search, "analyze": check_analyze}


def check(cmd: Command, rc: int, stdout: bytes, groups: GroupCache) -> int:
    try:
        return CHECKS[cmd.kind](cmd, rc, stdout, groups)
    except (AttributeError, KeyError, TypeError, ValueError, IndexError, EllmasseyError) as exc:
        raise CheckFailed(f"malformed output: {exc!r:.200}") from None
