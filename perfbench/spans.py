"""Tracing for the benchmark's traced run, installed from outside the package.

``install`` replaces public functions of the ellmassey modules with wrappers.
Hot functions get count-only wrappers; the others record spans (name, parent,
start, end) kept in memory and dumped once when the command ends. Every
namespace that bound the original is patched, so ``oracle``'s by-name
imports from ``unitri`` are counted too. ``layer_metrics`` turns the dumps of
a run's traced commands into the per-layer metrics.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

SPANS = (
    ("ff", "make_field"),
    ("ff", "embed_field"),
    ("ff", "roots_in_field"),
    ("ff", "factor_monic_squarefree"),
    ("ff", "sqrt_in_field"),
    ("ff", "poly_powmod"),
    ("ec", "torsion_basis"),
    ("ec", "frobenius_matrix"),
    ("ec", "rational_torsion_rank"),
    ("ec", "count_points"),
    ("galois", "build_gbar"),
    ("galois", "enumerate_characters"),
    ("massey", "triple_verdict"),
    ("oracle", "oracle_nonempty"),
    ("oracle", "oracle_contains_zero"),
    ("oracle", "oracle_lift_witness"),
    ("cli", "main"),
)
COUNTERS = (
    ("ff", "ExtField.rmul"),
    ("ff", "poly_mul"),
    ("ec", "point_add"),
    ("galois", "classify_case"),
    ("unitri", "u4_mul_raw"),
    ("unitri", "u4_pow_raw"),
    ("unitri", "u4_inv_raw"),
    ("unitri", "u3_mul_raw"),
)
# lru caches whose cache_info() is read when the command ends
CACHES = (("ff", "make_field"), ("ec", "_rational_rank_cached"))
SIZED = {"ff.roots_in_field"}  # spans that also record len(result)


class Tracer:
    """Spans and counts of one process, kept in memory until ``dump``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, parent index or -1, start, end, size]
        self.stack: list[int] = []
        self.counts: dict[str, list[int]] = {}
        self.caches: dict[str, object] = {}

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records a span under ``name``."""
        name_idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, self.clock
        sized = name in SIZED

        def wrapper(*args, **kwargs):
            rec = [name_idx, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if sized:
                rec[4] = len(result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """``fn`` wrapped so that each call only increments a count."""
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def dump(self) -> dict:
        caches = {}
        for name, fn in self.caches.items():
            info = fn.cache_info()
            caches[name] = [info.hits, info.misses]
        return {
            "names": self.names,
            "spans": self.spans,
            "counts": {name: cell[0] for name, cell in self.counts.items()},
            "caches": caches,
        }


def _rebind(original, replacement):
    """Point every ellmassey module global bound to ``original`` at ``replacement``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "ellmassey" or mod_name.startswith("ellmassey."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def install(tracer: Tracer):
    """Wrap the functions in SPANS and COUNTERS for the rest of the process."""
    from ellmassey import cli, ec, ff, galois, massey, oracle, unitri  # noqa: F401

    modules = sys.modules
    for mod_name, attr in CACHES:
        tracer.caches[f"{mod_name}.{attr}"] = getattr(modules[f"ellmassey.{mod_name}"], attr)
    for table, make in ((SPANS, tracer.span), (COUNTERS, tracer.counter)):
        for mod_name, qualname in table:
            owner = modules[f"ellmassey.{mod_name}"]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = make(f"{mod_name}.{qualname}", original)
            if path:
                setattr(owner, attr, wrapped)
            else:
                _rebind(original, wrapped)


# ---------------------------------------------------------------------------
# aggregation

def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    kids = defaultdict(list)
    for rec in spans:
        if rec[1] >= 0:
            kids[rec[1]].append((rec[2], rec[3]))
    out = []
    for idx, (_, _, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(kids.get(idx, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


class _Totals:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_ = defaultdict(float)

    def add(self, dump: dict):
        names, spans = dump["names"], dump["spans"]
        for rec, own in zip(spans, self_times(spans)):
            name = names[rec[0]]
            self.calls[name] += 1
            self.total[name] += rec[3] - rec[2]
            self.self_[name] += own
        for name, n in dump["counts"].items():
            self.calls[name] += n

    def merge(self, other: "_Totals"):
        for mine, theirs in ((self.calls, other.calls), (self.total, other.total), (self.self_, other.self_)):
            for name, value in theirs.items():
                mine[name] += value


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _powmods_and_roots(dump: dict) -> tuple[int, int]:
    """poly_powmod spans under a roots_in_field span, and the roots it returned."""
    names, spans = dump["names"], dump["spans"]
    powmod = {i for i, n in enumerate(names) if n == "ff.poly_powmod"}
    roots = {i for i, n in enumerate(names) if n == "ff.roots_in_field"}
    n_powmods = n_roots = 0
    for rec in spans:
        if rec[0] in roots:
            n_roots += rec[4]
        elif rec[0] in powmod:
            parent = rec[1]
            while parent >= 0 and spans[parent][0] not in roots:
                parent = spans[parent][1]
            n_powmods += parent >= 0
    return n_powmods, n_roots


def layer_metrics(traced: list[dict], fixtures) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one run.

    ``traced`` holds one entry per traced command: its ``dump``, ``label``,
    ``kind``, ``items`` (triples checked for verify), ``stdout_bytes``, and
    the wall times ``plain_s`` and ``traced_s`` of its untraced and traced
    runs. ``fixtures`` names every verify fixture, reported even when absent.
    """
    t = _Totals()
    hits = defaultdict(int)
    lookups = defaultdict(int)
    powmods = roots = 0
    verify_triples = verify_u4_mul = 0
    oracle_s = defaultdict(float)
    fixture_triples = defaultdict(int)
    for cmd in traced:
        dump = cmd["dump"]
        one = _Totals()
        one.add(dump)
        t.merge(one)
        for name, (h, m) in dump["caches"].items():
            hits[name] += h
            lookups[name] += h + m
        pm, r = _powmods_and_roots(dump)
        powmods, roots = powmods + pm, roots + r
        if cmd["kind"] == "verify":
            fixture_triples[cmd["label"]] += cmd["items"]
            oracle_s[cmd["label"]] += one.total["oracle.oracle_nonempty"] + one.total["oracle.oracle_contains_zero"]
            verify_triples += cmd["items"]
            verify_u4_mul += one.calls["unitri.u4_mul_raw"]
    plain = sum(c["plain_s"] for c in traced)
    traced_s = sum(c["traced_s"] for c in traced)
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    put("ff.ExtField.rmul.calls", t.calls["ff.ExtField.rmul"], "count")
    put("ff.poly_mul.calls", t.calls["ff.poly_mul"], "count")
    put("ff.poly_powmod.calls", t.calls["ff.poly_powmod"], "count")
    put("ff.poly_powmod.self_s", t.self_["ff.poly_powmod"], "s")
    put("ff.roots_in_field.total_s", t.total["ff.roots_in_field"], "s")
    put("ff.roots_in_field.powmods_per_root", _ratio(powmods, roots), "ratio")
    put("ff.factor_monic_squarefree.total_s", t.total["ff.factor_monic_squarefree"], "s")
    put("ff.sqrt_in_field.total_s", t.total["ff.sqrt_in_field"], "s")
    put("ff.make_field.total_s", t.total["ff.make_field"], "s")
    put("ff.embed_field.total_s", t.total["ff.embed_field"], "s")
    put("ff.make_field.cache_hit_frac", _ratio(hits["ff.make_field"], lookups["ff.make_field"]), "frac")
    put("ec.torsion_basis.calls", t.calls["ec.torsion_basis"], "count")
    put("ec.torsion_basis.self_s", t.self_["ec.torsion_basis"], "s")
    put("ec.frobenius_matrix.self_s", t.self_["ec.frobenius_matrix"], "s")
    put("ec.rational_torsion_rank.calls", t.calls["ec.rational_torsion_rank"], "count")
    put("ec.rational_torsion_rank.self_s", t.self_["ec.rational_torsion_rank"], "s")
    put("ec.rank_cache_hit_frac",
        _ratio(hits["ec._rational_rank_cached"], lookups["ec._rational_rank_cached"]), "frac")
    put("ec.count_points.self_s", t.self_["ec.count_points"], "s")
    put("ec.point_add.calls", t.calls["ec.point_add"], "count")
    put("galois.build_gbar.total_s", t.total["galois.build_gbar"], "s")
    put("galois.build_gbar.self_s", t.self_["galois.build_gbar"], "s")
    put("galois.enumerate_characters.total_s", t.total["galois.enumerate_characters"], "s")
    put("galois.classify_case.calls", t.calls["galois.classify_case"], "count")
    put("massey.triple_verdict.calls", t.calls["massey.triple_verdict"], "count")
    put("massey.triple_verdict.total_s", t.total["massey.triple_verdict"], "s")
    put("massey.verdict_us",
        1e6 * _ratio(t.total["massey.triple_verdict"], t.calls["massey.triple_verdict"]), "us")
    for name in ("oracle_nonempty", "oracle_contains_zero"):
        put(f"oracle.{name}.calls", t.calls[f"oracle.{name}"], "count")
        put(f"oracle.{name}.total_s", t.total[f"oracle.{name}"], "s")
    for name in fixtures:
        put(f"oracle.triple_ms.{name}", 1e3 * _ratio(oracle_s[name], fixture_triples[name]), "ms")
    put("oracle.u4_mul_per_triple", _ratio(verify_u4_mul, verify_triples), "count")
    for name in ("u4_mul_raw", "u4_pow_raw", "u4_inv_raw", "u3_mul_raw"):
        put(f"unitri.{name}.calls", t.calls[f"unitri.{name}"], "count")
    put("cli.main.total_s", t.total["cli.main"], "s")
    put("cli.self_s", t.self_["cli.main"], "s")
    put("cli.stdout_mb", sum(c["stdout_bytes"] for c in traced) / 1e6, "MB")
    put("trace.overhead_frac", _ratio(traced_s - plain, plain), "frac")
    return out
