"""Command-line surface: curve search, analysis reports, verification sweeps,
and the abstract Galois checkers.

Subcommands and exit codes:

  search        scan primes and coefficients for curves whose mod-l Frobenius
                has a requested shape; exit 3 when nothing matches in bounds
  analyze       full closed-form report for one curve (JSON or CSV table)
  verify        closed-form verdicts against the lifting oracle; exit 1 on
                any mismatch
  galois-check  run an abstract-data checker on a JSON input file

  0 success / no mismatch, 1 verification mismatch, 2 input error (or
  stdout closed by its reader), 3 search exhausted, 4 internal error (a
  consistency check of the program failed).

All output is deterministic for fixed flags except the meta.elapsed_ms
timing field. --seed selects the triples of ``sample N`` and is echoed in
meta.seed; no other result depends on it (search only echoes it).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import sys
import time

from . import ec, ff, galois, massey
from .errors import CaseMismatch, EllmasseyError, InputError, InternalError, SearchExhausted
from .ff import DEFAULT_SEED

CASE_FLAGS = ("full3", "split", "unipotent")

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_NO_MATCH = 3
EXIT_INTERNAL = 4

NO_FIXED_POINTS_REPORT_DEGREE_CAP = 24
EXHAUSTIVE_TRIPLE_CAP = 27**3  # the l = 3 full-torsion grid


def _emit(payload, fmt="json", csv_rows=None, csv_header=None):
    if fmt == "csv" and csv_rows is not None:
        lines = [",".join(csv_header)]
        lines.extend(",".join(map(str, row)) for row in csv_rows)
        print("\n".join(lines))
    else:
        print(json.dumps(payload, sort_keys=True))


def _error(message, detail=None):
    obj = {"error": {"message": message}}
    if detail:
        obj["error"]["detail"] = detail
    print(json.dumps(obj, sort_keys=True))


def _field_to_json(x: ff.FieldElement):
    return list(x.coeffs)


def _matrix_to_json(action):
    if action is None:
        return None
    return [list(row) for row in action.entries]


# ---------------------------------------------------------------------------
# search

def _iter_primes(lo, hi):
    for n in range(lo, hi + 1):
        if ff.is_prime(n):
            yield n


def cmd_search(args) -> int:
    ell = args.ell
    if ell not in (3, 5, 7):
        raise InputError("--ell must be 3, 5 or 7")
    if args.case == "full3" and ell != 3:
        raise InputError("--case full3 requires --ell 3")
    if args.max_p > ec.POINT_COUNT_CAP:
        raise InputError(f"--max-p capped at {ec.POINT_COUNT_CAP}")
    if args.limit < 1:
        raise InputError(f"--limit must be at least 1, got {args.limit}")
    rows = []
    for p in _iter_primes(5, args.max_p):
        if p == ell or (6 * ell) % p == 0:
            continue
        if args.case in ("full3", "unipotent") and p % ell != 1:
            continue
        if args.case == "split" and p % ell == 1:
            continue
        base = ff.make_field(p, 1)
        for a, b in itertools.product(range(p), repeat=2):
            try:
                curve = ec.curve_new(base, a, b)
            except EllmasseyError:
                continue
            rank = ec.rational_torsion_rank(curve, ell)
            want = 2 if args.case == "full3" else 1
            if rank != want:
                continue
            basis = ec.torsion_basis(curve, ell)
            action = ec.frobenius_matrix(basis)
            case = galois.classify_case(action)
            expected = {
                "full3": galois.GaloisCase.FULL_TORSION,
                "split": galois.GaloisCase.SPLIT_LINE,
                "unipotent": galois.GaloisCase.UNIPOTENT_LINE,
            }[args.case]
            if case is not expected:
                raise CaseMismatch(
                    f"p={p} a={a} b={b}: rank {rank} at ell={ell} but Frobenius case {case.value}"
                )
            rows.append(
                {
                    "p": p,
                    "a": a,
                    "b": b,
                    "frobenius_matrix": _matrix_to_json(action),
                    "points": ec.count_points(curve),
                }
            )
            if len(rows) >= args.limit:
                break
        if len(rows) >= args.limit:
            break
    if not rows:
        raise SearchExhausted(f"no {args.case} curve found for ell={ell} with p <= {args.max_p}")
    payload = {
        "command": "search",
        "ell": ell,
        "case": args.case,
        "max_p": args.max_p,
        "rows": rows,
        "meta": {"seed": args.seed},
    }
    csv_rows = [
        (r["p"], r["a"], r["b"], "|".join(str(v) for row in r["frobenius_matrix"] for v in row), r["points"])
        for r in rows
    ]
    _emit(payload, args.format, csv_rows, ("p", "a", "b", "frobenius_matrix", "points"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze / verify

def _parse_coeffs(text: str):
    try:
        if "," in text:
            return tuple(int(v) for v in text.split(","))
        return int(text)
    except ValueError as exc:
        raise InputError(f"coefficient {text!r} is not an integer or comma list") from exc


def _build_curve(args) -> ec.Curve:
    base = ff.make_field(args.p, args.k0)
    return ec.curve_new(base, base.element(_parse_coeffs(args.a)), base.element(_parse_coeffs(args.b)))


def _no_extra_tokens(spec_parts, allowed, flag):
    """InputError naming the first token past the ``allowed`` ones."""
    if len(spec_parts) > allowed:
        raise InputError(f"{flag} {spec_parts[0]}: unexpected extra token {spec_parts[allowed]!r}")


def _parse_mode(spec_parts, flag, words, usage):
    """(mode, sample count or None) of a ``--triples``/``--mode`` value.

    Checked before the curve's group is built, so a malformed value costs
    nothing. ``sample [N]`` defaults to N = 200.
    """
    mode = spec_parts[0]
    if mode not in words:
        raise InputError(usage)
    if mode != "sample":
        _no_extra_tokens(spec_parts, 1, flag)
        return mode, None
    _no_extra_tokens(spec_parts, 2, flag)
    text = spec_parts[1] if len(spec_parts) > 1 else "200"
    bad = InputError(f"{flag} sample count must be a non-negative integer, got {text!r}")
    try:
        count = int(text)
    except ValueError as exc:
        raise bad from exc
    if count < 0:
        raise bad
    return mode, count


def _select_triples(chars, mode, count, seed):
    """The triples of a parsed mode over the sequence ``chars`` (characters
    or their indices: both draw the same samples), and the label for meta.mode."""
    if mode == "same-char":
        return [(chi, chi, chi) for chi in chars], mode
    if mode == "sample":
        rng = random.Random(seed)
        return [tuple(rng.choice(chars) for _ in range(3)) for _ in range(count)], f"sample {count}"
    return list(itertools.product(chars, repeat=3)), mode  # all / exhaustive


def _report_matrices(curve, group):
    """Frobenius matrices at both levels in the group's normalized basis.

    The degenerate case has no torsion part; its level-l matrix is computed
    directly when the torsion field is small enough, else reported as null.
    The cap is on the degree over GF(p), not over the curve's base field, of
    the field the report would build: at most twice that of the x-coordinates.
    """
    if group.case is not galois.GaloisCase.NO_FIXED_POINTS:
        normalized = group.context["normalized_action"]
        return normalized.reduce(group.ell), normalized
    _, factors = ec._torsion_field_degree(curve, group.ell)
    if curve.base.k * 2 * math.lcm(*(d for d, _ in factors)) > NO_FIXED_POINTS_REPORT_DEGREE_CAP:
        return None, None
    basis = ec.torsion_basis(curve, group.ell)
    action = ec.frobenius_matrix(basis)
    return action, action if group.ell == group.ell_prime else None


def _constants_json(group):
    keys = ("alpha", "beta", "gamma", "delta", "c")
    if group.constants is None:
        return {k: None for k in keys}
    return {k: group.constants.get(k) for k in keys}


def cmd_analyze(args) -> int:
    t0 = time.monotonic()
    mode, count = _parse_mode(
        args.triples, "--triples", ("all", "same-char", "sample"),
        "--triples must be all, same-char, or sample [N]",
    )
    curve = _build_curve(args)
    group = galois.build_gbar(curve, args.ell)
    chars = group.characters()
    # triples of character indices: each character's output is built once,
    # and only the rows of the requested format
    triples, mode = _select_triples(range(len(chars)), mode, count, args.seed)
    verdicts = (massey.triple_verdict(chars[i], chars[j], chars[k], group) for i, j, k in triples)
    json_rows = csv_rows = None
    if args.format == "csv":
        cells = ["|".join(map(str, chi.values)) for chi in chars]
        csv_rows = [
            (cells[i], cells[j], cells[k], v.status.value, v.reason)
            for (i, j, k), v in zip(triples, verdicts)
        ]
    else:
        lists = [list(chi.values) for chi in chars]
        json_rows = [
            {
                "chi1": lists[i],
                "chi2": lists[j],
                "chi3": lists[k],
                "status": v.status.value,
                "reason": v.reason,
                "witness": v.witness,
            }
            for (i, j, k), v in zip(triples, verdicts)
        ]
    mat_l, mat_lp = _report_matrices(curve, group)
    payload = {
        "curve": {
            "p": curve.base.p,
            "k0": curve.base.k,
            "a": _field_to_json(curve.a),
            "b": _field_to_json(curve.b),
            "j": _field_to_json(curve.j),
        },
        "ell": group.ell,
        "ell_prime": group.ell_prime,
        "case": group.case.value,
        "frobenius_matrix_l": _matrix_to_json(mat_l),
        "frobenius_matrix_lprime": _matrix_to_json(mat_lp),
        "constants": _constants_json(group),
        "characters": len(chars),
        "verdicts": json_rows,
        "meta": {
            "seed": args.seed,
            "mode": mode,
            "elapsed_ms": int((time.monotonic() - t0) * 1000),
        },
    }
    _emit(payload, args.format, csv_rows, ("chi1", "chi2", "chi3", "status", "reason"))
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import oracle  # imported here: no other command runs it

    t0 = time.monotonic()
    mode, count = _parse_mode(
        args.mode, "--mode", ("exhaustive", "sample"), "--mode must be exhaustive or sample [N]"
    )
    curve = _build_curve(args)
    group = galois.build_gbar(curve, args.ell)
    chars = group.characters()
    if mode == "exhaustive" and len(chars) ** 3 > EXHAUSTIVE_TRIPLE_CAP:
        raise InputError(
            f"exhaustive verification is capped at {EXHAUSTIVE_TRIPLE_CAP} triples; "
            f"this curve has {len(chars)} characters, {len(chars) ** 3} triples "
            "(use --mode sample N)"
        )
    triples, mode = _select_triples(chars, mode, count, args.seed)
    mismatches = []
    for c1, c2, c3 in triples:
        v = massey.triple_verdict(c1, c2, c3, group)
        nonempty = oracle.oracle_nonempty(c1, c2, c3, group)
        contains_zero = oracle.oracle_contains_zero(c1, c2, c3, group) if nonempty else False
        expected = (
            "Empty" if not nonempty else ("ContainsZero" if contains_zero else "NonVanishing")
        )
        if v.status.value != expected:
            mismatches.append(
                {
                    "chi1": list(c1.values),
                    "chi2": list(c2.values),
                    "chi3": list(c3.values),
                    "engine": v.status.value,
                    "oracle": expected,
                }
            )
    payload = {
        "command": "verify",
        "case": group.case.value,
        "ell": group.ell,
        "checked": len(triples),
        "mismatches": mismatches,
        "meta": {
            "seed": args.seed,
            "mode": mode,
            "elapsed_ms": int((time.monotonic() - t0) * 1000),
        },
    }
    _emit(payload, "json")
    return EXIT_OK if not mismatches else EXIT_MISMATCH


def cmd_galois_check(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    abstract = galois.load_abstract(data)
    if args.theorem == "52":
        verdict = massey.thm52_check(abstract)
        payload = {"theorem": "52", **verdict.to_json()}
    else:
        payload = {"theorem": "11", **massey.thm11_check(abstract)}
    _emit(payload, "json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellmassey",
        description="Triple Massey product verdicts for elliptic curves over finite fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser("search", help="scan for curves with a requested Frobenius shape")
    p_search.add_argument("--ell", type=int, required=True)
    p_search.add_argument("--case", required=True, choices=CASE_FLAGS)
    p_search.add_argument("--max-p", dest="max_p", type=int, required=True)
    p_search.add_argument("--limit", type=int, default=5)
    p_search.add_argument("--format", choices=("json", "csv"), default="json")
    p_search.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    p_search.set_defaults(func=cmd_search)

    for name, func in (("analyze", cmd_analyze), ("verify", cmd_verify)):
        sp = sub.add_parser(name)
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--a", required=True)
        sp.add_argument("--b", required=True)
        sp.add_argument("--ell", type=int, required=True)
        sp.add_argument("--k0", type=int, default=1)
        sp.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
        if name == "analyze":
            sp.add_argument("--triples", nargs="+", default=["all"])
            sp.add_argument("--format", choices=("json", "csv"), default="json")
        else:
            sp.add_argument("--mode", nargs="+", default=["exhaustive"])
        sp.set_defaults(func=func)

    p_gal = sub.add_parser("galois-check", help="run an abstract Galois-data checker")
    p_gal.add_argument("--input", required=True)
    p_gal.add_argument("--theorem", required=True, choices=("52", "11"))
    p_gal.set_defaults(func=cmd_galois_check)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: write nothing more there, and keep the
        # interpreter's final flush from failing on the same pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_INPUT
    except SearchExhausted as exc:
        _error(str(exc))
        return EXIT_NO_MATCH
    except InputError as exc:
        _error(str(exc))
        return EXIT_INPUT
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        _error(str(exc))
        return EXIT_INPUT
    except InternalError as exc:
        _error(f"{type(exc).__name__}: {exc}")
        return EXIT_INTERNAL
    except EllmasseyError as exc:
        _error(f"{type(exc).__name__}: {exc}")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
