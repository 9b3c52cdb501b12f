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

A triple list (``sample N``, or ``analyze --triples all``) is capped at
TRIPLE_CAP = 5**9 triples, the l = 5 full-torsion table; a larger one is an
input error. ``analyze`` decides every verdict first, held as
``(kinds, codes)``: the distinct verdicts and one code byte per triple
(``massey.verdict_table`` for ``--triples all``). It then writes its rows as
it goes, about ROWS_PER_WRITE at a time, so meta.elapsed_ms covers the
verdicts but not the writing. ``verify`` checks those same coded verdicts
against the oracle. A galois-check file nested too deeply to decode is
invalid data.

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

from . import DEFAULT_SEED
from .errors import CaseMismatch, InputError, InternalError, InvalidData, SearchExhausted

# Each command imports the mathematics it runs, so --help and argument errors load none of it.

CASE_FLAGS = ("full3", "split", "unipotent")

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_NO_MATCH = 3
EXIT_INTERNAL = 4

NO_FIXED_POINTS_REPORT_DEGREE_CAP = 24
EXHAUSTIVE_TRIPLE_CAP = 27**3  # the l = 3 full-torsion grid
TRIPLE_CAP = 5**9  # the l = 5 full-torsion table, 125^3 triples
ROWS_PER_WRITE = 1024  # measured: larger blocks raise peak RSS, smaller ones save no time


def _emit(obj):
    print(json.dumps(obj, sort_keys=True))


def _error(message):
    _emit({"error": {"message": message}})


def _field_to_json(x):
    return list(x.coeffs)


def _matrix_to_json(A):
    return None if A is None else [list(row) for row in A]


# ---------------------------------------------------------------------------
# search

def cmd_search(args) -> int:
    """Rank, #E(F_p) and E[l] once per GF(p)-isomorphism class (ec.class_key); rows by conjugation."""
    from . import ec, ff, galois

    ell = args.ell
    ec.check_level(ell)
    if args.case == "full3" and ell != 3:
        raise InputError("--case full3 requires --ell 3")
    if args.max_p > ec.POINT_COUNT_CAP:
        raise InputError(f"--max-p capped at {ec.POINT_COUNT_CAP}")
    if args.limit < 1:
        raise InputError(f"--limit must be at least 1, got {args.limit}")
    wanted = {
        "full3": galois.GaloisCase.FULL_TORSION,
        "split": galois.GaloisCase.SPLIT_LINE,
        "unipotent": galois.GaloisCase.UNIPOTENT_LINE,
    }[args.case]
    rows = []
    for p in range(5, args.max_p + 1):
        if p == ell or not ff.is_prime(p):  # check_level refuses l = p, so the scan skips it
            continue
        if args.case in ("full3", "unipotent") and p % ell != 1:
            continue
        if args.case == "split" and p % ell == 1:
            continue
        base = ff.make_field(p, 1)
        # class key -> (rank, E[l] basis, its matrix, #E, orbit) of the class's first
        # pair (a0, b0), and so of its first row, where the orbit maps each
        # (u^4 a0, u^6 b0) to a u; None if its case is not wanted
        classes = {}
        for a, b in itertools.product(range(p), repeat=2):
            if (4 * a**3 + 27 * b * b) % p == 0:
                continue
            key = ec.class_key(a, b, p)
            if key not in classes:
                rep = ec.curve_new(base, a, b)
                rank = ec.rational_torsion_rank(rep, ell)
                classes[key] = None
                if galois.case_from_rank(rank, p, ell) is wanted:
                    basis = ec.torsion_basis(rep, ell)
                    A0, count = ec.frobenius_matrix(basis), ec.count_points(rep)
                    # Frobenius satisfies X^2 - tX + p with t = p + 1 - #E; the det is checked already
                    trace = (A0[0][0] + A0[1][1]) % ell
                    if (trace - (p + 1 - count)) % ell:
                        raise InternalError(
                            f"class {key} over GF({p}): Frobenius trace {trace} differs from "
                            f"p + 1 - #E = {p + 1 - count} mod {ell}"
                        )
                    orbit = {(u**4 * a % p, u**6 * b % p): u for u in range(1, p)}
                    classes[key] = (rank, basis, A0, count, orbit)
            if classes[key] is None:
                continue
            rank, basis, A0, count, orbit = classes[key]
            u = orbit.get((a, b))
            if u is None:
                raise InternalError(f"({a}, {b}) lies off the orbit of its class {key} over GF({p})")
            A = galois.transported_matrix(basis, A0, u)
            case = galois.classify_case(A, ell)
            if case is not wanted:
                raise CaseMismatch(
                    f"p={p} a={a} b={b}: rank {rank} at ell={ell} but Frobenius case {case.value}"
                )
            rows.append(
                {
                    "p": p,
                    "a": a,
                    "b": b,
                    "frobenius_matrix": _matrix_to_json(A),
                    "points": count,
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
    if args.format == "json":
        _emit(payload)
        return EXIT_OK
    lines = ["p,a,b,frobenius_matrix,points"]
    for r in rows:
        matrix = "|".join(str(v) for row in r["frobenius_matrix"] for v in row)
        lines.append(f"{r['p']},{r['a']},{r['b']},{matrix},{r['points']}")
    print("\n".join(lines))
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


def _build_curve(args):
    from . import ec, ff

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
    if count > TRIPLE_CAP:
        raise InputError(f"{flag} sample {count} exceeds the cap of {TRIPLE_CAP} triples")
    return mode, count


def _check_table_cap(chars, cap, what, flag):
    """InputError when the full table over ``chars`` has more than ``cap`` triples."""
    if len(chars) ** 3 > cap:
        raise InputError(
            f"{what} is capped at {cap} triples; "
            f"this curve has {len(chars)} characters, {len(chars) ** 3} triples "
            f"(use {flag} sample N)"
        )


def _select_triples(n, mode, count, seed):
    """The triples of a parsed mode over n characters, as one flat array of
    character indices (three per triple), and the label for meta.mode.
    ``sample N`` draws its 3N indices one ``rng.choice`` at a time."""
    from array import array

    typecode = "B" if n <= 256 else "H"
    if mode == "same-char":
        return array(typecode, (i for i in range(n) for _ in range(3))), mode
    if mode == "sample":
        rng = random.Random(seed)
        return array(typecode, map(rng.choice, itertools.repeat(range(n), 3 * count))), f"sample {count}"
    return array(typecode, itertools.chain.from_iterable(itertools.product(range(n), repeat=3))), mode


def _report_matrices(curve, group):
    """Frobenius matrices at both levels in the group's normalized basis.

    The degenerate case has no torsion part; its level-l matrix is computed
    directly when the torsion field is small enough, else reported as null.
    Two caps bound the field the report would build: its degree over GF(p),
    not over the curve's base field (at most twice that of the
    x-coordinates), and ``ff.field_size_refusal``, whose order cap is the
    one left below that degree. The degree is at least 2 k0, so when k0
    alone breaks a cap the report is null without factoring psi_l.
    """
    from . import ec, ff, galois

    if group.case is not galois.GaloisCase.NO_FIXED_POINTS:
        return tuple(tuple(v % group.ell for v in row) for row in group.action), group.action

    def past_caps(degree):
        return degree > NO_FIXED_POINTS_REPORT_DEGREE_CAP or ff.field_size_refusal(curve.base.p, degree)

    if past_caps(2 * curve.base.k):
        return None, None
    _, stages = ec._torsion_field_degree(curve, group.ell)
    if past_caps(curve.base.k * 2 * math.lcm(*(d for d, _ in stages))):
        return None, None
    A = ec.frobenius_matrix(ec.torsion_basis(curve, group.ell))
    return A, A if group.ell == group.ell_prime else None


def _constants_json(group):
    keys = ("alpha", "beta", "gamma", "delta", "c")
    if group.constants is None:
        return {k: None for k in keys}
    return {k: group.constants.get(k) for k in keys}


def cmd_analyze(args) -> int:
    from . import galois, massey

    t0 = time.monotonic()
    mode, count = _parse_mode(
        args.triples, "--triples", ("all", "same-char", "sample"),
        "--triples must be all, same-char, or sample [N]",
    )
    curve = _build_curve(args)
    group = galois.build_gbar(curve, args.ell)
    chars = group.characters()
    # every verdict is decided, one byte per triple, before any row is written;
    # triples are character indices, so that each character's text is built once
    if mode == "all":
        _check_table_cap(chars, TRIPLE_CAP, "--triples all", "--triples")
        triples = None
        kinds, codes = massey.verdict_table(chars, group)
    else:
        triples, mode = _select_triples(len(chars), mode, count, args.seed)
        kinds, codes = massey.coded_verdicts(chars, triples, group)
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
        "meta": {
            "seed": args.seed,
            "mode": mode,
            "elapsed_ms": int((time.monotonic() - t0) * 1000),
        },
    }
    _write_table(payload, chars, triples, kinds, codes, args.format)
    return EXIT_OK


def _write_table(payload, chars, triples, kinds, codes, fmt):
    """Write the report with one row per triple and its verdict code, about
    ROWS_PER_WRITE rows at a time, byte for byte as one
    ``json.dumps(..., sort_keys=True)`` of the payload with the rows in place
    would write it. ``triples`` is the flat index array of the rows, or None
    for the whole table in product order, written in whole (chi1, chi2) blocks.

    A JSON row is {"chi1", "chi2", "chi3", "reason", "status", "witness"} and
    a CSV row chi1,chi2,chi3,status,reason; either is the texts of its three
    characters in their places followed by the text of its verdict, and each
    of those is encoded once.
    """
    if fmt == "csv":
        cells = ["|".join(map(str, chi.values)) + "," for chi in chars]
        first = second = third = cells
        head, lead, sep, tail = "chi1,chi2,chi3,status,reason", "\n", "\n", "\n"

        def encode(v):
            return f"{v.status.value},{v.reason}"
    else:
        lists = [json.dumps(list(chi.values)) for chi in chars]
        first = ['{"chi1": ' + x + ', "chi2": ' for x in lists]
        second = [x + ', "chi3": ' for x in lists]
        third = [x + ", " for x in lists]
        # "verdicts" sorts after every other key, so the rows close the object
        head = json.dumps(payload, sort_keys=True)[:-1] + ', "verdicts": ['
        lead, sep, tail = "", ", ", "]}\n"

        def encode(v):
            return json.dumps(v.to_json(), sort_keys=True)[1:]

    texts = [encode(v) for v in kinds]
    # ends[k][c]: the text of chi3 = chars[k] followed by that of verdict c
    ends = [[x + t for t in texts] for x in third]
    n = len(chars)
    if triples is None:
        pairs = max(1, ROWS_PER_WRITE // n)

        def chunks():
            for start in range(0, n * n, pairs):
                chunk = []
                for p in range(start, min(start + pairs, n * n)):
                    prefix = first[p // n] + second[p % n]
                    chunk += [prefix + end[c] for end, c in zip(ends, codes[p * n:p * n + n])]
                yield chunk
    else:
        def chunks():
            it = iter(triples)
            for start in range(0, len(codes), ROWS_PER_WRITE):
                block = codes[start:start + ROWS_PER_WRITE]
                # the codes come first, so zip stops before taking a triple past the block
                yield [first[i] + second[j] + ends[k][c] for c, (i, j, k) in zip(block, zip(it, it, it))]
    out = sys.stdout  # read at call time, so redirect_stdout captures the rows
    out.write(head)
    for chunk in chunks():
        out.write(lead + sep.join(chunk))
        lead = sep
    out.write(tail)


def cmd_verify(args) -> int:
    from . import galois, massey, oracle

    t0 = time.monotonic()
    mode, count = _parse_mode(
        args.mode, "--mode", ("exhaustive", "sample"), "--mode must be exhaustive or sample [N]"
    )
    curve = _build_curve(args)
    group = galois.build_gbar(curve, args.ell)
    chars = group.characters()
    if mode == "exhaustive":
        _check_table_cap(chars, EXHAUSTIVE_TRIPLE_CAP, "exhaustive verification", "--mode")
    indices, label = _select_triples(len(chars), mode, count, args.seed)
    # the coders analyze prints through; the table's product order is the indices' order
    if mode == "exhaustive":
        kinds, codes = massey.verdict_table(chars, group)
    else:
        kinds, codes = massey.coded_verdicts(chars, indices, group)
    it = map(chars.__getitem__, indices)
    mismatches = []
    for v, c1, c2, c3 in zip(map(kinds.__getitem__, codes), it, it, it):
        if not oracle.oracle_nonempty(c1, c2, c3, group):
            expected = massey.VerdictStatus.EMPTY
        elif oracle.oracle_contains_zero(c1, c2, c3, group):
            expected = massey.VerdictStatus.CONTAINS_ZERO
        else:
            expected = massey.VerdictStatus.NON_VANISHING
        if v.status is not expected:
            mismatches.append(
                {
                    "chi1": list(c1.values),
                    "chi2": list(c2.values),
                    "chi3": list(c3.values),
                    "engine": v.status.value,
                    "oracle": expected.value,
                }
            )
    payload = {
        "command": "verify",
        "case": group.case.value,
        "ell": group.ell,
        "checked": len(indices) // 3,
        "mismatches": mismatches,
        "meta": {
            "seed": args.seed,
            "mode": label,
            "elapsed_ms": int((time.monotonic() - t0) * 1000),
        },
    }
    _emit(payload)
    return EXIT_OK if not mismatches else EXIT_MISMATCH


def cmd_galois_check(args) -> int:
    from . import galois, massey

    with open(args.input, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError as exc:
            raise InvalidData(f"{args.input}: JSON nested too deeply") from exc
    abstract = galois.load_abstract(data)
    if args.theorem == "52":
        verdict = massey.thm52_check(abstract)
        payload = {"theorem": "52", **verdict.to_json()}
    else:
        payload = {"theorem": "11", **massey.thm11_check(abstract)}
    _emit(payload)
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


if __name__ == "__main__":
    sys.exit(main())
