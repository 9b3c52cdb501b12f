"""Property test: every CLI input honours the exit-code contract.

Valid or not, an `analyze`, `verify` or `search` argv ends in exit 0, 2 or 3,
or in argparse's own exit 2; no exception escapes. Exit 1 (a verification
mismatch) and exit 4 (an internal consistency check) both mean a bug here.

Each argv breaks at most one argument, so most draws reach the group
construction and the verdicts instead of failing on the first bad flag. The
triple modes are sampled with N <= 5: a bare `all` or `exhaustive` is left
out, as one l=5 full-torsion table has 125^3 rows.
"""

import contextlib
import io

import pytest

from ellmassey import cli

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

STRAY = ("x", "9")
SAMPLES = tuple(("sample", n) for n in ("0", "3", "5"))
# argument: (valid values, invalid values)
CURVE_ARGS = {
    "--p": (("5", "7", "11", "13", "29"), ("-7", "0", "1", "2", "3", "4", "1.5")),
    "--a": (("0", "1", "2", "-1", "6", "1,2"), ("x", "1,x")),
    "--b": (("0", "1", "2", "-1", "6", "1,2"), ("x",)),
    "--ell": (("3", "5", "7"), ("-3", "0", "2", "4", "9")),
    "--k0": (("1", "2"), ("0", "-1")),
    "--triples": (
        (("same-char",),) + SAMPLES,
        (("bogus",), ("sample", "-1"), ("sample", "x"))
        + tuple((*head, t) for head in (("all",), ("same-char",), ("sample", "2")) for t in STRAY),
    ),
    "--mode": (
        SAMPLES,
        (("bogus",), ("sample", "-1"), ("sample", "x"))
        + tuple((*head, t) for head in (("exhaustive",), ("sample", "2")) for t in STRAY),
    ),
}
SEARCH_ARGS = {
    "--ell": (("3", "5", "7"), ("-3", "0", "2", "4", "9")),
    "--case": (cli.CASE_FLAGS, ("bogus",)),
    "--max-p": (("5", "13", "29", "60"), ("-7", "0", "x")),
    "--limit": (("1", "5"), ("-1", "0")),
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(("analyze", "verify", "search")))
    args = dict(SEARCH_ARGS if command == "search" else CURVE_ARGS)
    args.pop("--mode" if command == "analyze" else "--triples", None)
    broken = draw(st.one_of(st.none(), st.sampled_from(tuple(args))))
    argv = [command]
    for flag, (valid, invalid) in args.items():
        if flag == "--k0" and argv[argv.index("--ell") + 1] in ("5", "7"):
            valid = ("1",)  # over GF(p^2), E[5] and E[7] reach fields of degree 48
        value = draw(st.sampled_from(invalid if flag == broken else valid))
        argv += [flag, *value] if isinstance(value, tuple) else [flag, value]
    if command == "analyze" and draw(st.booleans()):
        argv += ["--format", "csv"]
    return argv


def _exit_code(argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            return exc.code


def test_cli_exit_codes_follow_the_contract():
    @hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @hypothesis.given(cli_argv())
    def check(argv):
        assert _exit_code(argv) in (0, 2, 3), argv

    check()
