"""Properties of the package source itself."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import ellmassey


def test_no_assert_statements_in_package():
    """Internal checks raise errors: an assert vanishes under python -O."""
    found = []
    for path in sorted(Path(ellmassey.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_cli_import_loads_only_shared_modules():
    """A cold command loads no code that only some commands run: the oracle
    (and unitri through it) is imported by verify alone, and no module pulls
    in dataclasses."""
    unwanted = ["dataclasses", "ellmassey.oracle", "ellmassey.unitri"]
    src = str(Path(ellmassey.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    probe = f"import sys, ellmassey.cli; print([m for m in {unwanted!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_traced_benchmark_names_resolve():
    """Every function the traced benchmark wraps exists, so a rename fails here."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for mod_name, qualname in spans.SPANS + spans.COUNTERS + spans.CACHES:
        owner = importlib.import_module(f"ellmassey.{mod_name}")
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{mod_name}.{qualname}")
    assert missing == []


def test_oracle_is_independent_of_the_closed_forms():
    """The oracle imports nothing from massey, and from unitri only the
    generic U4 product, inverse, power and identity: engine = oracle stays
    a check between two independent derivations."""
    generic_unitri = {"U4_ID", "u4_mul_raw", "u4_inv_raw", "u4_pow_raw"}
    path = Path(ellmassey.__file__).parent / "oracle.py"
    bad = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            bad += [a.name for a in node.names if a.name.split(".")[-1] in ("massey", "unitri")]
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            names = {a.name for a in node.names}
            if module == "massey" or "massey" in names:
                bad.append(f"massey from {node.module or '.'}")
            if module == "unitri":
                bad += sorted(names - generic_unitri)
            elif "unitri" in names:
                bad.append(f"unitri from {node.module}")
    assert bad == []


def test_closed_forms_are_independent_of_the_oracle():
    """massey imports nothing from oracle, the converse of the test above."""
    path = Path(ellmassey.__file__).parent / "massey.py"
    bad = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            bad += [a.name for a in node.names if a.name.split(".")[-1] == "oracle"]
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "oracle" or "oracle" in {a.name for a in node.names}:
                bad.append(f"oracle from {node.module or '.'}")
    assert bad == []


def test_ec_draws_no_random_stream():
    """ec is deterministic without a seed: it imports neither random nor
    ff.DEFAULT_SEED (the Weil pairing needs no auxiliary point)."""
    path = Path(ellmassey.__file__).parent / "ec.py"
    bad = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            bad += [a.name for a in node.names if a.name.split(".")[0] == "random"]
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "random":
                bad.append(f"from {node.module}")
            bad += [a.name for a in node.names if a.name in ("random", "DEFAULT_SEED")]
    assert bad == []
