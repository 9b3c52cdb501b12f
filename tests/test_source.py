"""Properties of the package source itself."""

import ast
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
