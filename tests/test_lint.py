"""Source-level checks on the library."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "polyflag"


def test_no_assert_statements_in_library():
    # python -O strips assert, so runtime invariants must raise instead
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) > 5
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.relative_to(SRC)}:{node.lineno}"
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Assert))
    assert found == []
