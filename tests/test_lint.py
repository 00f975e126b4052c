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


def test_no_unused_imports_in_library():
    # each imported name must be used as a Name, unless the import line
    # says "# noqa: F401"; package __init__ files re-export by design
    paths = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert len(paths) > 5
    unused = []
    for path in paths:
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            span = lines[node.lineno - 1:node.end_lineno]
            if any("# noqa: F401" in line for line in span):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(f"{path.relative_to(SRC)}:{node.lineno} "
                                  f"{name}")
    assert unused == []
