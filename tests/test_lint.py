"""Source-level checks on the library."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "polyflag"


def test_no_assert_statements_in_library():
    # python -O strips assert, so runtime invariants must raise instead;
    # the tools that write the corpus check their output the same way
    paths = sorted([*SRC.rglob("*.py"), *(ROOT / "tools").glob("*.py")])
    assert len(paths) > 7
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.relative_to(ROOT)}:{node.lineno}"
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


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_no_private_names_imported_across_modules():
    # a leading underscore keeps a name inside its module: no library
    # module imports one from another or reads one off an imported module
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) > 5
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module is None):
                modules.update((a.asname or a.name).split(".")[0]
                               for a in node.names)
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found.extend(f"{path.relative_to(SRC)}:{node.lineno} "
                             f"{a.name}" for a in node.names
                             if any(map(_private, a.name.split("."))))
        found.extend(f"{path.relative_to(SRC)}:{node.lineno} "
                     f"{node.value.id}.{node.attr}"
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.value, ast.Name)
                     and node.value.id in modules and _private(node.attr))
    assert found == []


def _assigned(stmt):
    """The targets an assignment statement binds, or [] for any other
    node."""
    if isinstance(stmt, ast.Assign):
        return stmt.targets
    if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        return [stmt.target]
    return []


def _table_assignments(node, scope=()):
    """Line numbers of assignments under node to an attribute named
    ``table`` (``x.table = ...``, ``setattr(x, "table", ...)`` or a
    class-body ``table = ...``), outside RegularGroup.from_table and
    RegularGroup's own ``table = None``."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
        scope = scope + (node.name,)
    if scope[-2:] == ("RegularGroup", "from_table"):
        return []
    found = [node.lineno for target in _assigned(node)
             for sub in ast.walk(target)
             if isinstance(sub, ast.Attribute) and sub.attr == "table"]
    if (isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "setattr"
            and len(node.args) > 1
            and getattr(node.args[1], "value", None) == "table"):
        found.append(node.lineno)
    if isinstance(node, ast.ClassDef):
        found.extend(
            stmt.lineno for stmt in node.body
            if any(getattr(t, "id", None) == "table" for t in _assigned(stmt))
            and not (node.name == "RegularGroup"
                     and isinstance(stmt.value, ast.Constant)
                     and stmt.value.value is None))
    for child in ast.iter_child_nodes(node):
        found.extend(_table_assignments(child, scope))
    return found


def test_only_from_table_gives_a_group_a_table():
    # a group holds a table only when its generators act by it, so only
    # RegularGroup.from_table sets one; sections and mirrors keep the
    # class attribute None
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) > 5
    found = [f"{path.relative_to(SRC)}:{line}" for path in paths
             for line in _table_assignments(ast.parse(path.read_text()))]
    assert found == []


def test_no_library_module_reads_the_row_view():
    # CosetTable.action is the row view for callers outside the library;
    # the library reads a table by its columns
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) > 5
    found = [f"{path.relative_to(SRC)}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "action"]
    assert found == []


def test_only_the_presentation_module_calls_presentation():
    # make_presentation is the one path from a symbol to its relators, so
    # no other module assembles a Presentation by hand
    paths = sorted(p for p in SRC.rglob("*.py") if p.name != "presentation.py")
    assert len(paths) > 5
    found = [f"{path.relative_to(SRC)}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and "Presentation" in (getattr(node.func, "id", None),
                                    getattr(node.func, "attr", None))]
    assert found == []
