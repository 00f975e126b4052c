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


_GROUP_CLASSES = {"StringGroup", "RotationGroup", "RegularGroup", "cls"}


def _table_argument(call):
    """The table argument of a group constructor call (a call to a group
    class, to ``cls`` or to ``type(...)``), or None for any other call."""
    func = call.func
    if isinstance(func, ast.Call):  # type(group)(...)
        func = func.func if isinstance(func.func, ast.Name) else None
        makes_group = func is not None and func.id == "type"
    else:
        makes_group = isinstance(func, ast.Name) and func.id in _GROUP_CLASSES
    if not makes_group:
        return None
    if len(call.args) >= 2:
        return call.args[1]
    return next((k.value for k in call.keywords if k.arg == "table"), None)


def _tables_passed(node, scope=()):
    """Line numbers of group constructor calls under node that pass a
    table other than the literal None outside RegularGroup.from_table."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
        scope = scope + (node.name,)
    found = []
    if isinstance(node, ast.Call):
        table = _table_argument(node)
        if (table is not None
                and not (isinstance(table, ast.Constant)
                         and table.value is None)
                and scope[-2:] != ("RegularGroup", "from_table")):
            found.append(node.lineno)
    for child in ast.iter_child_nodes(node):
        found.extend(_tables_passed(child, scope))
    return found


def test_only_from_table_gives_a_group_a_table():
    # a group holds a table only when its generators act by it, so a
    # constructor call may pass one only inside RegularGroup.from_table;
    # sections and mirrors pass the literal None
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) > 5
    found = [f"{path.relative_to(SRC)}:{line}" for path in paths
             for line in _tables_passed(ast.parse(path.read_text()))]
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
