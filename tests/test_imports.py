"""The runtime depends on the standard library only."""

import ast
import sys
from pathlib import Path

import fdl

SOURCES = sorted(Path(fdl.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
# the test oracles and the demos, linted for unused imports too
SCRIPTS = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py"))


def imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_import_is_stdlib_or_fdl():
    assert SOURCES
    outside = {
        (path.name, name)
        for path in SOURCES
        for name in imported_modules(path)
        if name.split(".")[0] not in sys.stdlib_module_names | {"fdl"}
    }
    assert outside == set()


def unused_imports(path):
    """Names a module imports but never reads; ``from __future__`` imports
    and lines marked ``# noqa: F401`` are skipped."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {(name, line) for name, line in imported.items() if name not in used}


def test_no_unused_imports():
    assert SCRIPTS
    unused = {
        (str(path.relative_to(path.parents[1])), name, line)
        for path in SOURCES + SCRIPTS
        if path.name != "__init__.py"
        for name, line in unused_imports(path)
    }
    assert unused == set()
