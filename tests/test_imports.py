"""The runtime depends on the standard library only."""

import ast
import sys
from pathlib import Path

import fdl

SOURCES = sorted(Path(fdl.__file__).parent.glob("*.py"))


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
