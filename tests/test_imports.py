"""The runtime depends on the standard library only, and a command
imports only the modules it runs."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fdl
import fdl.cli

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


# Every name that fdl/__init__.py exports; each must keep resolving.
EXPORTED = """
BudgetError FdlError FeatureError InputError ModelError ParseError ONE ZERO degree format_degree
godel_iff parse_degree FuzzyRelation And AtLeast AtLeastUnq Compose Concept ConceptName Constant
Delta Exists FeatureSet Forall Implies InvNeg Inverse Less LessUnq Nominal Not Or Role RoleName
RoleUnion SelfLoop Star Test Universal is_basic_role to_text validate parse_concept parse_role
Signature ConceptEvaluator FuzzySet Interpretation degree_universe dump_interpretation
eval_concept load_interpretation reachability
ConditionReport Violation brute_force_greatest check_bisim dump_relation load_relation
BisimilarityResult bisimilar greatest_bisim Partition prune_unreachable quotient
strong_partition ConceptAssertion DistinctIndividual Gci HmResult KnowledgeBase RoleAssertion
SameIndividual ValidationResult hm_matrix load_kb validates
""".split()


def test_every_export_still_resolves():
    assert len(EXPORTED) == 77
    namespace = {}
    exec("from fdl import *", namespace)
    for name in EXPORTED:
        assert getattr(fdl, name) is namespace[name], name
        assert name in fdl.__all__ and name in dir(fdl), name
    for module in ("errors", "godel", "relations", "syntax", "parsing", "enumeration", "interp",
                   "bisim", "refinement", "minimize", "kb"):
        assert getattr(fdl, module).__name__ == f"fdl.{module}"
    with pytest.raises(AttributeError):
        fdl.no_such_name


def names_passed_to_use():
    """Every name that a handler of ``fdl.cli`` passes to ``_use``."""
    tree = ast.parse(Path(fdl.cli.__file__).read_text(encoding="utf-8"))
    return {
        arg.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_use"
        for arg in node.args
    }


def test_cli_loads_only_exported_names():
    names = names_passed_to_use()
    assert {"load_interpretation", "greatest_bisim", "hm_matrix", "quotient"} <= names
    for name in sorted(names):
        assert name in fdl.__all__, name
        assert getattr(fdl.cli, name) is getattr(fdl, name), name


@pytest.mark.parametrize("name", ["__path__", "__all__", "no_such_name"])
def test_cli_lends_no_other_package_name(name):
    with pytest.raises(AttributeError):
        getattr(fdl.cli, name)


# Standard-library modules that no command needs; a fresh interpreter must
# not load them beyond what it holds before running anything.
UNNEEDED = {"dataclasses", "inspect", "ast", "dis", "pathlib"}


def run_fresh(script, *args):
    """Run ``script`` with ``args`` in a fresh interpreter that imports this
    ``fdl``; it must exit 0."""
    path = [str(Path(fdl.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, check=True)


def modules_after(argv):
    """The modules a fresh interpreter holds after ``import fdl.cli`` and,
    for a nonempty ``argv``, one command; the command must succeed."""
    script = (
        "import io, json, sys\n"
        "import fdl.cli\n"
        "argv = json.loads(sys.argv[1])\n"
        "code = fdl.cli.main(argv, out=io.StringIO()) if argv else 0\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    proc = run_fresh(script, json.dumps(argv))
    code, modules = json.loads(proc.stdout)
    assert code == 0, proc.stderr
    return set(modules)


def bare_modules():
    """The modules a fresh interpreter holds before running anything, which
    site hooks of the environment may add to."""
    return set(run_fresh("import sys; print(' '.join(sys.modules))").stdout.split())


@pytest.mark.parametrize("argv,absent", [
    ([], "interp parsing bisim refinement kb enumeration minimize fixtures"),
    (["--json", "eval", "-m", "{model}", "-c", "exists r . A"],
     "bisim refinement kb enumeration minimize fixtures"),
    (["--json", "bisim", "-l", "{model}", "-r", "{model}", "--features", "", "-o", "{out}"],
     "parsing kb enumeration minimize fixtures"),
    (["--json", "check", "-l", "{model}", "-r", "{model}", "--features", "", "-z", "{identity}"],
     "parsing kb enumeration refinement minimize fixtures"),
    (["--json", "bisimilar", "-l", "{model}", "-r", "{model}", "--features", "O"],
     "parsing kb enumeration minimize fixtures"),
    (["--json", "validate", "-m", "{model}", "--tbox", "{tbox}"], "enumeration refinement"),
    (["--json", "hm", "-l", "{model}", "-r", "{model}", "--features", "", "--fragment", "prime",
      "--depth", "1"], "bisim refinement minimize fixtures"),
    (["--json", "minimize", "-m", "{model}", "--features", "U"],
     "parsing kb enumeration fixtures"),
    (["--json", "prune", "-m", "{model}", "--features", ""], "parsing kb enumeration fixtures"),
], ids=["import", "eval", "bisim", "check", "bisimilar", "validate", "hm", "minimize", "prune"])
def test_a_command_loads_only_what_it_runs(argv, absent, tmp_path):
    paths = {"model": tmp_path / "model.json", "tbox": tmp_path / "tbox.json",
             "out": tmp_path / "relation.json", "identity": tmp_path / "identity.json"}
    paths["model"].write_text(json.dumps({
        "domain": ["u", "v"], "individuals": {"a": "u"},
        "concepts": {"A": {"v": "0.5"}}, "roles": {"r": [["u", "v", "0.9"]]},
    }))
    paths["tbox"].write_text(json.dumps(
        {"tbox": [{"lhs": "A and exists r . A", "rhs": "A", "p": "1"}]}
    ))
    paths["identity"].write_text(json.dumps({"entries": [["u", "u", "1"], ["v", "v", "1"]]}))
    modules = modules_after([arg.format(**paths) for arg in argv])
    loaded = {name[len("fdl."):] for name in modules if name.startswith("fdl.")}
    assert "cli" in loaded
    assert loaded.isdisjoint(absent.split()), loaded
    extra = (modules - bare_modules()) & UNNEEDED
    assert extra == set()
