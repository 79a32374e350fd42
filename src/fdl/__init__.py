"""Exact reasoning tools for expressive fuzzy description logics under the
Goedel semantics: concept evaluation on finite fuzzy interpretations,
fuzzy and crisp bisimulation computation, bisimilarity decisions, graded
TBox/ABox checking, and model minimization by quotienting.

All degrees are exact rationals; no floating point is used anywhere.

Each exported name loads its module on first use (PEP 562), so that a
command imports only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# The names this package exports, by the module that defines them.  Each
# of these modules is also reachable as an attribute, as ``fdl.bisim``.
_EXPORTS = {
    "errors": (
        "BudgetError", "FdlError", "FeatureError", "InputError", "ModelError", "ParseError",
    ),
    "godel": ("ONE", "ZERO", "degree", "format_degree", "godel_iff", "parse_degree"),
    "relations": ("FuzzyRelation",),
    "syntax": (
        "And", "AtLeast", "AtLeastUnq", "Compose", "Concept", "ConceptName", "Constant", "Delta",
        "Exists", "FeatureSet", "Forall", "Implies", "InvNeg", "Inverse", "Less", "LessUnq",
        "Nominal", "Not", "Or", "Role", "RoleName", "RoleUnion", "SelfLoop", "Star", "Test",
        "Universal", "is_basic_role", "to_text", "validate",
    ),
    "parsing": ("parse_concept", "parse_role"),
    "enumeration": ("Signature",),
    "interp": (
        "ConceptEvaluator", "FuzzySet", "Interpretation", "degree_universe", "dump_interpretation",
        "eval_concept", "load_interpretation", "reachability",
    ),
    "bisim": (
        "ConditionReport", "Violation", "brute_force_greatest", "check_bisim", "dump_relation",
        "load_relation",
    ),
    "refinement": ("BisimilarityResult", "bisimilar", "greatest_bisim"),
    "minimize": ("Partition", "prune_unreachable", "quotient", "strong_partition"),
    "kb": (
        "ConceptAssertion", "DistinctIndividual", "Gci", "HmResult", "KnowledgeBase",
        "RoleAssertion", "SameIndividual", "ValidationResult", "hm_matrix", "load_kb", "validates",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
