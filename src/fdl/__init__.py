"""Exact reasoning tools for expressive fuzzy description logics under the
Goedel semantics: concept evaluation on finite fuzzy interpretations,
fuzzy and crisp bisimulation computation, bisimilarity decisions, graded
TBox/ABox checking, and model minimization by quotienting.

All degrees are exact rationals; no floating point is used anywhere.
"""

from .errors import (
    BudgetError,
    FdlError,
    FeatureError,
    InputError,
    ModelError,
    ParseError,
)
from .godel import (
    ONE,
    ZERO,
    degree,
    format_degree,
    godel_iff,
    parse_degree,
)
from .relations import FuzzyRelation
from .syntax import (
    And,
    AtLeast,
    AtLeastUnq,
    Compose,
    Concept,
    ConceptName,
    Constant,
    Delta,
    Exists,
    FeatureSet,
    Forall,
    Implies,
    InvNeg,
    Inverse,
    Less,
    LessUnq,
    Nominal,
    Not,
    Or,
    Role,
    RoleName,
    RoleUnion,
    SelfLoop,
    Star,
    Sublanguage,
    Test,
    Universal,
    inverse_normal_form,
    is_basic_role,
    to_text,
    validate,
)
from .parsing import parse, parse_concept, parse_role
from .enumeration import Signature
from .interp import (
    ConceptEvaluator,
    FuzzySet,
    Interpretation,
    degree_universe,
    dump_interpretation,
    eval_concept,
    eval_role,
    load_interpretation,
    reachability,
)
from .bisim import (
    ConditionReport,
    Violation,
    brute_force_greatest,
    check_bisim,
    dump_relation,
    load_relation,
)
from .refinement import BisimilarityResult, bisimilar, greatest_bisim
from .minimize import (
    MinimalityCertificate,
    Partition,
    minimality_certificate,
    prune_unreachable,
    quotient,
    strong_partition,
)
from .kb import (
    ConceptAssertion,
    DistinctIndividual,
    Gci,
    HmResult,
    KnowledgeBase,
    RoleAssertion,
    SameIndividual,
    ValidationResult,
    dump_kb,
    hm_matrix,
    load_kb,
    validates,
)

__version__ = "0.1.0"
