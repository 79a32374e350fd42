"""Graded assertions and concept inclusions, model checking, and the
logical-indistinguishability oracle.

This module checks boxes of graded axioms against concrete finite
interpretations; it does no entailment reasoning.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple, Union

from .errors import InputError, json_text
from .godel import ONE, ZERO, degree, format_degree, godel_iff
from .interp import ConceptEvaluator, Interpretation, degree_universe
from .parsing import parse_concept, parse_role
from .relations import FuzzyRelation
from .syntax import (
    DEFAULT_BUDGET,
    Concept,
    Exists,
    FeatureSet,
    Implies,
    Nominal,
    Role,
    Sublanguage,
    to_text,
)

_CMP = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}
_GCI_REL = {">=": operator.ge, ">": operator.gt}


class _Item:
    """A box item; its text is written once, in :data:`_ITEM_KEYS`."""

    __slots__ = ()

    def describe(self) -> str:
        return _ITEM_KEYS[type(self)][2].format_map(_dump_item(self))


@dataclass(frozen=True)
class SameIndividual(_Item):
    a: str
    b: str


@dataclass(frozen=True)
class DistinctIndividual(_Item):
    a: str
    b: str


@dataclass(frozen=True)
class ConceptAssertion(_Item):
    concept: Concept
    individual: str
    cmp: str
    threshold: Fraction

    def __post_init__(self):
        if self.cmp not in _CMP:
            raise InputError(f"comparison must be one of {sorted(_CMP)}, got {self.cmp!r}")
        object.__setattr__(self, "threshold", degree(self.threshold))


@dataclass(frozen=True)
class RoleAssertion(_Item):
    role: Role
    a: str
    b: str
    cmp: str
    threshold: Fraction

    def __post_init__(self):
        if self.cmp not in _CMP:
            raise InputError(f"comparison must be one of {sorted(_CMP)}, got {self.cmp!r}")
        object.__setattr__(self, "threshold", degree(self.threshold))


@dataclass(frozen=True)
class Gci(_Item):
    """Graded concept inclusion: the implication degree clears a threshold
    everywhere."""

    lhs: Concept
    rhs: Concept
    rel: str
    threshold: Fraction

    def __post_init__(self):
        if self.rel not in _GCI_REL:
            raise InputError(f"inclusion relation must be '>=' or '>', got {self.rel!r}")
        object.__setattr__(self, "threshold", degree(self.threshold))
        if self.threshold == ZERO:
            raise InputError("inclusion thresholds must lie in (0, 1]")


Assertion = Union[SameIndividual, DistinctIndividual, ConceptAssertion, RoleAssertion]
KbItem = Union[Assertion, Gci]


@dataclass(frozen=True)
class KnowledgeBase:
    tbox: Tuple[Gci, ...] = ()
    abox: Tuple[Assertion, ...] = ()

    def items(self) -> Tuple[KbItem, ...]:
        return self.tbox + self.abox


@dataclass(frozen=True)
class ValidationResult:
    valid: bool
    failed_item: Optional[KbItem] = None
    witness_element: Optional[str] = None


def _failure(
    interp: Interpretation, evaluator: ConceptEvaluator, item: KbItem
) -> Optional[ValidationResult]:
    """How ``item`` fails on ``interp``, with a witness element for
    inclusions; None when it holds."""
    if isinstance(item, Gci):
        check = _GCI_REL[item.rel]
        values = evaluator.concept_values(Implies(item.lhs, item.rhs))
        # the values share a few degree objects: each is compared once
        distinct = {id(v): v for v in values}
        failing = {key for key, v in distinct.items() if not check(v, item.threshold)}
        for x, value in zip(interp.domain, values) if failing else ():
            if id(value) in failing:
                return ValidationResult(False, item, x)
        return None
    if isinstance(item, SameIndividual):
        ok = interp.individual(item.a) == interp.individual(item.b)
    elif isinstance(item, DistinctIndividual):
        ok = interp.individual(item.a) != interp.individual(item.b)
    elif isinstance(item, ConceptAssertion):
        value = evaluator.concept_values(item.concept)[
            interp.index(interp.individual(item.individual))
        ]
        ok = _CMP[item.cmp](value, item.threshold)
    elif isinstance(item, RoleAssertion):
        # the degree R(a, b) is exists R . {b} at a
        value = evaluator.concept_values(Exists(item.role, Nominal(item.b)))[
            interp.index(interp.individual(item.a))
        ]
        ok = _CMP[item.cmp](value, item.threshold)
    else:
        raise InputError(f"not an assertion or inclusion: {item!r}")
    return None if ok else ValidationResult(False, item)


def validates(interp: Interpretation, items: Sequence[KbItem]) -> ValidationResult:
    """Check every item; report the first failure with a witness element
    for inclusions.  One evaluator serves the whole box, so subconcepts
    shared between items are evaluated once."""
    evaluator = ConceptEvaluator(interp)
    for item in items:
        failure = _failure(interp, evaluator, item)
        if failure is not None:
            return failure
    return ValidationResult(True)


# ---------------------------------------------------------------------------
# documents


# Each box item class: its "kind" tag in the ABox (None for the TBox's
# inclusions), the document key of each dataclass field, in field order, and
# its describe() text over those keys.
_ITEM_KEYS = {
    Gci: (None, ("lhs", "rhs", "rel", "p"), "({lhs} included-in {rhs}) {rel} {p}"),
    SameIndividual: ("same", ("a", "b"), "{a} = {b}"),
    DistinctIndividual: ("distinct", ("a", "b"), "{a} != {b}"),
    ConceptAssertion: ("concept", ("c", "a", "cmp", "p"), "({c})({a}) {cmp} {p}"),
    RoleAssertion: ("role", ("r", "a", "b", "cmp", "p"), "({r})({a}, {b}) {cmp} {p}"),
}
_KINDS = {kind: cls for cls, (kind, _keys, _text) in _ITEM_KEYS.items() if kind}
_DEFAULTS = {"rel": ">=", "cmp": ">="}


def _load_field(type_name: str, key: str, value, features: Optional[FeatureSet]):
    if type_name == "Fraction":
        return degree(value)
    if not isinstance(value, str):
        raise InputError(f"the value of {key!r} must be a string, got {json_text(value)}")
    if type_name == "Concept":
        return parse_concept(value, features)
    if type_name == "Role":
        return parse_role(value, features)
    return value


def _load_item(box: str, entry, features: Optional[FeatureSet]) -> KbItem:
    what = "a tbox entry" if box == "tbox" else "an abox entry"
    if not isinstance(entry, dict):
        raise InputError(f"{what} must be a JSON object, got {json_text(entry)}")
    entry = dict(entry)
    if box == "tbox":
        cls = Gci
    else:
        kind = entry.pop("kind", None)
        cls = _KINDS.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise InputError(f"unknown assertion kind {json_text(kind)}")
    keys = _ITEM_KEYS[cls][1]
    unknown = set(entry) - set(keys)
    if unknown:
        raise InputError(f"unknown keys in {what}: {sorted(unknown)}")
    values = []
    for field, key in zip(fields(cls), keys):
        value = entry.get(key, _DEFAULTS.get(key))
        if value is None:
            raise InputError(f"{what} needs a value for {key!r}: {json_text(entry)}")
        values.append(_load_field(field.type, key, value, features))
    return cls(*values)


def load_kb(document, features: Optional[FeatureSet] = None) -> KnowledgeBase:
    """Read ``{"tbox": [{"lhs": ..., "rhs": ..., "rel": ">=", "p": ...}],
    "abox": [{"kind": "concept", ...}, {"kind": "same", ...}, ...]}``.

    Concept and role fields hold grammar text parsed under ``features``
    (permissive by default); ``rel`` and ``cmp`` default to ``">="``.
    """
    if not isinstance(document, dict):
        raise InputError("a TBox/ABox document must be a JSON object")
    unknown = set(document) - {"tbox", "abox"}
    if unknown:
        raise InputError(f"unknown TBox/ABox document keys: {sorted(unknown)}")
    boxes = {}
    for box in ("tbox", "abox"):
        entries = document.get(box, [])
        if not isinstance(entries, list):
            raise InputError(f"{box!r} must be a list of objects")
        boxes[box] = tuple(_load_item(box, entry, features) for entry in entries)
    return KnowledgeBase(**boxes)


def _dump_item(item: KbItem) -> dict:
    """The text of each field of ``item``, by its document key."""
    entry = {}
    for field, key in zip(fields(item), _ITEM_KEYS[type(item)][1]):
        write = {"str": str, "Fraction": format_degree}.get(field.type, to_text)
        entry[key] = write(getattr(item, field.name))
    return entry


# ---------------------------------------------------------------------------
# logical indistinguishability


@dataclass(frozen=True)
class HmResult:
    matrix: FuzzyRelation
    separators: Dict[Tuple[str, str], Optional[Concept]]
    concepts_used: int


def hm_matrix(
    ia: Interpretation,
    ib: Interpretation,
    features: FeatureSet,
    fragment: Sublanguage,
    depth: int,
    max_concepts: int = DEFAULT_BUDGET,
) -> HmResult:
    """Logical indistinguishability over a fragment, up to a height bound.

    CORE_EXISTENTIAL: entry (x, x') is the minimum over enumerated concepts
    of the Goedel equivalence of their values -- the fuzzy matrix.
    DELTA_EXISTENTIAL: entry is 1 when every enumerated concept agrees
    exactly, else 0 -- the crisp matrix.

    The matrix is antitone in ``depth`` and, on finite models, stabilizes
    to the greatest (fuzzy resp. crisp) bisimulation.  ``separators``
    records, per pair, the first concept attaining the final value.
    """
    from .enumeration import Signature, iter_fragment  # only this command enumerates

    signature = Signature.from_interpretations(ia, ib)
    stream = iter_fragment(
        features, signature, degree_universe(ia, ib), fragment, depth, max_concepts
    )
    crisp = fragment is Sublanguage.DELTA_EXISTENTIAL
    eva, evb = ConceptEvaluator(ia), ConceptEvaluator(ib)
    live = {(i, j) for i in range(len(ia.domain)) for j in range(len(ib.domain))}
    # every pair starts at 1, so the working matrix lists them all
    matrix = dict.fromkeys(live, ONE)
    separators: Dict[Tuple[str, str], Optional[Concept]] = {
        (x, y): None for x in ia.domain for y in ib.domain
    }
    used = 0
    for c in stream:
        if not live:
            break
        used += 1
        va, vb = eva.concept_values(c), evb.concept_values(c)
        for i, j in list(live):
            value = godel_iff(va[i], vb[j])
            if crisp and value != ONE:
                value = ZERO
            if value < matrix[i, j]:
                matrix[i, j] = value
                separators[(ia.domain[i], ib.domain[j])] = c
                if value == ZERO:
                    live.discard((i, j))
    return HmResult(FuzzyRelation.from_indexed(ia.domain, ib.domain, matrix), separators, used)
