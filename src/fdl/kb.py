"""Graded assertions and concept inclusions, model checking, and the
logical-indistinguishability oracle.

This module checks boxes of graded axioms against concrete finite
interpretations; it does no entailment reasoning.
"""

from __future__ import annotations

import operator
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
    _Record,
    _set,
    to_text,
)

_CMP = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}
_GCI_REL = {">=": operator.ge, ">": operator.gt}


class _Item(_Record):
    """A box item; its text is written once, in :data:`_ITEM_KEYS`."""

    __slots__ = ()

    def describe(self) -> str:
        return _ITEM_KEYS[type(self)][2].format_map(_dump_item(self))


def _check_assertion(item) -> None:
    if item.cmp not in _CMP:
        raise InputError(f"comparison must be one of {sorted(_CMP)}, got {item.cmp!r}")
    _set(item, "threshold", degree(item.threshold))


class SameIndividual(_Item):
    __slots__ = ("a", "b")


class DistinctIndividual(_Item):
    __slots__ = ("a", "b")


class ConceptAssertion(_Item):
    """The degree of a concept at an individual compares (``cmp``) to a
    threshold."""

    __slots__ = ("concept", "individual", "cmp", "threshold")
    _check = _check_assertion


class RoleAssertion(_Item):
    """The degree of a role between two individuals compares (``cmp``) to
    a threshold."""

    __slots__ = ("role", "a", "b", "cmp", "threshold")
    _check = _check_assertion


class Gci(_Item):
    """Graded concept inclusion: the implication degree clears a threshold
    everywhere."""

    __slots__ = ("lhs", "rhs", "rel", "threshold")

    def _check(self):
        if self.rel not in _GCI_REL:
            raise InputError(f"inclusion relation must be '>=' or '>', got {self.rel!r}")
        _set(self, "threshold", degree(self.threshold))
        if self.threshold == ZERO:
            raise InputError("inclusion thresholds must lie in (0, 1]")


Assertion = Union[SameIndividual, DistinctIndividual, ConceptAssertion, RoleAssertion]
KbItem = Union[Assertion, Gci]


class KnowledgeBase(_Record):
    """A tuple of inclusions and a tuple of assertions."""

    __slots__ = ("tbox", "abox")
    _defaults = {"tbox": (), "abox": ()}

    def items(self) -> Tuple[KbItem, ...]:
        return self.tbox + self.abox


class ValidationResult(_Record):
    """Whether a box holds on a model; if not, the first item that fails
    and, for an inclusion, an element where it fails."""

    __slots__ = ("valid", "failed_item", "witness_element")
    _defaults = {"failed_item": None, "witness_element": None}


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
# inclusions), the document key of each of its fields, in field order, and
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
# The keys that hold grammar text, and the parser of each; "p" holds a
# degree, and every other key a plain string.
_PARSERS = {"lhs": parse_concept, "rhs": parse_concept, "c": parse_concept, "r": parse_role}


def _load_field(key: str, value, features: Optional[FeatureSet]):
    if key == "p":
        return degree(value)
    if not isinstance(value, str):
        raise InputError(f"the value of {key!r} must be a string, got {json_text(value)}")
    parse = _PARSERS.get(key)
    return value if parse is None else parse(value, features)


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
    for key in keys:
        value = entry.get(key, _DEFAULTS.get(key))
        if value is None:
            raise InputError(f"{what} needs a value for {key!r}: {json_text(entry)}")
        values.append(_load_field(key, value, features))
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
    for name, key in zip(item._fields, _ITEM_KEYS[type(item)][1]):
        write = format_degree if key == "p" else to_text if key in _PARSERS else str
        entry[key] = write(getattr(item, name))
    return entry


# ---------------------------------------------------------------------------
# logical indistinguishability


class HmResult(_Record):
    """The indistinguishability matrix, per pair the first concept that
    attains its value (or None), and the number of concepts enumerated."""

    __slots__ = ("matrix", "separators", "concepts_used")


def hm_matrix(
    ia: Interpretation,
    ib: Interpretation,
    features: FeatureSet,
    mode: str,
    depth: int,
    max_concepts: int = DEFAULT_BUDGET,
) -> HmResult:
    """Logical indistinguishability over a fragment, up to a height bound.

    ``"fuzzy"`` enumerates the core existential fragment: entry (x, x') is
    the minimum over enumerated concepts of the Goedel equivalence of their
    values.  ``"crisp"`` enumerates the Delta-existential fragment: entry is
    1 when every enumerated concept agrees exactly, else 0.

    The matrix is antitone in ``depth`` and, on finite models, stabilizes
    to the greatest (fuzzy resp. crisp) bisimulation.  ``separators``
    records, per pair, the first concept attaining the final value.
    """
    from .enumeration import Signature, iter_fragment  # only this command enumerates

    signature = Signature.from_interpretations(ia, ib)
    stream = iter_fragment(
        features, signature, degree_universe(ia, ib), mode, depth, max_concepts
    )
    crisp = mode == "crisp"
    eva, evb = ConceptEvaluator(ia), ConceptEvaluator(ib)
    live = {(i, j) for i in range(len(ia.domain)) for j in range(len(ib.domain))}
    # every pair starts at 1; one list of degrees per element of A
    matrix = [[ONE] * len(ib.domain) for _ in ia.domain]
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
            if value < matrix[i][j]:
                matrix[i][j] = value
                separators[(ia.domain[i], ib.domain[j])] = c
                if value == ZERO:
                    live.discard((i, j))
    lines = []
    for row in matrix:
        ys = [j for j, v in enumerate(row) if v]  # Fraction.__bool__ reads the numerator
        lines.append((ys, [row[j] for j in ys]))
    return HmResult(FuzzyRelation(ia.domain, ib.domain, lines), separators, used)
