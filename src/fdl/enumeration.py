"""Bounded, canonical enumeration of the two existential fragments.

Used as the witness generator for the logical-indistinguishability matrix:
the greatest fuzzy bisimulation is the infimum of Goedel equivalences over
the core existential concepts, and the greatest crisp one is exact
agreement over the Delta-existential concepts, so enumerating those
fragments up to a height bound approximates both from above.

Conjunctions are canonicalized (flattened, conjunct-sorted, idempotent
duplicates dropped) to stop the exponential duplicate blowup; emission
order is deterministic.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from .errors import BudgetError, InputError
from .godel import degree
from .interp import Interpretation
from .syntax import (
    DEFAULT_BUDGET,
    And,
    AtLeast,
    AtLeastUnq,
    Concept,
    ConceptName,
    Constant,
    Delta,
    Exists,
    FeatureSet,
    Implies,
    Inverse,
    Nominal,
    Role,
    RoleName,
    SelfLoop,
    Universal,
    check_mode,
    structural_key,
)


class Signature:
    """The names available for building concepts."""

    def __init__(
        self,
        concept_names: Iterable[str] = (),
        role_names: Iterable[str] = (),
        individual_names: Iterable[str] = (),
    ):
        self.concept_names: Tuple[str, ...] = tuple(sorted(set(concept_names)))
        self.role_names: Tuple[str, ...] = tuple(sorted(set(role_names)))
        self.individual_names: Tuple[str, ...] = tuple(sorted(set(individual_names)))

    @classmethod
    def from_interpretations(cls, *interps: Interpretation) -> "Signature":
        concepts, roles, individuals = set(), set(), set()
        for interp in interps:
            concepts.update(interp.concepts)
            roles.update(interp.roles)
            individuals.update(interp.individuals)
        return cls(concepts, roles, individuals)


def _flatten_and(c: Concept, into: List[Concept]) -> None:
    if isinstance(c, And):
        _flatten_and(c.left, into)
        _flatten_and(c.right, into)
    else:
        into.append(c)


def canonical_and(left: Concept, right: Concept) -> Concept:
    """Right-nested conjunction of the sorted, deduplicated conjuncts."""
    conjuncts: List[Concept] = []
    _flatten_and(left, conjuncts)
    _flatten_and(right, conjuncts)
    unique = {}
    for c in conjuncts:
        unique.setdefault(structural_key(c), c)
    ordered = [unique[k] for k in sorted(unique)]
    result = ordered[-1]
    for c in reversed(ordered[:-1]):
        result = And(c, result)
    return result


def iter_fragment(
    features: FeatureSet,
    signature: Signature,
    constants: Sequence,
    mode: str,
    depth: int,
    max_concepts: int = DEFAULT_BUDGET,
):
    """Lazily yield the concepts of height <= depth of the fragment that
    characterizes ``mode``: the core existential one for ``"fuzzy"``, the
    Delta-existential one for ``"crisp"``.

    Within a height stratum, cheap discriminating shapes (quantifiers,
    projections, implications against constants) come before the quadratic
    conjunction closure, so consumers that stop early do little work.
    Raises :class:`BudgetError` once more than ``max_concepts`` concepts
    would be emitted.
    """
    check_mode(mode)
    if depth < 0:
        raise InputError("depth must be nonnegative")
    if max_concepts < 0:
        raise InputError("budget must be nonnegative")
    if features.q_bounds is None or features.n_bounds is None:
        raise InputError("enumeration needs finite number-restriction bounds")
    with_delta = mode == "crisp"
    free_implies = not with_delta and features.has_qualified()

    constant_nodes = sorted(
        {Constant(degree(c)) for c in constants}, key=structural_key
    )
    basic_roles: List[Role] = [RoleName(r) for r in signature.role_names]
    if features.inverse:
        basic_roles += [Inverse(RoleName(r)) for r in signature.role_names]
    basic_roles.sort(key=structural_key)
    exists_roles: List[Role] = list(basic_roles)
    if features.universal:
        exists_roles.append(Universal())

    seen = set()
    levels: List[List[Concept]] = []

    def emit(c: Concept, level: List[Concept]):
        key = structural_key(c)
        if key in seen:
            return
        if len(seen) >= max_concepts:
            raise BudgetError(
                f"fragment enumeration exceeded the budget of {max_concepts} concepts"
            )
        seen.add(key)
        level.append(c)
        yield c

    atoms: List[Concept] = list(constant_nodes)
    atoms += [ConceptName(a) for a in signature.concept_names]
    if features.nominals:
        atoms += [Nominal(a) for a in signature.individual_names]
    if features.self_loops:
        atoms += [SelfLoop(r) for r in signature.role_names]
    for n in sorted(features.n_bounds):
        atoms += [AtLeastUnq(n, role) for role in basic_roles]
    level0: List[Concept] = []
    for c in atoms:
        yield from emit(c, level0)
    levels.append(level0)

    for height in range(1, depth + 1):
        fresh: List[Concept] = []
        children = levels[height - 1]
        everything = [c for level in levels for c in level]
        for c in children:
            for role in exists_roles:
                yield from emit(Exists(role, c), fresh)
            for n in sorted(features.q_bounds):
                for role in basic_roles:
                    yield from emit(AtLeast(n, role, c), fresh)
            if with_delta:
                yield from emit(Delta(c), fresh)
            for k in constant_nodes:
                yield from emit(Implies(c, k), fresh)
                yield from emit(Implies(k, c), fresh)
        if free_implies:
            for c in children:
                for d in everything:
                    yield from emit(Implies(c, d), fresh)
                    yield from emit(Implies(d, c), fresh)
        for c in children:
            for d in everything:
                yield from emit(canonical_and(c, d), fresh)
        levels.append(fresh)
