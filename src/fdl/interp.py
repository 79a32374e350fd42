"""Finite fuzzy interpretations and the Goedel-semantics evaluator.

An :class:`Interpretation` fixes a nonempty ordered domain, an assignment
of individual names to elements, and graded valuations for concept and
role names.  Valuations are total: anything unlisted is 0.  Instances are
immutable after construction and the evaluator is pure, so concurrent use
is safe.

Element order everywhere follows the declaration order of the domain,
which keeps all outputs deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

from .errors import ModelError
from .godel import (
    ONE,
    ZERO,
    baaz_delta,
    degree,
    format_degree,
    godel_and,
    godel_implies,
    godel_not,
    involutive_not,
    nth_largest,
)
from .relations import FuzzyRelation
from . import syntax as s


@dataclass(frozen=True)
class FuzzySet:
    """A total graded subset of an ordered element sequence."""

    elements: Tuple[str, ...]
    degrees: Tuple[Fraction, ...]

    def at(self, element: str) -> Fraction:
        return self.degrees[self.elements.index(element)]

    def __iter__(self):
        return iter(zip(self.elements, self.degrees))


class Interpretation:
    """A finite fuzzy interpretation."""

    __slots__ = ("domain", "individuals", "concepts", "roles", "_index")

    def __init__(
        self,
        domain: Sequence[str],
        individuals: Optional[Mapping[str, str]] = None,
        concepts: Optional[Mapping[str, Mapping[str, object]]] = None,
        roles: Optional[Mapping[str, object]] = None,
    ):
        self.domain: Tuple[str, ...] = tuple(domain)
        if not self.domain:
            raise ModelError("the domain must be nonempty")
        if len(set(self.domain)) != len(self.domain):
            raise ModelError("duplicate element ids in the domain")
        self._index = {x: i for i, x in enumerate(self.domain)}

        self.individuals: Dict[str, str] = dict(individuals or {})
        for name, target in self.individuals.items():
            if target not in self._index:
                raise ModelError(f"individual {name!r} maps to unknown element {target!r}")

        self.concepts: Dict[str, Tuple[Fraction, ...]] = {}
        for name, valuation in (concepts or {}).items():
            row = [ZERO] * len(self.domain)
            for element, value in dict(valuation).items():
                if element not in self._index:
                    raise ModelError(
                        f"concept {name!r} grades unknown element {element!r}"
                    )
                row[self._index[element]] = degree(value)
            self.concepts[name] = tuple(row)

        self.roles: Dict[str, FuzzyRelation] = {}
        for name, value in (roles or {}).items():
            self.roles[name] = self._coerce_role(name, value)

    def _coerce_role(self, name: str, value) -> FuzzyRelation:
        if isinstance(value, FuzzyRelation):
            if value.rows != self.domain or value.cols != self.domain:
                raise ModelError(f"role {name!r} is not indexed by the domain")
            return value
        if isinstance(value, Mapping):
            entries = dict(value)
        else:
            entries = {}
            for item in value:
                x, y, d = item
                if (x, y) in entries:
                    raise ModelError(f"role {name!r} lists the edge ({x}, {y}) twice")
                entries[(x, y)] = d
        for (x, y) in entries:
            if x not in self._index or y not in self._index:
                raise ModelError(f"role {name!r} uses an unknown element in edge ({x}, {y})")
        return FuzzyRelation.from_entries(self.domain, self.domain, entries)

    # -- accessors -------------------------------------------------------

    def index(self, element: str) -> int:
        try:
            return self._index[element]
        except KeyError:
            raise ModelError(f"unknown element {element!r}") from None

    def individual(self, name: str) -> str:
        try:
            return self.individuals[name]
        except KeyError:
            raise ModelError(f"unknown individual {name!r}") from None

    def concept_row(self, name: str) -> Tuple[Fraction, ...]:
        """Valuation of a concept name; all-zero when unlisted."""
        return self.concepts.get(name, (ZERO,) * len(self.domain))

    def role_relation(self, name: str) -> FuzzyRelation:
        """Valuation of a role name; all-zero when unlisted."""
        rel = self.roles.get(name)
        if rel is None:
            rel = FuzzyRelation.constant(self.domain, self.domain, ZERO)
        return rel

    def is_crisp(self) -> bool:
        return all(
            v in (ZERO, ONE) for row in self.concepts.values() for v in row
        ) and all(rel.is_crisp() for rel in self.roles.values())

    def __eq__(self, other):
        if not isinstance(other, Interpretation):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.individuals == other.individuals
            and self.concepts == other.concepts
            and self.roles == other.roles
        )

    __hash__ = None

    def __repr__(self):
        return (
            f"Interpretation(domain={list(self.domain)!r}, "
            f"individuals={self.individuals!r}, "
            f"concepts={sorted(self.concepts)!r}, roles={sorted(self.roles)!r})"
        )


# ---------------------------------------------------------------------------
# documents


def load_interpretation(document) -> Interpretation:
    """Build an interpretation from its JSON document (dict or text).

    Schema: ``{"domain": ["u", "v1"], "individuals": {"a": "u"},
    "concepts": {"A": {"v1": "0.5"}}, "roles": {"r": [["u", "v1", "0.9"]]}}``.
    Degrees are decimal or fraction strings; missing entries mean 0.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ModelError(f"invalid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ModelError("a model document must be a JSON object")
    unknown = set(document) - {"domain", "individuals", "concepts", "roles"}
    if unknown:
        raise ModelError(f"unknown model document keys: {sorted(unknown)}")
    if "domain" not in document:
        raise ModelError("a model document needs a 'domain' list")
    return Interpretation(
        document["domain"],
        document.get("individuals") or {},
        document.get("concepts") or {},
        document.get("roles") or {},
    )


def dump_interpretation(interp: Interpretation) -> dict:
    """Inverse of :func:`load_interpretation`; zero entries are omitted."""
    concepts = {}
    for name, row in interp.concepts.items():
        concepts[name] = {
            x: format_degree(v)
            for x, v in zip(interp.domain, row)
            if v != ZERO
        }
    roles = {}
    for name, rel in interp.roles.items():
        roles[name] = [
            [x, y, format_degree(v)] for x, y, v in rel.entries() if v != ZERO
        ]
    return {
        "domain": list(interp.domain),
        "individuals": dict(interp.individuals),
        "concepts": concepts,
        "roles": roles,
    }


# ---------------------------------------------------------------------------
# evaluation


class ConceptEvaluator:
    """Memoizing evaluator bound to one interpretation.

    The cache is confined to the instance, so results are deterministic and
    identical to un-memoized evaluation.
    """

    def __init__(self, interp: Interpretation):
        self.interp = interp
        self._concepts: Dict[s.Concept, Tuple[Fraction, ...]] = {}
        self._roles: Dict[s.Role, FuzzyRelation] = {}

    def concept_values(self, c: s.Concept) -> Tuple[Fraction, ...]:
        cached = self._concepts.get(c)
        if cached is None:
            cached = self._eval_concept(c)
            self._concepts[c] = cached
        return cached

    def role_values(self, r: s.Role) -> FuzzyRelation:
        cached = self._roles.get(r)
        if cached is None:
            cached = self._eval_role(r)
            self._roles[r] = cached
        return cached

    def _eval_concept(self, c: s.Concept) -> Tuple[Fraction, ...]:
        interp = self.interp
        n = len(interp.domain)
        if isinstance(c, s.Constant):
            return (c.value,) * n
        if isinstance(c, s.ConceptName):
            return interp.concept_row(c.name)
        if isinstance(c, s.Nominal):
            target = interp.individual(c.individual)
            j = interp.index(target)
            return tuple(ONE if i == j else ZERO for i in range(n))
        if isinstance(c, s.Not):
            return tuple(godel_not(v) for v in self.concept_values(c.concept))
        if isinstance(c, s.InvNeg):
            return tuple(involutive_not(v) for v in self.concept_values(c.concept))
        if isinstance(c, s.Delta):
            return tuple(baaz_delta(v) for v in self.concept_values(c.concept))
        if isinstance(c, s.And):
            left = self.concept_values(c.left)
            right = self.concept_values(c.right)
            return tuple(godel_and(p, q) for p, q in zip(left, right))
        if isinstance(c, s.Or):
            left = self.concept_values(c.left)
            right = self.concept_values(c.right)
            return tuple(max(p, q) for p, q in zip(left, right))
        if isinstance(c, s.Implies):
            left = self.concept_values(c.left)
            right = self.concept_values(c.right)
            return tuple(godel_implies(p, q) for p, q in zip(left, right))
        if isinstance(c, s.Exists):
            rel = self.role_values(c.role).matrix
            filler = self.concept_values(c.filler)
            return tuple(
                max((godel_and(rel[i][j], filler[j]) for j in range(n)), default=ZERO)
                for i in range(n)
            )
        if isinstance(c, s.Forall):
            rel = self.role_values(c.role).matrix
            filler = self.concept_values(c.filler)
            return tuple(
                min((godel_implies(rel[i][j], filler[j]) for j in range(n)), default=ONE)
                for i in range(n)
            )
        if isinstance(c, s.SelfLoop):
            rel = interp.role_relation(c.role_name).matrix
            return tuple(rel[i][i] for i in range(n))
        if isinstance(c, s.AtLeast):
            rel = self.role_values(c.role).matrix
            filler = self.concept_values(c.filler)
            return tuple(
                nth_largest((godel_and(rel[i][j], filler[j]) for j in range(n)), c.n)
                for i in range(n)
            )
        if isinstance(c, s.Less):
            rel = self.role_values(c.role).matrix
            filler = self.concept_values(c.filler)
            return tuple(
                ONE
                if sum(1 for j in range(n) if godel_and(rel[i][j], filler[j]) > ZERO) < c.n
                else ZERO
                for i in range(n)
            )
        if isinstance(c, s.AtLeastUnq):
            rel = self.role_values(c.role).matrix
            return tuple(nth_largest(rel[i], c.n) for i in range(n))
        if isinstance(c, s.LessUnq):
            rel = self.role_values(c.role).matrix
            return tuple(
                ONE if sum(1 for v in rel[i] if v > ZERO) < c.n else ZERO
                for i in range(n)
            )
        raise ModelError(f"not a concept: {c!r}")

    def _eval_role(self, r: s.Role) -> FuzzyRelation:
        interp = self.interp
        domain = interp.domain
        n = len(domain)
        if isinstance(r, s.RoleName):
            return interp.role_relation(r.name)
        if isinstance(r, s.Universal):
            return FuzzyRelation.constant(domain, domain, ONE)
        if isinstance(r, s.Inverse):
            return self.role_values(r.role).inverse()
        if isinstance(r, s.Compose):
            return self.role_values(r.left).compose(self.role_values(r.right))
        if isinstance(r, s.RoleUnion):
            left = self.role_values(r.left).matrix
            right = self.role_values(r.right).matrix
            return FuzzyRelation(
                domain,
                domain,
                [
                    [max(left[i][j], right[i][j]) for j in range(n)]
                    for i in range(n)
                ],
            )
        if isinstance(r, s.Star):
            # max-min transitive closure, then force the diagonal to 1 for
            # the empty iteration.
            base = [list(row) for row in self.role_values(r.role).matrix]
            for k in range(n):
                row_k = base[k]
                for i in range(n):
                    via = base[i][k]
                    if via == ZERO:
                        continue
                    row_i = base[i]
                    for j in range(n):
                        v = via if via <= row_k[j] else row_k[j]
                        if v > row_i[j]:
                            row_i[j] = v
            for i in range(n):
                base[i][i] = ONE
            return FuzzyRelation(domain, domain, base)
        if isinstance(r, s.Test):
            values = self.concept_values(r.concept)
            return FuzzyRelation(
                domain,
                domain,
                [
                    [values[i] if i == j else ZERO for j in range(n)]
                    for i in range(n)
                ],
            )
        raise ModelError(f"not a role: {r!r}")


def eval_concept(interp: Interpretation, c: s.Concept) -> FuzzySet:
    """Grade every domain element by ``c`` under the Goedel semantics."""
    values = ConceptEvaluator(interp).concept_values(c)
    return FuzzySet(interp.domain, values)


def eval_role(interp: Interpretation, r: s.Role) -> FuzzyRelation:
    """The graded binary relation denoted by ``r``."""
    return ConceptEvaluator(interp).role_values(r)


# ---------------------------------------------------------------------------
# reachability


def reachability(
    interp: Interpretation, features: s.FeatureSet
) -> Tuple[FrozenSet[str], bool]:
    """Elements reachable from named individuals over positive basic-role
    edges, plus whether that covers the whole domain.

    Without named individuals nothing is reachable.
    """
    n = len(interp.domain)
    forward = [set() for _ in range(n)]
    for rel in interp.roles.values():
        for i in range(n):
            for j in range(n):
                if rel.matrix[i][j] > ZERO:
                    forward[i].add(j)
                    if features.inverse:
                        forward[j].add(i)
    seen = {interp.index(x) for x in interp.individuals.values()}
    frontier = list(seen)
    while frontier:
        i = frontier.pop()
        for j in forward[i]:
            if j not in seen:
                seen.add(j)
                frontier.append(j)
    reachable = frozenset(interp.domain[i] for i in seen)
    return reachable, len(seen) == n


def degree_universe(*interps: Interpretation) -> Tuple[Fraction, ...]:
    """Every degree occurring in the given interpretations, plus 0 and 1,
    in increasing order.

    The Goedel connectives other than involutive negation only ever select
    among their inputs or return 1, so this set is closed under them.  It is
    the rank alphabet of :mod:`fdl.bisim`: there a degree is stored as its
    position in this tuple, 0 for degree 0 and ``len - 1`` for degree 1.
    """
    values = {ZERO, ONE}
    for interp in interps:
        for row in interp.concepts.values():
            values.update(row)
        for rel in interp.roles.values():
            for matrix_row in rel.matrix:
                values.update(matrix_row)
    return tuple(sorted(values))
