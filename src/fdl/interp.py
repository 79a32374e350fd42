"""Finite fuzzy interpretations and the Goedel-semantics evaluator.

An :class:`Interpretation` fixes a nonempty ordered domain, an assignment
of individual names to elements, and graded valuations for concept and
role names.  Valuations are total: anything unlisted is 0.  A role name is
given as a list of ``[x, y, degree]`` edges and stored sparsely, as each
element's positive successors.  Instances do not change after
construction (predecessor lists are computed once, on first use) and the
evaluator is pure, so concurrent use is safe.

The evaluator grades quantifiers by pushing the filler's vector through
the role expression, so its cost follows the edges, never n x n.

Element order everywhere follows the declaration order of the domain,
which keeps all outputs deterministic.
"""

from __future__ import annotations

import heapq
import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Tuple

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
from .relations import FuzzyRelation, read_triples
from . import syntax as s

# One element's positive (index, degree) successors or predecessors.
Edges = Tuple[Tuple[int, Fraction], ...]


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
    """A finite fuzzy interpretation.

    Each role name is stored as per-element successor lists of
    ``(index, degree)`` pairs, sorted by index, with zero degrees dropped.
    Predecessor lists are built on first use.
    """

    __slots__ = ("domain", "individuals", "concepts", "roles", "_index", "_pred")

    def __init__(
        self,
        domain: Sequence[str],
        individuals: Optional[Mapping[str, str]] = None,
        concepts: Optional[Mapping[str, Mapping[str, object]]] = None,
        roles: Optional[Mapping[str, object]] = None,
    ):
        if not isinstance(domain, (list, tuple)) or not all(isinstance(x, str) for x in domain):
            raise ModelError("the domain must be a list of element id strings")
        self.domain: Tuple[str, ...] = tuple(domain)
        if not self.domain:
            raise ModelError("the domain must be nonempty")
        if len(set(self.domain)) != len(self.domain):
            raise ModelError("duplicate element ids in the domain")
        self._index = {x: i for i, x in enumerate(self.domain)}
        for what, value in (("individuals", individuals), ("concepts", concepts), ("roles", roles)):
            if not isinstance(value, (Mapping, type(None))):
                raise ModelError(f"{what} must be a JSON object, got {value!r}")

        self.individuals: Dict[str, str] = dict(individuals or {})
        for name, target in self.individuals.items():
            if not isinstance(target, str) or target not in self._index:
                raise ModelError(f"individual {name!r} maps to unknown element {target!r}")

        self.concepts: Dict[str, Tuple[Fraction, ...]] = {}
        for name, valuation in (concepts or {}).items():
            if not isinstance(valuation, Mapping):
                raise ModelError(f"concept {name!r} must map elements to degrees")
            row = [ZERO] * len(self.domain)
            for element, value in valuation.items():
                if element not in self._index:
                    raise ModelError(
                        f"concept {name!r} grades unknown element {element!r}"
                    )
                row[self._index[element]] = degree(value)
            self.concepts[name] = tuple(row)

        self.roles: Dict[str, Tuple[Edges, ...]] = {
            name: self._coerce_role(name, value) for name, value in (roles or {}).items()
        }
        self._pred: Dict[str, Tuple[Edges, ...]] = {}

    def _coerce_role(self, name: str, triples) -> Tuple[Edges, ...]:
        """Successor lists from a list of ``[x, y, degree]`` edges."""
        edges = read_triples(triples, self._index, self._index, f"role {name!r}", ModelError)
        succ: List[List[Tuple[int, Fraction]]] = [[] for _ in self.domain]
        for (i, j), d in sorted(edges.items()):
            if d:
                succ[i].append((j, d))
        return tuple(map(tuple, succ))

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

    def successors(self, name: str) -> Tuple[Edges, ...]:
        """Each element's positive ``(index, degree)`` successors under a
        role name, in index order; none when unlisted."""
        succ = self.roles.get(name)
        return succ if succ is not None else ((),) * len(self.domain)

    def predecessors(self, name: str) -> Tuple[Edges, ...]:
        """Each element's positive ``(index, degree)`` predecessors under a
        role name, in index order; built on first use."""
        pred = self._pred.get(name)
        if pred is None:
            lists: List[List[Tuple[int, Fraction]]] = [[] for _ in self.domain]
            for i, row in enumerate(self.successors(name)):
                for j, d in row:
                    lists[j].append((i, d))
            pred = self._pred[name] = tuple(map(tuple, lists))
        return pred

    def edges(self, name: str) -> Iterator[Tuple[str, str, Fraction]]:
        """The positive edges of a role name as ``(x, y, degree)``, in
        index order."""
        domain = self.domain
        for i, row in enumerate(self.successors(name)):
            for j, d in row:
                yield domain[i], domain[j], d

    def self_degrees(self, name: str) -> Tuple[Fraction, ...]:
        """Each element's self-loop degree under a role name."""
        return tuple(
            next((d for j, d in row if j == i), ZERO)
            for i, row in enumerate(self.successors(name))
        )

    def is_crisp(self) -> bool:
        return all(
            v in (ZERO, ONE) for row in self.concepts.values() for v in row
        ) and all(
            d == ONE for succ in self.roles.values() for row in succ for _j, d in row
        )

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
    roles = {
        name: [[x, y, format_degree(v)] for x, y, v in interp.edges(name)]
        for name in interp.roles
    }
    return {
        "domain": list(interp.domain),
        "individuals": dict(interp.individuals),
        "concepts": concepts,
        "roles": roles,
    }


# ---------------------------------------------------------------------------
# evaluation


# A quantifier's filler vector travels through a role as a dict holding only
# the entries that differ from the quantifier's neutral value: 0 for exists,
# 1 for forall.  Per quantifier: that value, the edge operation, the order
# in which one value is better than another (max for exists, min for
# forall), and a heap key that puts the best value first.
_EXISTS = (ZERO, godel_and, operator.gt, operator.neg)
_FORALL = (ONE, godel_implies, operator.lt, operator.pos)


class ConceptEvaluator:
    """Memoizing evaluator bound to one interpretation.

    ``exists R . C`` and ``forall R . C`` push the vector of C through R in
    inverse normal form, using the Goedel identities

    * ``Q (R ; S) . C`` = ``Q R . Q S . C`` for both quantifiers;
    * ``exists (R | S) . C`` = max, ``forall (R | S) . C`` = min;
    * ``exists D? . C`` = ``D and C``, ``forall D? . C`` = ``D -> C``;
    * ``exists R* . C`` is the least solution of ``v = max(C, exists R . v)``
      and ``forall R* . C`` the greatest of ``v = min(C, forall R . v)``.

    A role name moves each entry to the element's predecessors, so the
    work follows the edges and no n x n role is built.  The cache is
    confined to the instance, so results are deterministic and identical to
    un-memoized evaluation.
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
        """The relation denoted by ``r``; its column b is ``exists r . {b}``."""
        cached = self._roles.get(r)
        if cached is None:
            domain = self.interp.domain
            role = s.inverse_normal_form(r)
            matrix = [[ZERO] * len(domain) for _ in domain]
            for b in range(len(domain)):
                for a, v in self._push(role, {b: ONE}, _EXISTS).items():
                    matrix[a][b] = v
            cached = FuzzyRelation(domain, domain, matrix)
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
        if isinstance(c, (s.Exists, s.Forall)):
            quantifier = _EXISTS if isinstance(c, s.Exists) else _FORALL
            neutral = quantifier[0]
            filler = self.concept_values(c.filler)
            vector = {b: v for b, v in enumerate(filler) if v != neutral}
            pushed = self._push(s.inverse_normal_form(c.role), vector, quantifier)
            return tuple(pushed.get(a, neutral) for a in range(n))
        if isinstance(c, s.SelfLoop):
            return interp.self_degrees(c.role_name)
        if isinstance(c, (s.AtLeast, s.Less)):
            filler = self.concept_values(c.filler)
            graded = [[godel_and(d, filler[b]) for b, d in row] for row in self._basic(c.role)]
        elif isinstance(c, (s.AtLeastUnq, s.LessUnq)):
            graded = [[d for _b, d in row] for row in self._basic(c.role)]
        else:
            raise ModelError(f"not a concept: {c!r}")
        if isinstance(c, (s.AtLeast, s.AtLeastUnq)):
            return tuple(nth_largest(row, c.n) for row in graded)
        return tuple(ONE if sum(1 for v in row if v) < c.n else ZERO for row in graded)

    def _basic(self, role: s.Role, forward: bool = True):
        """Successor lists of a basic role, or predecessor lists when not
        ``forward``."""
        if isinstance(role, s.Inverse):
            role, forward = role.role, not forward
        if forward:
            return self.interp.successors(role.name)
        return self.interp.predecessors(role.name)

    def _push(self, r: s.Role, vector: Dict[int, Fraction], quantifier) -> Dict[int, Fraction]:
        """``Q r . v`` for a role in inverse normal form, where ``vector``
        and the result hold the entries of v and of the answer that differ
        from Q's neutral value."""
        if not vector:
            return vector
        neutral, edge, better, _key = quantifier
        if isinstance(r, (s.RoleName, s.Inverse)):
            out: Dict[int, Fraction] = {}
            predecessors = self._basic(r, forward=False)
            for b, x in vector.items():
                for a, d in predecessors[b]:
                    v = edge(d, x)
                    if better(v, out.get(a, neutral)):
                        out[a] = v
            return out
        if isinstance(r, s.Compose):
            return self._push(r.left, self._push(r.right, vector, quantifier), quantifier)
        if isinstance(r, s.RoleUnion):
            out = self._push(r.left, vector, quantifier)
            for a, v in self._push(r.right, vector, quantifier).items():
                if better(v, out.get(a, neutral)):
                    out[a] = v
            return out
        if isinstance(r, s.Test):
            values = self.concept_values(r.concept)
            out = {}
            for a, x in vector.items():
                v = edge(values[a], x)
                if better(v, neutral):
                    out[a] = v
            return out
        if isinstance(r, s.Universal):
            best = neutral
            for v in vector.values():
                if better(v, best):
                    best = v
            return dict.fromkeys(range(len(self.interp.domain)), best)
        if isinstance(r, s.Star):
            return self._star(r.role, vector, quantifier)
        raise ModelError(f"not a role: {r!r}")

    def _star(self, r: s.Role, vector: Dict[int, Fraction], quantifier) -> Dict[int, Fraction]:
        """``Q r* . v``: a widest-path search that settles the elements in
        order of value, best first, and pushes each group of equal values
        through ``r`` once.  A push never yields a value better than its
        input, so a settled value is final."""
        neutral, _edge, better, key = quantifier
        result = dict(vector)
        heap = [(key(v), a) for a, v in vector.items()]
        heapq.heapify(heap)
        settled = set()
        while heap:
            k, a = heapq.heappop(heap)
            if a in settled:
                continue
            group = {a: result[a]}
            while heap and heap[0][0] == k:
                a = heapq.heappop(heap)[1]
                if a not in settled:
                    group[a] = result[a]
            settled.update(group)
            for a, v in self._push(r, group, quantifier).items():
                if better(v, result.get(a, neutral)):
                    result[a] = v
                    heapq.heappush(heap, (key(v), a))
        return result


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
    for succ in interp.roles.values():
        for i, row in enumerate(succ):
            for j, _d in row:
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


def degree_objects(*interps: Interpretation) -> Dict[int, Fraction]:
    """Every degree object occurring in the given interpretations, plus 0
    and 1, keyed by ``id``.

    Hashing a Fraction is slow, and a loaded model shares one object per
    degree text, so callers tell degrees apart by identity first and hash
    each distinct object once.
    """
    found = {id(ZERO): ZERO, id(ONE): ONE}
    for interp in interps:
        for row in interp.concepts.values():
            for d in row:
                found[id(d)] = d
        for succ in interp.roles.values():
            for row in succ:
                for _j, d in row:
                    found[id(d)] = d
    return found


def degree_universe(*interps: Interpretation) -> Tuple[Fraction, ...]:
    """Every degree occurring in the given interpretations, plus 0 and 1,
    in increasing order.

    The Goedel connectives other than involutive negation only ever select
    among their inputs or return 1, so this set is closed under them.  It is
    the rank alphabet of :mod:`fdl.bisim`: there a degree is stored as its
    position in this tuple, 0 for degree 0 and ``len - 1`` for degree 1.
    """
    return tuple(sorted(set(degree_objects(*interps).values())))
