"""Finite fuzzy interpretations and the Goedel-semantics evaluator.

An :class:`Interpretation` fixes a nonempty ordered domain, an assignment
of individual names to elements, and graded valuations for concept and
role names.  Valuations are total: anything unlisted is 0.  A role name is
given as a list of ``[x, y, degree]`` edges and stored sparsely, as each
element's positive successors.  Instances do not change after
construction and the evaluator is pure, so concurrent use is safe.

The evaluator grades quantifiers by pushing the filler's vector through
the role expression, so its cost follows the edges, never n x n.  It
grades on integers: with L the least common multiple of the denominators
of the model's degrees, degree p/q is the integer p * (L // q).  That map
is strictly increasing and sends 0 to 0, 1 to L and 1 - x to L - x.  Every
other connective (min, max, the residuum, not, Delta, the suprema and
infima of the quantifiers, the n-th largest of counting) compares its
inputs and selects one of them or returns 0 or 1, so it commutes with the
map, and the integers are exact.  Before a concept is graded, L grows to
the least common multiple of itself and the denominators of the concept's
constants; nothing is rounded.  Values return to ``Fraction`` only at the
public methods.  A role is graded only through the concepts built on it:
with nominals, R(a, b) is the value of ``exists R . {b}`` at a.

Element order everywhere follows the declaration order of the domain,
which keeps all outputs deterministic.
"""

from __future__ import annotations

import heapq
import json
import operator
from fractions import Fraction
from math import lcm
from typing import Dict, FrozenSet, Iterator, Mapping, Optional, Sequence, Tuple

from .errors import ModelError, briefly, json_text, listed, quoted
from .godel import ONE, ZERO, DegreeTexts, degree, format_degree
from .relations import read_triples
from . import syntax as s

# One element's positive (index, degree) successors or predecessors.
Edges = Tuple[Tuple[int, Fraction], ...]


class FuzzySet(s._Record):
    """A total graded subset of an ordered element sequence: a tuple of
    ``elements`` and one of their ``degrees``."""

    __slots__ = ("elements", "degrees")

    def at(self, element: str) -> Fraction:
        try:
            return self.degrees[self.elements.index(element)]
        except ValueError:
            raise ModelError(f"unknown element {quoted(element)}") from None

    def __iter__(self):
        return iter(zip(self.elements, self.degrees))


class Interpretation:
    """A finite fuzzy interpretation.

    Each role name is stored as per-element successor lists of
    ``(index, degree)`` pairs, sorted by index, with zero degrees dropped.
    The constructor checks and converts the parts of a model document;
    :meth:`_of_parts` stores parts that are already in that form, as
    :mod:`fdl.minimize` builds them from a valid model.  Either keeps the
    model's degree table, its degree objects plus 0 and 1 by ``id``, which
    :func:`degree_objects` reads: the constructor collects it while
    reading (the values of the document's :class:`fdl.godel.DegreeTexts`
    and every degree given as another value), and :meth:`_of_parts` reads
    it off the parts.
    """

    __slots__ = ("domain", "individuals", "concepts", "roles", "_index", "_degrees")

    def __init__(
        self,
        domain: Sequence[str],
        individuals: Optional[Mapping[str, str]] = None,
        concepts: Optional[Mapping[str, Mapping[str, object]]] = None,
        roles: Optional[Mapping[str, object]] = None,
    ):
        if not isinstance(domain, (list, tuple)) or not all(isinstance(x, str) for x in domain):
            raise ModelError("the domain must be a list of element id strings")
        if not domain:
            raise ModelError("the domain must be nonempty")
        index = {x: i for i, x in enumerate(domain)}
        if len(index) != len(domain):
            raise ModelError("duplicate element ids in the domain")
        for what, value in (("individuals", individuals), ("concepts", concepts), ("roles", roles)):
            if not isinstance(value, (Mapping, type(None))):
                raise ModelError(f"{what} must be a JSON object, got {briefly(json_text(value))}")

        individuals = dict(individuals or {})
        for name, target in individuals.items():
            if not isinstance(target, str) or target not in index:
                raise ModelError(f"individual {quoted(name)} maps to unknown element "
                                 f"{briefly(json_text(target))}")

        texts, found = DegreeTexts(), {id(ZERO): ZERO, id(ONE): ONE}
        rows: Dict[str, Tuple[Fraction, ...]] = {}
        for name, valuation in (concepts or {}).items():
            if not isinstance(valuation, Mapping):
                raise ModelError(f"concept {quoted(name)} must map elements to degrees")
            row = [ZERO] * len(domain)
            for element, value in valuation.items():
                try:
                    k = index[element]
                except KeyError:
                    raise ModelError(
                        f"concept {quoted(name)} grades unknown element {quoted(element)}"
                    ) from None
                if type(value) is str:
                    row[k] = texts[value]
                else:
                    d = row[k] = degree(value)
                    found[id(d)] = d
            rows[name] = tuple(row)

        successors = {}
        for name, value in (roles or {}).items():
            lines = read_triples(value, index, index, f"role {quoted(name)}", ModelError, texts,
                                 found)
            successors[name] = tuple(map(tuple, lines))
        for d in texts.values():
            found[id(d)] = d
        self._fill(tuple(domain), index, individuals, rows, successors, found)

    @classmethod
    def _of_parts(cls, domain, individuals, concepts, roles) -> "Interpretation":
        """An interpretation from parts already in the stored form above,
        which the caller vouches for: a tuple of distinct element ids,
        individuals on them, concept rows of degree objects, and role
        successor lists.  Its degree table is read off these parts: a
        table of the model they came from may hold more degrees."""
        found = {id(ZERO): ZERO, id(ONE): ONE}
        for row in concepts.values():
            for d in row:
                found[id(d)] = d
        for succ in roles.values():
            for row in succ:
                for _j, d in row:
                    found[id(d)] = d
        interp = cls.__new__(cls)
        interp._fill(domain, {x: i for i, x in enumerate(domain)}, individuals, concepts, roles,
                     found)
        return interp

    def _fill(self, domain, index, individuals, concepts, roles, degrees) -> None:
        self.domain, self._index, self.individuals = domain, index, individuals
        self.concepts, self.roles, self._degrees = concepts, roles, degrees

    # -- accessors -------------------------------------------------------

    def index(self, element: str) -> int:
        try:
            return self._index[element]
        except KeyError:
            raise ModelError(f"unknown element {quoted(element)}") from None

    def individual(self, name: str) -> str:
        try:
            return self.individuals[name]
        except KeyError:
            raise ModelError(f"unknown individual {quoted(name)}") from None

    def concept_row(self, name: str) -> Tuple[Fraction, ...]:
        """Valuation of a concept name; all-zero when unlisted."""
        return self.concepts.get(name, (ZERO,) * len(self.domain))

    def successors(self, name: str) -> Tuple[Edges, ...]:
        """Each element's positive ``(index, degree)`` successors under a
        role name, in index order; none when unlisted."""
        succ = self.roles.get(name)
        return succ if succ is not None else ((),) * len(self.domain)

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
        except ValueError as exc:  # an integer with more digits than int reads
            raise ModelError("invalid JSON: an integer has too many digits") from exc
    if not isinstance(document, dict):
        raise ModelError("a model document must be a JSON object")
    unknown = set(document) - {"domain", "individuals", "concepts", "roles"}
    if unknown:
        raise ModelError(f"unknown model document keys: {listed(unknown)}")
    if "domain" not in document:
        raise ModelError("a model document needs a 'domain' list")
    parts = {key: document.get(key, {}) for key in ("individuals", "concepts", "roles")}
    for key, value in parts.items():
        if not isinstance(value, dict):
            raise ModelError(f"{key} must be a JSON object, got {briefly(json_text(value))}")
    return Interpretation(document["domain"], **parts)


def dump_interpretation(interp: Interpretation) -> dict:
    """Inverse of :func:`load_interpretation`; zero entries are omitted."""
    texts = {key: format_degree(v) for key, v in degree_objects(interp).items()}
    concepts = {name: {x: texts[id(v)] for x, v in zip(interp.domain, row) if v}
                for name, row in interp.concepts.items()}
    roles = {name: [[x, y, texts[id(v)]] for x, y, v in interp.edges(name)]
             for name in interp.roles}
    return {
        "domain": list(interp.domain),
        "individuals": dict(interp.individuals),
        "concepts": concepts,
        "roles": roles,
    }


# ---------------------------------------------------------------------------
# evaluation


class _Scale(dict):
    """A model's degrees as integers over a common denominator ``top``.

    As a dict it maps an integer back to a degree: the model's own object,
    or a ``Fraction(k, top)`` made once for a value the model does not
    hold.  ``of`` maps the ``id`` of each degree object to its integer, and
    ``edges`` holds the integer successor and predecessor lists per
    ``(role name, forward)``, converted on first use.
    """

    def __init__(self, top: int, of: Dict[int, int], pairs):
        super().__init__(pairs)
        self.top, self.of, self.edges = top, of, {}

    def grown(self, denominator: int) -> "_Scale":
        """The same degrees over the least common multiple of ``top`` and
        ``denominator``."""
        k = lcm(self.top, denominator) // self.top
        of = {key: v * k for key, v in self.of.items()}
        return _Scale(self.top * k, of, ((v * k, d) for v, d in self.items()))

    def __missing__(self, k: int) -> Fraction:
        value = self[k] = Fraction(k, self.top)
        return value


# A quantifier's filler vector travels through a role as a dict holding only
# the entries that differ from the quantifier's neutral value: 0 for exists,
# L for forall.  Per quantifier: that value, the edge operation, the order
# in which one value is better than another (max for exists, min for
# forall), and a heap key that puts the best value first.
_EXISTS = (0, min, operator.gt, operator.neg)


class ConceptEvaluator:
    """Memoizing evaluator bound to one interpretation.

    It grades on the integers of the model's degrees over their common
    denominator (see the module docstring): degree 0 is 0, degree 1 is L,
    min, max and the residuum (L when p <= q, else q) compare integers, and
    involutive negation is L - x.  ``concept_values`` first raises L to
    take in the denominators of the concept's constants, dropping the memo
    if L grows, and maps the integers back to the model's degree objects.

    ``exists R . C`` and ``forall R . C`` push the vector of C through R as
    written, using the Goedel identities

    * ``Q (R ; S) . C`` = ``Q R . Q S . C`` for both quantifiers;
    * ``exists (R | S) . C`` = max, ``forall (R | S) . C`` = min;
    * ``exists D? . C`` = ``D and C``, ``forall D? . C`` = ``D -> C``;
    * ``exists R* . C`` is the least solution of ``v = max(C, exists R . v)``
      and ``forall R* . C`` the greatest of ``v = min(C, forall R . v)``;

    and, below an inverse, the paper's converses (R ; S)- = S- ; R-,
    (R | S)- = R- | S-, (R*)- = (R-)*, (D?)- = D? and U- = U.  A role name
    moves each entry to the element's predecessors, or to its successors
    below an odd number of inverses, so the work follows the edges and no
    n x n role is built.  The concept memo is confined to the instance, so
    results are deterministic and identical to un-memoized evaluation.
    """

    def __init__(self, interp: Interpretation):
        self.interp = interp
        found = degree_objects(interp)
        top, of = _scaled(found)
        self._scale = _Scale(top, of, ((of[key], d) for key, d in found.items()))
        self._concepts: Dict[s.Concept, Tuple[int, ...]] = {}

    def concept_values(self, c: s.Concept) -> Tuple[Fraction, ...]:
        """The degree of every element in ``c``, graded once L is a
        multiple of the denominator of each of its constants.  The walk
        skips subconcepts in the memo: they were graded on the present L."""
        top, stack = self._scale.top, [c]
        while stack:
            e = stack.pop()
            if isinstance(e, s.Constant):
                top = lcm(top, e.value.denominator)
            elif isinstance(e, s._Node) and e not in self._concepts:
                stack.extend(s.children(e))
        if top != self._scale.top:
            self._scale = self._scale.grown(top)
            self._concepts.clear()
        return tuple(map(self._scale.__getitem__, self._values(c)))

    def _values(self, c: s.Concept) -> Tuple[int, ...]:
        cached = self._concepts.get(c)
        if cached is None:
            cached = self._concepts[c] = self._eval_concept(c)
        return cached

    def _ints(self, degrees: Sequence[Fraction]) -> Tuple[int, ...]:
        """The integers of a row of the model's own degree objects."""
        return tuple(map(self._scale.of.__getitem__, map(id, degrees)))

    def _eval_concept(self, c: s.Concept) -> Tuple[int, ...]:
        interp, top = self.interp, self._scale.top
        n = len(interp.domain)
        if isinstance(c, s.Constant):
            return (c.value.numerator * (top // c.value.denominator),) * n
        if isinstance(c, s.ConceptName):
            return self._ints(interp.concept_row(c.name))
        if isinstance(c, s.Nominal):
            j = interp.index(interp.individual(c.individual))
            return tuple(top if i == j else 0 for i in range(n))
        if isinstance(c, s.Not):
            return tuple(0 if v else top for v in self._values(c.concept))
        if isinstance(c, s.InvNeg):
            return tuple(top - v for v in self._values(c.concept))
        if isinstance(c, s.Delta):
            return tuple(top if v == top else 0 for v in self._values(c.concept))
        if isinstance(c, s.And):
            return tuple(map(min, self._values(c.left), self._values(c.right)))
        if isinstance(c, s.Or):
            return tuple(map(max, self._values(c.left), self._values(c.right)))
        if isinstance(c, s.Implies):
            left, right = self._values(c.left), self._values(c.right)
            return tuple(top if p <= q else q for p, q in zip(left, right))
        if isinstance(c, (s.Exists, s.Forall)):
            quantifier = _EXISTS if isinstance(c, s.Exists) else (
                top, lambda d, x: top if d <= x else x, operator.lt, operator.pos)
            neutral = quantifier[0]
            vector = {b: v for b, v in enumerate(self._values(c.filler)) if v != neutral}
            pushed = self._push(c.role, vector, quantifier)
            return tuple(pushed.get(a, neutral) for a in range(n))
        if isinstance(c, s.SelfLoop):
            return self._ints(interp.self_degrees(c.role_name))
        if isinstance(c, (s.AtLeast, s.Less)):
            filler = self._values(c.filler)
            graded = [[min(d, filler[b]) for b, d in row] for row in self._basic(c.role)]
        elif isinstance(c, (s.AtLeastUnq, s.LessUnq)):
            graded = [[d for _b, d in row] for row in self._basic(c.role)]
        else:
            raise ModelError(f"not a concept: {c!r}")
        if isinstance(c, (s.AtLeast, s.AtLeastUnq)):
            # the n-th largest, counting multiplicity; 0 if fewer than n
            return tuple(sorted(row)[-c.n] if len(row) >= c.n else 0 for row in graded)
        return tuple(top if sum(1 for v in row if v) < c.n else 0 for row in graded)

    def _basic(self, role: s.Role, forward: bool = True):
        """Integer successor lists of a basic role, or predecessor lists
        when not ``forward``."""
        if isinstance(role, s.Inverse):
            role, forward = role.role, not forward
        edges, key = self._scale.edges, (role.name, forward)
        if key not in edges:
            of, succ = self._scale.of, self.interp.successors(role.name)
            if forward:
                edges[key] = [[(j, of[id(d)]) for j, d in row] for row in succ]
            else:
                pred = edges[key] = [[] for _ in succ]
                for i, row in enumerate(succ):
                    for j, d in row:
                        pred[j].append((i, of[id(d)]))
        return edges[key]

    def _push(self, r: s.Role, vector: Dict[int, int], quantifier, forward=True) -> Dict[int, int]:
        """``Q r . v``, or ``Q r- . v`` when not ``forward``, where ``vector``
        and the result hold the entries of v and of the answer that differ
        from Q's neutral value."""
        if not vector:
            return vector
        neutral, edge, better, key = quantifier
        if isinstance(r, s.RoleName):
            out: Dict[int, int] = {}
            sources = self._basic(r, forward=not forward)
            for b, x in vector.items():
                for a, d in sources[b]:
                    v = edge(d, x)
                    if better(v, out.get(a, neutral)):
                        out[a] = v
            return out
        if isinstance(r, s.Inverse):
            return self._push(r.role, vector, quantifier, not forward)
        if isinstance(r, s.Compose):
            first, then = (r.right, r.left) if forward else (r.left, r.right)
            pushed = self._push(first, vector, quantifier, forward)
            return self._push(then, pushed, quantifier, forward)
        if isinstance(r, s.RoleUnion):
            out = self._push(r.left, vector, quantifier, forward)
            for a, v in self._push(r.right, vector, quantifier, forward).items():
                if better(v, out.get(a, neutral)):
                    out[a] = v
            return out
        if isinstance(r, s.Test):
            values = self._values(r.concept)
            out = {}
            for a, x in vector.items():
                v = edge(values[a], x)
                if better(v, neutral):
                    out[a] = v
            return out
        if isinstance(r, s.Universal):
            best = min(vector.values(), key=key)
            return dict.fromkeys(range(len(self.interp.domain)), best)
        if isinstance(r, s.Star):
            return self._star(r.role, vector, quantifier, forward)
        raise ModelError(f"not a role: {r!r}")

    def _star(self, r: s.Role, vector: Dict[int, int], quantifier, forward) -> Dict[int, int]:
        """``Q r* . v``, or ``Q (r-)* . v`` when not ``forward``: a
        widest-path search that settles the elements in order of value, best
        first, and pushes each group of equal values through ``r`` once.  A
        push never yields a value better than its input, so a settled value
        is final."""
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
            for a, v in self._push(r, group, quantifier, forward).items():
                if better(v, result.get(a, neutral)):
                    result[a] = v
                    heapq.heappush(heap, (key(v), a))
        return result


def eval_concept(interp: Interpretation, c: s.Concept) -> FuzzySet:
    """Grade every domain element by ``c`` under the Goedel semantics."""
    values = ConceptEvaluator(interp).concept_values(c)
    return FuzzySet(interp.domain, values)


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
    and 1, keyed by ``id``: the union of their degree tables.

    Hashing a Fraction is slow, and a loaded model shares one object per
    degree text (its document's :class:`fdl.godel.DegreeTexts` reads each
    text once), so callers tell degrees apart by identity first and hash
    each distinct object once.  A model keeps its table from construction:
    its document's degree texts and every degree given as another value,
    or, for :meth:`Interpretation._of_parts`, the objects of its parts.
    """
    found: Dict[int, Fraction] = {}
    for interp in interps:
        found.update(interp._degrees)
    return found


def _scaled(found: Mapping[int, Fraction]) -> Tuple[int, Dict[int, int]]:
    """L, the common denominator of ``found`` (degrees by ``id``), and each one's integer over L."""
    top = lcm(*(d.denominator for d in found.values()))
    return top, {key: d.numerator * (top // d.denominator) for key, d in found.items()}


def degree_ranks(*interps: Interpretation, extra=()) -> Tuple[Tuple[Fraction, ...], Dict[int, int]]:
    """Every degree occurring in the given interpretations, plus 0, 1 and
    ``extra``, in increasing order, and each degree object's rank (place in
    that order) by ``id``: the rank alphabet of :class:`fdl.bisim._Context`,
    which :mod:`fdl.refinement` reads too, closed under the Goedel connectives other than
    involutive negation, which select among their inputs or return 1.  The
    degrees are ranked as integers over their common denominator, so no
    ``Fraction`` is compared or hashed, and ``"0.5"`` and ``"1/2"`` share a
    rank."""
    found = degree_objects(*interps)
    for v in extra:
        found[id(v)] = v
    of = _scaled(found)[1]
    position = {v: k for k, v in enumerate(sorted(set(of.values())))}
    rank = {key: position[v] for key, v in of.items()}
    # the first object of each value stands for it: 0 and 1 come first
    universe = {rank[key]: d for key, d in reversed(found.items())}
    return tuple([universe[k] for k in range(len(universe))]), rank


def degree_universe(*interps: Interpretation) -> Tuple[Fraction, ...]:
    """The degrees of :func:`degree_ranks`, in increasing order."""
    return degree_ranks(*interps)[0]
