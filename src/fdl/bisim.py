"""The bisimulation conditions: checking them, and the brute-force oracle.

A candidate relation Z between the domains of two interpretations is a
bisimulation when it satisfies, for the enabled features, the conditions

* FB2   atomic agreement: Z(x,x') is below the Goedel equivalence of every
        concept-name degree at x and x'
* FB3 / FB4   forth and back over every basic role
* FB5   named individuals match (feature O)
* FB6(n) / FB7(n)   counting forth and back over n-subsets of positive
        successors (feature Qn)
* FB6n(n) / FB7n(n)   the unqualified counting variants (feature Nn)
* FB8 / FB9   forth and back for the universal role (feature U)
* FB10  self-loop agreement (feature Self)

A crisp bisimulation is the {0,1}-valued special case of the same
conditions.

The conditions are written down once, as a table: at a pair (x, x') every
condition instance is a row ``(code, name, witness, strength, rhs)`` that
reads ``min(Z(x,x'), strength) <= rhs``, where ``strength`` is a degree of
the models (1 for FB2, FB5, FB8, FB9 and FB10) and ``rhs`` is monotone in
Z.  :func:`check_bisim` reports the rows with ``min(Z(x,x'), strength) >
rhs``.  By residuation ``Z(x,x') <= strength -> rhs``, so the per-pair
ceiling, the minimum of ``strength -> rhs`` over the rows, is exact:
:func:`brute_force_greatest` prunes its search with the ceiling of the
static rows.  Rows with ``strength <= rhs`` can neither fail nor lower
the ceiling and are left out of the table.  At each pair the scores
min(Z, degree) between two successor sets are computed once per basic role
and direction, and FB3, FB4, FB6, FB7, FB6n and FB7n all read them.

All ceilings are built from entries of Z and the two models via min, max,
n-th-largest and the Goedel residuum, which only ever select among their
inputs or return 1, so the tables can hold ranks instead of degrees.  Rank
k is the k-th smallest degree of the universe, so rank 0 is degree 0 and
the top rank is degree 1, and the operations above act on ranks exactly as
on the degrees they stand for.  :func:`fdl.interp.degree_ranks` ranks the
degrees of the two models, plus the values of a candidate relation when a
caller supplies one, as integers.  Ranks turn back into ``Fraction`` degrees
only at the API edge: in :class:`Violation` and in the :class:`FuzzyRelation`
that every result and candidate is.  The tables are built once, by
:class:`_Context`, over the disjoint union of the two models, and
:mod:`fdl.refinement` reads the same object: it computes the greatest
bisimulation from this table as nested partitions whose levels are ranks,
in the degree universe of the two models.

FB6(n) and FB7(n) range over the n-subsets of a successor set.  When the
bounds n cover every size from 1 to the size k of that set, as ``Q*``
always does, they are Hall's condition at each level v: the successors of
degree >= v must be matched to distinct successors on the other side, each
of degree >= v and related by Z >= v to its partner.  A matching by
augmenting paths decides each level that occurs, lowest first, and the
first level that fails yields one row ``FB6(|S|)`` (or ``FB7``) whose
witness S is the Hall violator the failed search reached, whose strength
is the least degree in S, and whose rhs is the level just below (or 0).
That rhs is the |S|-th largest score of S, and no failing subset has a
smaller one, so the ceiling and the verdict are those of the enumeration;
:func:`check_bisim` reports this one subset instead of every failing one.

Bounds with a gap below k, such as ``Q2`` or ``Q1,Q2,Q16``, are not a
matching problem, and their n-subsets are enumerated, which is exponential
in k.  Before enumerating, the subsets over all bounds n are counted, and
more than ``SUBSET_BUDGET`` of them raise :class:`BudgetError`.  Only
this table enumerates, for :func:`check_bisim` and
:func:`brute_force_greatest`.  :mod:`fdl.refinement` does not read it: it
compares two elements' successor counts over unions of target blocks by a
walk over the blocks, which needs no budget.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, product
from math import comb
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import BudgetError, InputError, ModelError, listed, quoted
from .godel import ZERO, format_degree
from .interp import Interpretation, degree_ranks
from .relations import FuzzyRelation
from .syntax import FeatureSet, _Record, check_mode

# Most n-subsets that FB6(n)/FB7(n) may enumerate for one successor set,
# summed over the enabled bounds n.  Out-degree 14 under Q2..Q14 (16369
# subsets) fits, and out-degree 15 does not.  Sides of at most m successors
# under bounds that start Q1..Qm, and every side under Q*, are matched, not
# enumerated.
SUBSET_BUDGET = 2**14

# Most candidate relations that brute_force_greatest may enumerate.
BRUTE_FORCE_BUDGET = 2_000_000


class Violation(_Record):
    """A condition that fails at the pair (x, x_prime): on a role or a
    concept name (``symbol``), through the ``witness`` elements, because
    its ``lhs`` degree exceeds its ``rhs``."""

    __slots__ = ("condition", "x", "x_prime", "role", "symbol", "witness", "lhs", "rhs")
    _defaults = {"role": None, "symbol": None, "witness": None, "lhs": ZERO, "rhs": ZERO}

    def describe(self) -> str:
        parts = [f"{self.condition} fails at ({self.x}, {self.x_prime})"]
        if self.role is not None:
            parts.append(f"role {self.role}")
        if self.symbol is not None:
            parts.append(f"name {self.symbol}")
        if self.witness:
            parts.append("via " + ", ".join(self.witness))
        parts.append(f"{format_degree(self.lhs)} > {format_degree(self.rhs)}")
        return "; ".join(parts)


class ConditionReport(_Record):
    """Whether a candidate relation is a bisimulation, and a tuple of the
    violations that say why not."""

    __slots__ = ("satisfied", "violations")


# ---------------------------------------------------------------------------
# relation documents


def load_relation(document, rows: Sequence[str], cols: Sequence[str]) -> FuzzyRelation:
    """Read ``{"mode": "fuzzy", "entries": [["u", "u'", "0.8"], ...]}``; a
    mode other than fuzzy or crisp, or a crisp one with an entry strictly
    between 0 and 1, is an :class:`InputError`."""
    if not isinstance(document, dict):
        raise InputError("a relation document must be a JSON object")
    unknown = set(document) - {"mode", "entries"}
    if unknown:
        raise InputError(f"unknown relation document keys: {listed(unknown)}")
    relation = FuzzyRelation.from_entries(rows, cols, document.get("entries", []))
    mode = document.get("mode", "fuzzy")
    check_mode(mode)
    if mode == "crisp" and not relation.is_crisp():
        raise InputError("a crisp candidate relation must have entries in {0, 1}")
    return relation


def dump_relation(relation: FuzzyRelation, mode: str) -> dict:
    """The relation document of ``relation`` in ``mode``: its pairs of
    nonzero degree in row-major document order, each degree object
    formatted once."""
    texts: dict = {}
    entries = []
    for x, y, v in relation.nonzero():
        text = texts.get(id(v))
        if text is None:
            text = texts[id(v)] = format_degree(v)
        entries.append([x, y, text])
    return {"mode": mode, "entries": entries}


# ---------------------------------------------------------------------------
# rank tables


class _Context:
    """The rank tables of two models and a feature set over their disjoint
    union: A's elements, then B's from ``offset`` on (one copy and offset 0
    when ``ib is ia``).  The condition table and :mod:`fdl.refinement` read
    them.  ``extra`` adds degrees of neither model, a candidate's, to the
    universe; ``rank`` maps the ``id`` of each degree object to its rank.

    ``edges`` holds per element its edges as ``(rank, label, successor)``,
    strongest first, label k being basic role ``labels[k]`` (r, then r-
    under I), and ``incoming`` those with an edge into it; ``concepts`` and
    ``self_loops`` (under Self) a column of ranks per concept or role name.
    """

    def __init__(self, ia: Interpretation, ib: Interpretation, features: FeatureSet, extra=()):
        models = (ia,) if ib is ia else (ia, ib)
        self.features = features
        self.dom_a, self.dom_b = ia.domain, ib.domain
        self.na, self.nb = len(ia.domain), len(ib.domain)
        n = sum([len(m.domain) for m in models])
        self.offset = offset = n - self.nb
        self.universe, self.rank = degree_ranks(*models, extra=extra)
        self.top, rank = len(self.universe) - 1, self.rank
        self.concepts = [(name, [rank[id(d)] for m in models for d in m.concept_row(name)])
                         for name in sorted(set(ia.concepts) | set(ib.concepts))]
        self.labels: List[str] = []
        self.self_loops: List[Tuple[str, List[int]]] = []
        self.edges: List[list] = [[] for _ in range(n)]
        self.incoming: List[List[int]] = [[] for _ in range(n)]
        edges, incoming = self.edges, self.incoming
        for name in sorted(set(ia.roles) | set(ib.roles)):
            label = len(self.labels)
            self.labels += [name, name + "-"] if features.inverse else [name]
            for m, start in zip(models, (0, offset)):
                for x, row in enumerate(m.roles.get(name, ()), start):
                    for j, d in row:
                        y, r = j + start, rank[id(d)]
                        edges[x].append((r, label, y))
                        incoming[y].append(x)
                        if features.inverse:
                            edges[y].append((r, label + 1, x))
                            incoming[x].append(y)
            if features.self_loops:
                self.self_loops.append(
                    (name, [rank[id(d)] for m in models for d in m.self_degrees(name)]))
        for row in edges:
            row.sort(reverse=True)
        # under O, (name, index of a^A, index of a^B) per individual name a
        self.individual_pairs = [
            (a, ia.index(ia.individuals[a]), ib.index(ib.individuals[a]))
            for a in _named_in_both(ia, ib)] if features.nominals else []
        # the Q and N bounds in increasing order up to the largest number of
        # edges of any element, as no element has n successors for an n beyond
        # it (unrestricted: every n up to it), and m, where the Q bounds start
        # with 1..m: FB6/FB7 over up to m successors is a matching
        cap = max(map(len, edges), default=0)
        self.q_bounds, self.n_bounds = (
            tuple([n for n in sorted(range(1, cap + 1) if bounds is None else bounds) if n <= cap])
            for bounds in (features.q_bounds, features.n_bounds))
        self.covered = next((m for m, k in enumerate(self.q_bounds) if k != m + 1),
                            len(self.q_bounds))

    @cached_property
    def basic(self) -> List[Tuple[str, List[List[Tuple[int, int]]]]]:
        """Per label, its name and each element's successors under it as
        ``(index in its own model, rank)`` in index order, read off
        ``edges`` on first use (the refinement never needs them)."""
        offset = self.offset
        return [(name, [sorted([(y - offset if y >= offset else y, r)
                                for r, of, y in row if of == k]) for row in self.edges])
                for k, name in enumerate(self.labels)]

    def relation(self, z: Sequence[Dict[int, int]]) -> FuzzyRelation:
        """The relation of ``z`` in ranks, one dict per row that lists its
        columns in ascending order, as both callers build them; rank 0 is
        degree 0, and its pairs are left out of the lines."""
        universe, lines = self.universe, []
        for row in z:
            ys = [j for j, r in row.items() if r]
            lines.append((ys, [universe[row[j]] for j in ys]))
        return FuzzyRelation(self.dom_a, self.dom_b, lines)


def _named_in_both(ia: Interpretation, ib: Interpretation) -> List[str]:
    """The individual names of the two models, sorted; a name interpreted
    in one model only is a ModelError."""
    missing = sorted(ia.individuals.keys() ^ ib.individuals.keys())
    if missing:
        raise ModelError(f"individual {quoted(missing[0])} is not interpreted in both models")
    return sorted(ia.individuals)


def _candidate_context(
    ia, ib, features, z: FuzzyRelation
) -> Tuple[_Context, List[Dict[int, int]]]:
    """The context for checking candidate ``z``, and ``z`` in ranks: per
    element of A, its line as a dict from the index of each element of B
    it relates to at a nonzero degree to that degree's rank, in column
    order."""
    if z.rows != ia.domain or z.cols != ib.domain:
        raise InputError("candidate relation is not indexed by the two domains")
    ctx = _Context(ia, ib, features, [v for _ys, ds in z.lines for v in ds])
    rank = ctx.rank
    return ctx, [dict(zip(ys, [rank[id(v)] for v in ds])) for ys, ds in z.lines]


# ---------------------------------------------------------------------------
# the table of conditions


def _static_rows(ctx: _Context, i: int, j: int):
    """The rows of pair (i, j) that do not read Z: FB2, FB5 and FB10."""
    top, x2 = ctx.top, ctx.offset + j
    for name, column in ctx.concepts:
        a, b = column[i], column[x2]
        if a != b:
            yield "FB2", name, None, top, a if a < b else b
    for name, xa, xb in ctx.individual_pairs:
        if (i == xa) != (j == xb):
            yield "FB5", name, None, top, 0
    for name, column in ctx.self_loops:
        a, b = column[i], column[x2]
        if a != b:
            yield "FB10", name, None, top, a if a < b else b


def _universal_rows(ctx: _Context, z) -> tuple:
    """The FB8 and FB9 rows, which are the same at every pair: one per row
    or column of Z whose maximum is below 1.  Empty without feature U."""
    if not ctx.features.universal:
        return ()
    row_max, col_max = [0] * ctx.na, [0] * ctx.nb
    for i, row in enumerate(z):
        for j, r in row.items():
            row_max[i], col_max[j] = max(row_max[i], r), max(col_max[j], r)
    top = ctx.top
    return tuple(
        (code, None, (dom[y],), top, best)
        for code, dom, maxima in (("FB8", ctx.dom_a, row_max), ("FB9", ctx.dom_b, col_max))
        for y, best in enumerate(maxima)
        if best < top
    )


def _augment(u: int, adj, match: dict) -> Optional[List[int]]:
    """Grow ``match`` (right vertex -> left vertex) by an augmenting path
    from the unmatched left vertex ``u``, found breadth first.  If there is
    none, return the left vertices that alternating paths reach from ``u``:
    each of their neighbours is matched to another of them, so they
    outnumber their neighbours."""
    parent = {}  # right vertex -> the left vertex it was reached from
    mate = {}  # reached left vertex -> its matched right vertex
    reached = [u]
    for a in reached:
        for b in adj[a]:
            if b in parent:
                continue
            parent[b] = a
            if b not in match:
                while True:
                    a = parent[b]
                    match[b] = a
                    if a == u:
                        return None
                    b = mate[a]
            mate[match[b]] = b
            reached.append(match[b])
    return reached


def _hall_row(side) -> Optional[Tuple[Tuple[str, ...], int, int]]:
    """The FB6/FB7 row ``(witness, strength, rhs)`` of one role and
    direction whose bounds cover every subset size, or None if it holds.

    ``side`` lists one side's successors as ``(degree, name, scores)``, as
    in :func:`_relational_rows`.  At level v, successor a is on the left if
    its degree is >= v and joined to each other-side successor it scores
    >= v on; the module docstring explains the row.
    """
    levels = sorted({d for d, _x, _s in side}.union(*[s for _d, _x, s in side]) - {0})
    below = 0
    match: dict = {}  # other-side successor -> successor matched to it
    for v in levels:
        adj = {a: [b for b, s in enumerate(row) if s >= v]
               for a, (d, _x, row) in enumerate(side) if d >= v}
        if not adj:
            break
        # what is left of the lower level's matching is a matching here
        match = {b: a for b, a in match.items() if a in adj and side[a][2][b] >= v}
        for a in sorted(set(adj).difference(match.values())):
            violator = _augment(a, adj, match)
            if violator is not None:
                members = sorted(violator)
                return (
                    tuple([side[m][1] for m in members]),
                    min([side[m][0] for m in members]),
                    below,
                )
        below = v
    return None


def _relational_rows(ctx: _Context, z, i: int, j: int, universal: tuple):
    """The rows of pair (i, j) that read Z: FB3, FB4 and FB6 to FB9, with
    ``universal`` the FB8/FB9 rows from :func:`_universal_rows`.

    One pass over the basic roles computes the scores once per role and
    direction: each successor becomes ``(degree, name, scores)``, its
    scores being min(Z, other side's degree) against the other side's
    successors.  FB3/FB4 fail where the best score is below the degree,
    FB6/FB7 match or enumerate these lists, and FB6n/FB7n read their
    sorted degrees.
    """
    dom_a, dom_b = ctx.dom_a, ctx.dom_b
    sides = []  # (FB6 or FB7, role, list) per role and direction
    x2 = ctx.offset + j
    for label, succ in ctx.basic:
        sa, sb = succ[i], succ[x2]
        forth = [(d, dom_a[y], [min(z[y].get(y2, 0), e) for y2, e in sb]) for y, d in sa]
        back = [(e, dom_b[y2], [min(z[y].get(y2, 0), d) for y, d in sa]) for y2, e in sb]
        for code, side in (("FB3", forth), ("FB4", back)):
            for d, x, scores in side:
                best = max(scores, default=0)
                if best < d:
                    yield code, label, (x,), d, best
        sides += [("FB6", label, forth), ("FB7", label, back)]
    yield from universal
    if ctx.q_bounds:
        # sides within the covered sizes are matched, the rest enumerated
        matched, enumerated = [], []
        for code, label, side in sides:
            if len(side) <= ctx.covered:
                matched.append((code, label, side))
            else:
                needed = sum([comb(len(side), n) for n in ctx.q_bounds])
                if needed > SUBSET_BUDGET:
                    raise BudgetError(f"qualified counting over {len(side)} successors needs "
                                      f"{needed} subsets (budget {SUBSET_BUDGET})")
                enumerated.append((code, label, side))
        for code, label, side in matched:
            row = _hall_row(side)
            if row is not None:
                witness, strength, got = row
                yield f"{code}({len(witness)})", label, witness, strength, got
        for n in ctx.q_bounds:
            for code, label, side in enumerated:
                for subset in combinations(side, n):
                    strength = min([d for d, _x, _s in subset])
                    scores = sorted(
                        map(max, zip(*[s for _d, _x, s in subset])), reverse=True
                    )
                    got = scores[n - 1] if len(scores) >= n else 0
                    if strength > got:
                        witness = tuple([x for _d, x, _s in subset])
                        yield f"{code}({n})", label, witness, strength, got
    if ctx.n_bounds:
        # per side, its degrees strongest first; side m ^ 1 is the other direction
        levels = [sorted([d for d, _x, _s in side], reverse=True) for _c, _l, side in sides]
        for n in ctx.n_bounds:
            for m, (code, label, _side) in enumerate(sides):
                # only the n strongest successors bind
                mine, other = levels[m], levels[m ^ 1]
                if len(mine) >= n:
                    got = other[n - 1] if len(other) >= n else 0
                    if mine[n - 1] > got:
                        yield f"{code}n({n})", label, None, mine[n - 1], got


def _rows(ctx: _Context, z, i: int, j: int, universal: tuple):
    """Every row of pair (i, j) under ``z`` in ranks with strength > rhs.

    A row ``(code, name, witness, strength, rhs)`` holds when
    ``min(Z(i,j), strength) <= rhs``.  ``name`` is the concept, individual
    or role name for FB2, FB5 and FB10, the role for FB3, FB4, FB6 and FB7,
    and None for FB8 and FB9.  The order is the report order of
    :func:`check_bisim`.
    """
    yield from _static_rows(ctx, i, j)
    yield from _relational_rows(ctx, z, i, j, universal)


def _ceiling(rows, bound: int) -> int:
    """min of ``bound`` and ``strength -> rhs`` over ``rows``, whose rows all
    have strength > rhs and so contribute their rhs."""
    for row in rows:
        if row[4] < bound:
            bound = row[4]
            if bound == 0:
                break
    return bound


_SYMBOL_CODES = ("FB2", "FB5", "FB10")


def _violations(ctx: _Context, z) -> Iterator[Violation]:
    """Yield every broken condition of ``z`` in ranks, pair by pair: each
    row's entries in column order, skipping those of rank 0."""
    universe, dom_b = ctx.universe, ctx.dom_b
    universal = _universal_rows(ctx, z)
    for i, x in enumerate(ctx.dom_a):
        for j, val in z[i].items():
            if val == 0:
                continue
            for code, name, witness, strength, rhs in _rows(ctx, z, i, j, universal):
                lhs = val if val < strength else strength
                if lhs > rhs:
                    symbol = code in _SYMBOL_CODES
                    yield Violation(
                        code, x, dom_b[j],
                        role=None if symbol else name,
                        symbol=name if symbol else None,
                        witness=witness, lhs=universe[lhs], rhs=universe[rhs],
                    )


def check_bisim(
    ia: Interpretation,
    ib: Interpretation,
    z: FuzzyRelation,
    features: FeatureSet,
) -> ConditionReport:
    """Exhaustively check the bisimulation conditions for candidate ``z``.

    Only the lines of ``z`` are read, as a pair of degree 0 breaks no
    condition.  Crisp candidates run the identical checks.
    """
    ctx, z_ranks = _candidate_context(ia, ib, features, z)
    found = tuple(_violations(ctx, z_ranks))
    return ConditionReport(satisfied=not found, violations=found)


# ---------------------------------------------------------------------------
# brute-force oracle


def brute_force_greatest(
    ia: Interpretation,
    ib: Interpretation,
    features: FeatureSet,
    mode: str = "fuzzy",
) -> FuzzyRelation:
    """Greatest bisimulation by enumeration, independent of the refinement.

    Enumerates every assignment of degree-universe values to pairs (pruned
    only by the pointwise static ceilings, which every bisimulation must
    respect), keeps the assignments that satisfy all conditions, and
    returns their pointwise supremum.  The supremum of finitely many
    bisimulations is again one, and the entries of the true greatest lie in
    the degree universe, so this is exact.  Guarded by
    ``BRUTE_FORCE_BUDGET``.
    """
    check_mode(mode)
    ctx = _Context(ia, ib, features)
    na, nb, top = ctx.na, ctx.nb, ctx.top
    if na * nb > 16:
        raise BudgetError(
            f"brute-force search over {na * nb} pairs is out of budget (max 16)"
        )
    pairs = [(i, j) for i in range(na) for j in range(nb)]
    choices: List[Sequence[int]] = []
    total = 1
    for i, j in pairs:
        ceiling = _ceiling(_static_rows(ctx, i, j), top)
        if mode == "crisp":
            allowed: Sequence[int] = (0, top) if ceiling == top else (0,)
        else:
            allowed = range(ceiling + 1)
        choices.append(allowed)
        total *= len(allowed)
        if total > BRUTE_FORCE_BUDGET:
            raise BudgetError(
                f"brute-force search needs more than {BRUTE_FORCE_BUDGET} candidates"
            )
    best = [dict.fromkeys(range(nb), 0) for _ in range(na)]
    z = [dict.fromkeys(range(nb), 0) for _ in range(na)]
    for values in product(*choices):
        for (i, j), v in zip(pairs, values):
            z[i][j] = v
        if next(_violations(ctx, z), None) is None:
            for i, j in pairs:
                best[i][j] = max(best[i][j], z[i][j])
    return ctx.relation(best)
