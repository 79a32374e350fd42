"""Greatest bisimulations by nested partition refinement.

**The union.**  The greatest bisimulation between models A and B is read
off the greatest auto-bisimulation of their disjoint union A ⊎ B, whose
elements are A's followed by B's (a model compared with itself is not
doubled).  Without U, every row that :mod:`fdl.bisim`'s condition table
has at a pair reads only the successors of its two elements and the
entries of Z between them, and a successor of an element of A lies in A.
So a bisimulation between A and B, its inverse and the identity are all
auto-bisimulations of A ⊎ B, and the A × B part of an auto-bisimulation
of A ⊎ B is a bisimulation between A and B: the two greatest ones agree on
A × B.  Under O an individual name a is a crisp label on a^A and a^B: FB5
at (x, x') asks x = a^A iff x' = a^B, which is FB2 of a concept that holds
to degree 1 at a^A and a^B only.  The union is never built as a model: the
refinement reads the rank tables of :class:`fdl.bisim._Context`, which are
laid out over the union, as the condition checker does.

**Levels.**  Under the Goedel semantics the greatest fuzzy
auto-bisimulation Z is reflexive, symmetric and min-transitive (Nguyen &
Tran, *Computing fuzzy bisimulations for fuzzy structures under the
Goedel semantics*, IEEE TFS 2021).  So for each rank v from 1 to top the
cut E_v = {Z >= v} is an equivalence, E_v lies inside E_(v-1), and Z(x, x')
is the highest v with x E_v x'.  A row ``min(Z(x,x'), strength) <= rhs``
holds at a pair with Z(x, x') >= v exactly when min(strength, v) <= rhs;
write w = min(strength, v).

* FB2 and FB10 compare two degrees a and b, and FB6n(n)/FB7n(n) the n-th
  largest successor degrees (0 with fewer than n successors): the row
  holds when min(a, v) = min(b, v).  That is equality of the degrees
  clamped at v: a degree below v is kept, and one >= v reads as the top.
  Whether an element has n successors does not depend on v.
* FB3, for a successor y of x of degree d, asks x' for a successor y' of
  degree >= w with y E_w y'.  For d < v, w = d is a lower level, and the
  row holds already when x and x' share a block of level v - 1 (see
  nesting below).  For d >= v it asks, per basic role, that the level-v
  blocks reached by edges of degree >= v be the same from x and x'.  FB4
  is FB3 from x'.
* With Q bounds 1..m (``Q*``: every m), FB6(n) and FB7(n) for sets S of
  successors of degree >= v, |S| = n, ask x' for n successors of degree
  >= v in the level-v blocks of S.  With S inside one block B this makes
  min(m, number of successors of degree >= v in B) agree for x and x';
  summing over blocks, that covers every S.  Sets whose least degree is
  below v are rows of a lower level.
* FB8 and FB9 (U) are left to the cap below.

So level v keys each element by its static ranks clamped at v (concept
and self degrees, n-th largest successor degrees) and, per basic role and
target block, the number of its successors there of degree >= v, up to m
when the Q bounds start with 1..m and up to 1 otherwise, and by the least
sets of the bounds above m (below); names and the number of N bounds an
element's successor count meets are compared exactly.

**Nesting.**  Level v starts from the partition of level v - 1 and splits
blocks until every block's members share the level-v key.  A split never
parts a pair of E_v: by induction E_v lies inside the partition being
refined, and E_v-related elements have the same key over any partition
that E_v refines.  When no block splits, let Z' give each pair the highest
level at which it shares a block.  At a pair of level v, a row of strength
>= v holds by the level-v key, and a row of strength w < v by the level-w
key, whose blocks contain those of level v.  So Z' is a bisimulation, it
lies above Z, and Z' = Z.  The key of an element changes from level v - 1
to level v only if it has a static rank or an edge of rank exactly v - 1,
so level v keys those elements first and then, as each split moves
elements, only those with an edge into what moved; the largest part of a
split keeps the block.  An element not keyed still has the key its
block last shared, so a block whose keyed members share that key, or one
key and are all of it, has one key and is left whole.

**Crisp mode** is one level, the top, where every row must hold as it
is.  With Z the indicator of a partition, FB2, FB10 and FB6n/FB7n ask for
equal degrees.  FB3 asks each successor y of x, of degree d, for a
successor of x' in y's block of degree >= d: per basic role and block, the
suprema of the two elements' successor degrees there agree.  Under Q1..Qm,
FB6(n) and FB7(n) ask at each degree v, as above, for equal min(m, number
of successors of degree >= v) per block, which is equality of the m
largest successor degrees per block (``Q*``: the whole sorted list); the
largest is the supremum, so FB3 and FB4 are covered too.

**Q bounds with a gap** (``Q2``, ``Q1,Q3``): a bound n above the prefix
1..m gives no per-block count.  At level v, let P_x(T) say that x has at
least n successors of degree >= v, under one basic role, in the union T
of some level-v blocks.  FB6(n) at (x, x') over sets S of degree >= v
holds exactly when P_x(T) implies P_x'(T) for every T: given S, take T =
the blocks of S; given T with P_x(T), take n such successors as S, whose
blocks lie inside T.  FB7(n) is the converse, so together they ask P_x =
P_x'; rows of lower strength are lower levels.  P_x holds on every
superset of a set it holds on, so it is fixed by its least sets: with
c(B) the number of x's successors of degree >= v in block B, T is least
when sum_T c >= n > sum_T c - min_T c, as dropping the block of fewest
successors loses the least.  Such a T has no block with c(B) = 0, at
least as many blocks as the fullest blocks need to hold n, and at most
n; the subsets of those sizes are counted before they are listed, and
more than ``SUBSET_BUDGET`` raise :class:`BudgetError`.  So level v keys
x also by its least sets per role and bound, over the partition being
refined, and they change only when a block of x's successors moves.

In crisp mode the row of a set S with least degree d holds when x' has n
successors of degree >= d in the blocks of S, so FB6(n) and FB7(n) ask
P_x = P_x' with the successors of degree >= d, for every d.  Let f_x(T) be
the n-th strongest degree of x's successors in T (0 with fewer); P_x at d
holds at T exactly when f_x(T) >= d, so this asks f_x = f_x'.  f_x only
grows with T, and it is fixed by the pairs (T, f_x(T)) where every proper
subset of T has a weaker f_x: for any T, a least T' inside T with f_x(T')
>= f_x(T) is such a pair, with f_x(T') = f_x(T).  Those T are the least
sets at degree f_x(T), so they have the sizes above, counted at the
weakest degree, and the key lists them once with their f_x.  In fuzzy
mode every counted successor reads as v, and the pairs are the least sets
of level v.

**U.**  Let Z be the greatest bisimulation without U and c the least of
the row and column maxima of its A × B part.  min(Z, c) is a bisimulation
with U: each of its row and column maxima is c, a row that reads Z has
its rhs capped at c too when every entry is, and a row that does not read
Z only gets easier.  Every bisimulation with U lies below Z, and each of
its entries lies below each of its row and column maxima, hence below c.
So the greatest bisimulation with U is min(Z, c); in crisp mode c < 1
empties the relation.

**Read-out.**  The refinement leaves the final blocks, the splits in
order and the level marks, O(n + splits) in all, and the result is the
:class:`FuzzyRelation` read off them, one line per element of A.  A pair
gets the highest level at which it shares a block.  Undoing the splits of
each level in reverse, top level first, down to level 2, merges two blocks
at a time; the pairs across a merge of level v's splits get v - 1, each
pair once, and the blocks left at the end, those of level 1, hold exactly
the pairs of nonzero degree.  So an element's line is the elements of B in
its level-1 block, in document order, filling it costs its length, and no
n_a × n_b matrix is built.  Under U, an element's row or column maximum is
the highest level at which its block holds an element of the other model,
so c is the highest level whose blocks all hold elements of both, found by
the same merges.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from itertools import combinations
from typing import Dict, Iterator, List, Set, Tuple

from .bisim import _Context, _named_in_both, _subset_budget
from .errors import ModelError
from .godel import ONE
from .interp import Interpretation
from .relations import FuzzyRelation
from .syntax import FeatureSet, _Record, check_mode


class _LeastSets:
    """The part of a key that gapped Q bounds add: the least sets of
    ``found``, an element's successors per (role, block) (fuzzy: counted;
    crisp: their degrees), listed by ``least`` only when compared with an
    element whose ``found`` differs, as equal ``found`` give equal least
    sets.  It comes last in the key and hashes to a constant, so only keys
    that agree on everything else compare it."""

    def __init__(self, found, least):
        self.found, self.least = found, least

    def __hash__(self) -> int:
        return 0

    def __eq__(self, other) -> bool:
        return self.found == other.found or self.sets == other.sets

    @cached_property
    def sets(self) -> frozenset:
        return self.least(self.found)


class _Refinement:
    """The nested partitions of the greatest bisimulation of ``ia`` and
    ``ib`` without U, refined on their disjoint union (module docstring).
    ``ctx`` is the :class:`fdl.bisim._Context` of the two models, whose
    edges and columns over the union it reads; it keeps its own part: the
    static ranks with the N degrees, what is compared exactly, the
    elements to key at each rank, and the partition.

    Fuzzy mode refines one partition per level 1..top, each from the one
    below; crisp mode has the one level top.  ``block`` holds the last
    partition, ``splits`` every split as ``(new block, block it left)`` in
    order, and ``marks`` the number of splits at the end of each level.
    """

    def __init__(self, ia: Interpretation, ib: Interpretation, features: FeatureSet,
                 crisp: bool):
        self.ctx = ctx = _Context(ia, ib, features)
        self.crisp, n, top = crisp, len(ctx.edges), ctx.top
        # per target block, the key counts successors (crisp: keeps degrees)
        # up to this many: m under a covered prefix Q1..Qm, else 1; the
        # bounds above the prefix key the least sets of blocks
        self.width = ctx.covered or 1
        self.gapped = ctx.q_bounds[ctx.covered:]
        # per element: ranks compared clamped at the level (concept and self
        # degrees; per role, its n-th largest successor degree for each N
        # bound n it meets) and what is compared exactly (its names; per
        # role, how many N bounds it meets)
        columns = [column for _name, column in ctx.concepts + ctx.self_loops]
        self.static = static = list(zip(*columns)) or [()] * n
        exact: List[list] = [[] for _ in range(n)]
        for name, xa, xb in ctx.individual_pairs:
            for x in {xa, ctx.offset + xb}:  # one element when the models are one
                exact[x].append(name)
        n_bounds = ctx.n_bounds
        for x, row in enumerate(ctx.edges if n_bounds else ()):
            for role in range(len(ctx.labels)):
                degrees = [d for d, of, _y in row if of == role]
                met = n_bounds[:bisect_right(n_bounds, len(degrees))]
                exact[x].append(len(met))
                static[x] += tuple([degrees[k - 1] for k in met])
        number: dict = {}
        self.block = [number.setdefault((tuple(exact[x]), static[x] if crisp else tuple(
            [r if r < 1 else top for r in static[x]])), len(number)) for x in range(n)]
        self.members: List[Set[int]] = [set() for _ in number]
        for x, b in enumerate(self.block):
            self.members[b].add(x)
        # per block, the key its members had when last keyed; members not
        # keyed since still have it
        self.shared: list = [None] * len(number)
        self.splits: List[Tuple[int, int]] = []
        self.marks: List[int] = []
        # fuzzy mode: per rank r, the elements whose key at level r + 1 can
        # change, those with a static rank or an edge of rank r
        at_rank: List[Set[int]] = [] if crisp else [set() for _ in range(top + 1)]
        for x in range(n) if at_rank else ():
            for r in static[x]:
                at_rank[r].add(x)
            for d, _label, _y in ctx.edges[x]:
                at_rank[d].add(x)
        levels = [top] if crisp else range(1, top + 1)
        for v in levels:
            self._split_by_keys(set(range(n)) if v == levels[0] else at_rank[v - 1], v)
            self.marks.append(len(self.splits))

    def _least_sets(self, found: dict) -> frozenset:
        """``(role, n, T, f)`` for each basic role, gapped bound n and least
        set T of target blocks, where f is the n-th strongest degree of the
        successors in T and every proper subset of T has a weaker one;
        ``found`` maps (role, block) to the degrees of the successors there,
        strongest first (fuzzy: to how many there are, as the key counts
        those of degree >= v alike).  The subsets are counted against
        ``SUBSET_BUDGET`` before any is listed."""
        if not self.crisp:
            found = {at: [1] * k for at, k in found.items()}
        plan = []
        for label in {role for role, _b in found}:
            blocks = sorted([(ds, b) for (role, b), ds in found.items() if role == label],
                            key=lambda block: len(block[0]), reverse=True)
            # a least set has at most n blocks, and at least as many as the
            # fullest blocks need to hold n
            plan += [(label, n, blocks, s) for n in self.gapped
                     for s in range(1, min(n, len(blocks)) + 1)
                     if sum([len(ds) for ds, _b in blocks[:s]]) >= n]
        _subset_budget([(len(blocks), s) for _l, _n, blocks, s in plan], "target blocks")
        least = []
        for label, n, blocks, s in plan:
            for subset in combinations(blocks, s):
                degrees = sorted([d for ds, _b in subset for d in ds], reverse=True)
                if len(degrees) >= n:
                    f = degrees[n - 1]
                    # dropping the block with fewest successors of degree
                    # >= f loses the fewest
                    held = [sum([d >= f for d in ds]) for ds, _b in subset]
                    if sum(held) - min(held) < n:
                        least.append((label, n, frozenset([b for _ds, b in subset]), f))
        return frozenset(least)

    def _split_by_keys(self, touched: Set[int], v: int) -> None:
        """Split blocks until every block's members have the same level-v
        key under one key function chosen for the mode and bounds, keying
        ``touched`` and then the elements with an edge into what moved.  A
        block whose keyed members share ``shared[b]``, or one key and are
        all of it, stays whole (exact: see nesting in the module docstring);
        else the largest part of a split keeps the block."""
        block, members, shared, static = self.block, self.members, self.shared, self.static
        edges, incoming, top = self.ctx.edges, self.ctx.incoming, self.ctx.top
        width, gapped, least = self.width, self.gapped, self._least_sets
        if self.crisp and (width > 1 or gapped):
            def key(x: int) -> tuple:
                found: dict = {}
                for d, label, y in edges[x]:
                    found.setdefault((label, block[y]), []).append(d)
                base = static[x], frozenset([(at, tuple(ds[:width])) for at, ds in found.items()])
                return base + (_LeastSets(found, least),) if gapped else base
        elif self.crisp:
            def key(x: int) -> tuple:
                found: dict = {}
                for d, label, y in edges[x]:  # strongest first
                    found.setdefault((label, block[y]), d)
                return static[x], frozenset(found.items())
        elif width == 1 and not gapped:  # counts up to 1: the blocks reached
            def key(x: int) -> tuple:
                found = set()
                for d, label, y in edges[x]:
                    if d < v:
                        break
                    found.add((label, block[y]))
                return tuple([r if r < v else top for r in static[x]]), frozenset(found)
        else:
            def key(x: int) -> tuple:
                found: dict = {}
                for d, label, y in edges[x]:
                    if d < v:
                        break
                    at = label, block[y]
                    found[at] = found.get(at, 0) + 1
                base = tuple([r if r < v else top for r in static[x]]), frozenset(found) if width == 1 else frozenset(
                    [(at, min(k, width)) for at, k in found.items()])
                return base + (_LeastSets(found, least),) if gapped else base
        while touched:
            # per block of two or more elements, its touched members by key
            parts_of: Dict[int, Dict[tuple, List[int]]] = {}
            for x in touched:
                b = block[x]
                if len(members[b]) > 1:
                    parts_of.setdefault(b, {}).setdefault(key(x), []).append(x)
            moved: List[int] = []
            for b, parts in parts_of.items():
                if len(parts) == 1:
                    (k, part), = parts.items()
                    if len(part) == len(members[b]) or k == shared[b]:
                        shared[b] = k
                        continue
                untouched = len(members[b]) - sum(map(len, parts.values()))
                if untouched:
                    parts.setdefault(shared[b], [])
                keep = max(parts, key=lambda k: len(parts[k]) + (untouched if k == shared[b] else 0))
                for k, part in parts.items():
                    if k != keep:
                        if untouched and k == shared[b]:
                            part = part + list(members[b].difference(*parts.values()))
                        self.splits.append((len(members), b))  # part moves to a new block
                        members[b].difference_update(part)
                        for x in part:
                            block[x] = len(members)
                        members.append(set(part))
                        shared.append(k)
                        moved += part
                shared[b] = keep
            touched = set().union(*[incoming[y] for y in moved])


def _merges(refined: _Refinement) -> Iterator[Tuple[int, int, int]]:
    """The splits of levels 2 and up undone, top level first, as
    ``(new, old, w)``: merging block ``new`` back into ``old`` joins pairs
    of rank w.  Those of level 1 part pairs of rank 0 and stay."""
    splits, marks = refined.splits, refined.marks
    for w in range(len(marks) - 1, 0, -1):
        for new, old in reversed(splits[marks[w - 1]:marks[w]]):
            yield new, old, w


def _cap(refined: _Refinement) -> int:
    """The least row or column maximum of the A × B part, in ranks: the
    highest level whose blocks all hold elements of both models, found by
    merging blocks back, top level first, until none lacks one."""
    ctx, sides = refined.ctx, [0] * len(refined.members)
    for x, b in enumerate(refined.block):
        sides[b] |= (x < ctx.na) + 2 * (x >= ctx.offset)
    unmixed = len(sides) - sides.count(3)
    if not unmixed:
        return ctx.top
    for new, old, w in _merges(refined):
        unmixed -= (sides[new] != 3) + (sides[old] != 3)
        sides[old] |= sides[new]
        unmixed += sides[old] != 3
        if not unmixed:
            return w
    return 0


def _readout(refined: _Refinement, cap: int) -> FuzzyRelation:
    """The relation of the nested partitions, ranks capped at ``cap``: per
    element of A, the elements of B in its level-1 block, in document
    order, and their degrees; every one is nonzero, and with a cap of 0
    there are none.  The splits of level 2 and up are undone as in
    :func:`_merges`, and the pairs across a merge get its degree, each
    pair once."""
    ctx, block = refined.ctx, refined.block
    na, nb, offset = ctx.na, ctx.nb, ctx.offset
    if not cap:
        return FuzzyRelation(ctx.dom_a, ctx.dom_b, [([], [])] * na)
    # the level-1 block of each block: a split of level 2 or up leaves its
    # new block in the level-1 block of the one it left
    root = list(range(len(refined.members)))
    for new, old in refined.splits[refined.marks[0]:]:
        root[new] = root[old]
    side_a: List[List[int]] = [[] for _ in root]
    side_b: List[List[int]] = [[] for _ in root]
    line: List[List[int]] = [[] for _ in root]
    at = [0] * nb  # each element of B's place in its level-1 block's line
    for j in range(nb):
        b = block[offset + j]
        side_b[b].append(j)
        at[j] = len(line[root[b]])
        line[root[b]].append(j)
    degrees: List[list] = [[None] * len(line[root[block[i]]]) for i in range(na)]
    for i in range(na):
        side_a[block[i]].append(i)
    universe = ctx.universe

    def fill(xs, ys, rank):
        degree = universe[rank if rank < cap else cap]  # one object per rank
        for i in xs:
            row = degrees[i]
            for j in ys:
                row[at[j]] = degree

    for xs, ys in zip(side_a, side_b):
        fill(xs, ys, ctx.top)
    for new, old, w in _merges(refined):
        fill(side_a[new], side_b[old], w)
        fill(side_a[old], side_b[new], w)
        side_a[old] += side_a[new]
        side_b[old] += side_b[new]
    return FuzzyRelation(ctx.dom_a, ctx.dom_b,
                         [(line[root[block[i]]], degrees[i]) for i in range(na)])


class BisimilarityResult(_Record):
    """Whether two models are bisimilar, the greatest bisimulation that
    shows it, and the first individual it fails at, if any."""

    __slots__ = ("holds", "witness", "failing_individual")
    _defaults = {"failing_individual": None}


def greatest_bisim(
    ia: Interpretation,
    ib: Interpretation,
    features: FeatureSet,
    mode: str = "fuzzy",
) -> FuzzyRelation:
    """The pointwise-greatest (fuzzy or crisp) bisimulation.

    Refines nested partitions of the disjoint union of the two models
    without U and reads the relation off them, capped under U by the
    least row or column maximum.  The module docstring shows why this is
    the greatest bisimulation.
    """
    check_mode(mode)
    refined = _Refinement(ia, ib, features, mode == "crisp")
    return _readout(refined, _cap(refined) if features.universal else refined.ctx.top)


def bisimilar(
    ia: Interpretation,
    ib: Interpretation,
    features: FeatureSet,
    mode: str = "fuzzy",
) -> BisimilarityResult:
    """Decide whether every named individual pair gets degree 1 in the
    greatest bisimulation (fuzzy: bisimilarity; crisp: strong bisimilarity).
    """
    if not _named_in_both(ia, ib):
        raise ModelError("bisimilarity of interpretations is undefined without named individuals")
    greatest = greatest_bisim(ia, ib, features, mode)
    for name in ia.individuals:
        if greatest.at(ia.individuals[name], ib.individuals[name]) != ONE:
            return BisimilarityResult(False, greatest, failing_individual=name)
    return BisimilarityResult(True, greatest)
