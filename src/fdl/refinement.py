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
to degree 1 at a^A and a^B only.

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
under Q1..Qm and up to 1 otherwise; names and the number of N bounds an
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
split keeps the block.

**Crisp mode** is one level, the top, where every row must hold as it
is.  With Z the indicator of a partition, FB2, FB10 and FB6n/FB7n ask for
equal degrees.  FB3 asks each successor y of x, of degree d, for a
successor of x' in y's block of degree >= d: per basic role and block, the
suprema of the two elements' successor degrees there agree.  Under Q1..Qm,
FB6(n) and FB7(n) ask at each degree v, as above, for equal min(m, number
of successors of degree >= v) per block, which is equality of the m
largest successor degrees per block (``Q*``: the whole sorted list); the
largest is the supremum, so FB3 and FB4 are covered too.

**Q bounds with a gap** (``Q2``, ``Q1,Q3``) give no per-block key.  At
level v and bound n, let P_x(T) say that x has at least n successors of
degree >= v in the union T of some level-v blocks.  FB6(n) at (x, x') over
sets S of degree >= v holds exactly when P_x(T) implies P_x'(T) for every
T: given S, take T = the blocks of S; given T with P_x(T), take n such
successors as S, whose blocks lie inside T.  FB7(n) is the converse, so
together they ask P_x = P_x'.  Rows of lower strength are lower levels,
and the other rows are key equalities as above.  So passing every
relational row is equality of a function of each element, an
equivalence, and a block splits by checking each member against the
first remaining member with :func:`fdl.bisim._relational_rows`, over the
relation that the finished levels and the partition being refined stand
for, clamped at v, until no block splits.  Those rows enumerate subsets as
the checker does, under ``SUBSET_BUDGET`` and :class:`BudgetError`.

**U.**  Let Z be the greatest bisimulation without U and c the least of
the row and column maxima of its A × B part.  min(Z, c) is a bisimulation
with U: each of its row and column maxima is c, a row that reads Z has
its rhs capped at c too when every entry is, and a row that does not read
Z only gets easier.  Every bisimulation with U lies below Z, and each of
its entries lies below each of its row and column maxima, hence below c.
So the greatest bisimulation with U is min(Z, c); in crisp mode c < 1
empties the relation.

**Read-out.**  A pair gets the highest level at which it shares a block.
Undoing the splits of each level in reverse, top level first, merges two
blocks at a time, and the pairs across a merge of level v's splits get
v - 1, each pair once.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Set, Tuple

from .bisim import MODES, BisimilarityResult, CandidateRelation, _Context, _relational_rows
from .errors import InputError, ModelError
from .godel import ONE
from .interp import Interpretation
from .syntax import FeatureSet


class _LevelRow:
    """Row ``y`` of the relation that nested partitions stand for: the
    highest of ``levels``, ``(level, blocks)`` pairs, at which y2 shares
    y's block, 0 if none."""

    __slots__ = ("levels", "y")

    def __init__(self, levels: list, y: int):
        self.levels, self.y = levels, y

    def __getitem__(self, y2: int) -> int:
        y = self.y
        return max([v for v, block in self.levels if block[y] == block[y2]], default=0)


class _Refinement:
    """The nested partitions of the greatest bisimulation of ``ctx``'s two
    models without U, refined on their disjoint union (module docstring).

    Fuzzy mode refines one partition per level 1..top, each from the one
    below; crisp mode has the one level top.  ``block`` holds the last
    partition, ``splits`` every split as ``(new block, block it left)`` in
    order, and ``marks`` the number of splits at the end of each level.
    """

    def __init__(self, ctx: _Context, crisp: bool):
        u = self.u = ctx.union()
        n, top = u.na, u.top
        self.crisp, self.top, self.na, self.nb = crisp, top, ctx.na, ctx.nb
        self.offset = n - ctx.nb  # where B's elements start
        succs = [succ for _label, succ, _b in u.basic]
        self.gapped = len(u.q_bounds) > u.covered
        # per target block, the key counts successors (crisp: keeps degrees)
        # up to this many: 1 without Q, or with a gap in Q, which the rows
        # decide; m under Q1..Qm
        self.width = 1 if self.gapped else u.covered or 1
        # per element: ranks compared clamped at the level (concept and self
        # degrees; per role, its n-th largest successor degree for each N
        # bound n it meets) and what is compared exactly (its names; per
        # role, how many N bounds it meets)
        columns = [row for _name, row, _b in u.conc + u.self_loops]
        static = [list(ranks) for ranks in zip(*columns)] or [[] for _ in range(n)]
        exact: List[list] = [[] for _ in range(n)]
        for name, xa, xb in ctx.individual_pairs:
            for x in {xa, self.offset + xb}:  # one element when the models are one
                exact[x].append(name)
        for succ in succs if u.n_bounds else ():
            for x, row in enumerate(succ):
                degrees = sorted((d for _y, d in row), reverse=True)
                met = u.n_bounds[:bisect_right(u.n_bounds, len(degrees))]
                exact[x].append(len(met))
                static[x] += [degrees[k - 1] for k in met]
        self.static = list(map(tuple, static))
        levels = [top] if crisp else range(1, top + 1)
        number: dict = {}
        self.block = [
            number.setdefault((tuple(exact[x]), self._clamp(x, levels[0])), len(number))
            for x in range(n)
        ]
        self.members: List[Set[int]] = [set() for _ in number]
        # per block, the key its members had when last keyed; members not
        # keyed since still have it
        self.shared: list = [None] * len(number)
        # per element, its edges under every basic role as (degree, role,
        # successor), strongest first
        self.edges = [
            sorted([(d, label, y) for label, succ in enumerate(succs) for y, d in succ[x]],
                   reverse=True)
            for x in range(n)
        ]
        # per element, those with an edge into it; per rank r, the elements
        # whose key level r + 1 can change: those with a static rank or an
        # edge of rank r
        self.incoming: List[List[int]] = [[] for _ in range(n)]
        at_rank: List[Set[int]] = [set() for _ in range(top + 1)]
        for x, b in enumerate(self.block):
            self.members[b].add(x)
            at_rank[0].add(x)
            for r in self.static[x]:
                at_rank[r].add(x)
            for d, _label, y in self.edges[x]:
                self.incoming[y].append(x)
                at_rank[d].add(x)
        self.splits: List[Tuple[int, int]] = []
        self.marks: List[int] = []
        history: List[Tuple[int, tuple]] = []  # (level, blocks) of each finished level
        for v in levels:
            # the first level, and every level under gapped Q, keys everything
            first = v == levels[0] or self.gapped
            self._split_by_keys(at_rank[0] if first else at_rank[v - 1], v)
            if self.gapped:
                self._split_by_rows(history + [(v, self.block)], v)
                history.append((v, tuple(self.block)))
            self.marks.append(len(self.splits))

    def _clamp(self, x: int, v: int) -> Tuple[int, ...]:
        """x's static ranks at level v: a rank >= v reads as the top."""
        top = self.top
        return tuple([r if r < v else top for r in self.static[x]])

    def _key(self, x: int, v: int) -> tuple:
        """What x shares with its block at level v: its clamped static ranks
        and, per basic role and target block, how many successors of degree
        >= v it has there, up to ``width`` (crisp: the ``width`` largest
        degrees of its successors there)."""
        block, width, found = self.block, self.width, {}
        if self.crisp:
            for d, label, y in self.edges[x]:
                found.setdefault((label, block[y]), []).append(d)
            return self.static[x], frozenset(
                (at, tuple(degrees[:width])) for at, degrees in found.items()
            )
        for d, label, y in self.edges[x]:
            if d < v:
                break
            at = label, block[y]
            found[at] = found.get(at, 0) + 1
        if width == 1:
            return self._clamp(x, v), frozenset(found)
        return self._clamp(x, v), frozenset((at, min(k, width)) for at, k in found.items())

    def _split(self, b: int, part: List[int], key) -> None:
        """Move ``part`` out of block ``b`` into a new block."""
        self.splits.append((len(self.members), b))
        self.members[b].difference_update(part)
        for x in part:
            self.block[x] = len(self.members)
        self.members.append(set(part))
        self.shared.append(key)

    def _split_by_keys(self, touched: Set[int], v: int) -> None:
        """Split blocks until every block's members have the same key,
        keying ``touched`` and then the elements with an edge into what
        moved; the largest part of a split keeps the block."""
        block, members, shared = self.block, self.members, self.shared
        while touched:
            keys = {x: self._key(x, v) for x in touched}
            by_block: Dict[int, List[int]] = {}
            for x in touched:
                by_block.setdefault(block[x], []).append(x)
            moved: List[int] = []
            for b, xs in by_block.items():
                parts: Dict[tuple, List[int]] = {}
                for x in xs:
                    parts.setdefault(keys[x], []).append(x)
                untouched = len(members[b]) - len(xs)
                if untouched:
                    parts.setdefault(shared[b], [])
                size = {
                    k: len(part) + (untouched if k == shared[b] else 0) for k, part in parts.items()
                }
                keep = max(parts, key=size.__getitem__)
                for k, part in parts.items():
                    if k != keep:
                        if untouched and k == shared[b]:
                            part = part + list(members[b].difference(xs))
                        self._split(b, part, k)
                        moved += part
                shared[b] = keep
            touched = set().union(*[self.incoming[y] for y in moved])

    def _split_by_rows(self, levels: list, v: int) -> None:
        """Split each block by checking its members against the first
        remaining one with the relational rows at level v over the relation
        that ``levels`` stand for, until no block splits."""
        z = [_LevelRow(levels, y) for y in range(len(self.block))]
        split = True
        while split:
            split = False
            for b in range(len(self.members)):
                rest, at = sorted(self.members[b]), b
                while rest:
                    head, rest = rest[0], rest[1:]
                    # the members that fail against the head leave together
                    rest = [x for x in rest if next((
                        row for row in _relational_rows(self.u, z, x, head, ())
                        if min(v, row[3]) > row[4]
                    ), None)]
                    if rest:
                        self._split(at, rest, self.shared[at])
                        at, split = len(self.members) - 1, True

    def cross(self) -> List[List[int]]:
        """The greatest bisimulation between the two models, in ranks: a
        pair gets the highest level at which it shares a block.  Undoing
        each level's splits, top level first, gives each pair its value
        once."""
        side_a: List[List[int]] = [[] for _ in self.members]
        side_b: List[List[int]] = [[] for _ in self.members]
        for x, b in enumerate(self.block):
            if x < self.na:
                side_a[b].append(x)
            if x >= self.offset:
                side_b[b].append(x - self.offset)
        z = [[0] * self.nb for _ in range(self.na)]

        def fill(xs, ys, value):
            for i in xs:
                row = z[i]
                for j in ys:
                    row[j] = value

        for xs, ys in zip(side_a, side_b):
            fill(xs, ys, self.top)
        marks = [0] + self.marks
        # the splits of level w part pairs of value w - 1; of level 1, of 0
        for w in range(len(self.marks), 1, -1):
            for new, old in reversed(self.splits[marks[w - 1]:marks[w]]):
                fill(side_a[new], side_b[old], w - 1)
                fill(side_a[old], side_b[new], w - 1)
                side_a[old] += side_a[new]
                side_b[old] += side_b[new]
        return z


def greatest_bisim(
    ia: Interpretation,
    ib: Interpretation,
    features: FeatureSet,
    mode: str = "fuzzy",
) -> CandidateRelation:
    """The pointwise-greatest (fuzzy or crisp) bisimulation.

    Refines nested partitions of the disjoint union of the two models
    without U and reads the pairs across off them; under U every entry is
    then capped by the least row or column maximum.  The module docstring
    shows why this is the greatest bisimulation.
    """
    if mode not in MODES:
        raise InputError(f"mode must be one of {MODES}, got {mode!r}")
    ctx = _Context(ia, ib, features)
    z = _Refinement(ctx, mode == "crisp").cross()
    if features.universal:
        c = min(min(map(max, z)), min(map(max, zip(*z))))
        z = [[v if v < c else c for v in row] for row in z]
    return CandidateRelation(ctx.relation(z), mode)


def bisimilar(
    ia: Interpretation,
    ib: Interpretation,
    features: FeatureSet,
    mode: str = "fuzzy",
) -> BisimilarityResult:
    """Decide whether every named individual pair gets degree 1 in the
    greatest bisimulation (fuzzy: bisimilarity; crisp: strong bisimilarity).
    """
    names = list(ia.individuals) + [
        n for n in ib.individuals if n not in ia.individuals
    ]
    if not names:
        raise ModelError(
            "bisimilarity of interpretations is undefined without named individuals"
        )
    for name in names:
        if name not in ia.individuals or name not in ib.individuals:
            raise ModelError(f"individual {name!r} is not interpreted in both models")
    greatest = greatest_bisim(ia, ib, features, mode)
    for name in names:
        if greatest.at(ia.individuals[name], ib.individuals[name]) != ONE:
            return BisimilarityResult(False, greatest, failing_individual=name)
    return BisimilarityResult(True, greatest)
