"""Quotienting interpretations by strong bisimilarity.

The strong bisimilarity relation of a model (its greatest crisp
auto-bisimulation) is an equivalence; grouping its classes yields a
quotient model that validates the same graded axioms.  Supported for
feature sets within {I, O, U}: counting and self-loop features would need
a richer quotient carrier and are rejected.

Strong bisimilarity is computed by partition refinement over the successor
lists, not by the fixpoint of :mod:`fdl.bisim`.  Read the rows of that
module's condition table with Z crisp and an equivalence, the indicator of
a partition: then Z(x, x') = 1 passes every row exactly when x and x' have
the same key, for these keys.

* FB2, FB5 and FB10 do not read Z.  They ask for the same degree of every
  concept name, the same individual names, and the same self degree of
  every role.  FB6n(n)/FB7n(n) do not read Z either: per basic role, the
  n-th largest successor degree (0 if there are fewer) must agree for each
  bound n.  These make the static key of the initial partition; under O a
  named element is a block of its own.
* FB3 asks each r-successor y of x, of degree d, for an r-successor y' of
  x' with Z(y, y') = 1, that is in y's block, of degree >= d; FB4 asks the
  same of x'.  Under an equivalence both hold exactly when, per basic role
  and per block, the suprema of the two elements' successor degrees in that
  block agree.
* With Q bounds exactly 1..m, take a level v and a set S of successors of
  x of degree >= v, |S| = n <= m.  The n-th largest score is >= v exactly
  when x' has n successors of degree >= v in the blocks of S.  With S
  inside one block B, FB6(n) and FB7(n) make min(m, number of successors
  of degree >= v in B) agree for x and x'; summing over blocks, that
  already covers every S.  So per basic role and per block, the m largest
  successor degrees agree; the largest is the supremum, so FB3 and FB4
  are covered too.  ``Q*`` is every m, the whole sorted list.
* FB8 and FB9 read only the maxima of Z's rows and columns, which are 1
  for a reflexive Z, so U never binds.

Refinement keys each element by, per basic role (inverses included under
I) and per target block, the descending degrees of its successors there,
truncated to one entry (the supremum) without Q and to m entries under
bounds 1..m.  A block whose members' keys differ splits; the largest part
keeps the block's number, and only the elements with an edge into the
other parts are keyed again.  A split separates only elements that no
bisimulation relates, so strong bisimilarity stays inside every partition;
once no block splits, the partition is a bisimulation, hence strong
bisimilarity.  It is an equivalence by construction.

Q bounds with a gap, such as ``Q2`` or ``Q1,Q3``, give no per-block key.
For each bound n, FB6(n) and FB7(n) under an equivalence hold exactly
when, for every set T of blocks and level v, x has at least n successors
of degree >= v in T iff x' has.  That is still equality of a function of
each element, so a block splits by checking each member against the first
remaining member with the table's own rows over a Z that reads block
membership, until no block splits.  Those rows enumerate the subsets as
the fixpoint does, under the same ``SUBSET_BUDGET`` and
:class:`BudgetError`.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

# greatest_bisim is not called here; bench/spans.py wraps the name
from .bisim import _Context, _relational_rows, greatest_bisim  # noqa: F401
from .errors import FeatureError, ModelError
from .godel import ZERO
from .interp import Interpretation, reachability
from .syntax import FeatureSet


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty blocks covering a domain, in document order."""

    blocks: Tuple[Tuple[str, ...], ...]
    block_of: Dict[str, int]

    def is_identity(self) -> bool:
        return all(len(block) == 1 for block in self.blocks)


def strong_partition(interp: Interpretation, features: FeatureSet) -> Partition:
    """Equivalence classes of the greatest crisp auto-bisimulation.

    Refines the partition by the static key (concept degrees, individual
    names, self degrees, unqualified counts) until every block's members
    have the same successor key; the module docstring shows why equal keys
    are exactly what the condition rows ask of an equivalence.  Blocks come
    in order of their first member, members in document order.
    """
    ctx = _Context(interp, interp, features)
    number: Dict[tuple, int] = {}
    block = [number.setdefault(key, len(number)) for key in _static_keys(ctx)]
    if len(ctx.q_bounds) > ctx.covered:  # Q bounds with a gap: no per-block key
        _refine_by_rows(ctx, block)
    else:  # keep the supremum without Q, the m largest under Q1..Qm
        _refine_by_keys(ctx, block, ctx.covered or 1)
    groups: Dict[int, List[str]] = {}
    for x, b in zip(interp.domain, block):
        groups.setdefault(b, []).append(x)
    blocks = tuple(map(tuple, groups.values()))
    block_of = {x: b for b, members in enumerate(blocks) for x in members}
    return Partition(blocks, block_of)


def _static_keys(ctx: _Context) -> Iterator[tuple]:
    """Per element, what FB2, FB5, FB10 and FB6n/FB7n compare."""
    names: List[Tuple[str, ...]] = [()] * ctx.na
    for name, x, _x in ctx.individual_pairs:
        names[x] += (name,)
    columns: List[Sequence] = [names]
    columns += [row for _name, row, _b in ctx.conc]
    columns += [diag for _name, diag, _b in ctx.self_loops]
    bounds = ctx.n_bounds
    if bounds:
        for _label, succ, _b in ctx.basic:
            column = []
            for row in succ:
                degrees = sorted((d for _y, d in row), reverse=True)
                met = bounds[:bisect_right(bounds, len(degrees))]
                column.append(tuple(degrees[n - 1] for n in met))
            columns.append(column)
    return zip(*columns)


def _refine_by_keys(ctx: _Context, block: List[int], width: int) -> None:
    """Split ``block`` until every block's members have the same key: per
    basic role and target block, their successors' ``width`` largest
    degrees."""
    labels = [succ for _label, succ, _b in ctx.basic]
    members: List[Set[int]] = [set() for _ in range(max(block) + 1)]
    for x, b in enumerate(block):
        members[b].add(x)
    # the elements with an edge into each element, under any basic role
    incoming: List[Set[int]] = [set() for _ in block]
    for succ in labels:
        for x, row in enumerate(succ):
            for y, _d in row:
                incoming[y].add(x)

    def key(x: int) -> frozenset:
        found: Dict[Tuple[int, int], List[int]] = {}
        for label, succ in enumerate(labels):
            for y, d in succ[x]:
                found.setdefault((label, block[y]), []).append(d)
        return frozenset(
            (at, tuple(sorted(degrees, reverse=True)[:width])) for at, degrees in found.items()
        )

    # per block, the key its members had when it was last keyed; members
    # not keyed again since still have it
    shared: List[Optional[frozenset]] = [None] * len(members)
    touched: Set[int] = set(range(len(block)))
    while touched:
        keys = {x: key(x) for x in touched}
        by_block: Dict[int, List[int]] = {}
        for x in touched:
            by_block.setdefault(block[x], []).append(x)
        moved: List[int] = []
        for b, xs in by_block.items():
            parts: Dict[frozenset, List[int]] = {}
            for x in xs:
                parts.setdefault(keys[x], []).append(x)
            untouched = len(members[b]) - len(xs)
            if untouched:
                parts.setdefault(shared[b], [])
            if len(parts) == 1:
                shared[b] = next(iter(parts))
                continue
            size = {
                k: len(part) + (untouched if k == shared[b] else 0) for k, part in parts.items()
            }
            keep = max(parts, key=size.__getitem__)
            for k, part in parts.items():
                if k == keep:
                    continue
                if untouched and k == shared[b]:
                    part = part + list(members[b].difference(xs))
                members[b].difference_update(part)
                for x in part:
                    block[x] = len(members)
                members.append(set(part))
                shared.append(k)
                moved += part
            shared[b] = keep
        touched = set().union(*[incoming[y] for y in moved])


class _BlockRow:
    """Row ``y`` of a partition's equivalence as a rank matrix: the top rank
    at the members of y's block, 0 elsewhere."""

    __slots__ = ("block", "top", "y")

    def __init__(self, block: List[int], top: int, y: int):
        self.block, self.top, self.y = block, top, y

    def __getitem__(self, y2: int) -> int:
        return self.top if self.block[y2] == self.block[self.y] else 0


def _refine_by_rows(ctx: _Context, block: List[int]) -> None:
    """Split ``block`` until each member of a block passes the relational
    rows against the block's first member, with Z the partition itself."""
    z = [_BlockRow(block, ctx.top, y) for y in range(len(block))]
    count = max(block) + 1
    split = True
    while split:
        split = False
        groups: Dict[int, List[int]] = {}
        for x, b in enumerate(block):
            groups.setdefault(b, []).append(x)
        for rest in groups.values():
            parts = []
            while rest:
                head, part, left = rest[0], [rest[0]], []
                for x in rest[1:]:
                    passes = next(_relational_rows(ctx, z, x, head, ()), None) is None
                    (part if passes else left).append(x)
                parts.append(part)
                rest = left
            for part in parts[1:]:
                split = True
                for x in part:
                    block[x] = count
                count += 1


_RESERVED = frozenset(',{}"')


def _block_id(members: Tuple[str, ...]) -> str:
    """``{x,y}``, with a member that holds ``,{}"`` written as a JSON string
    so that distinct blocks get distinct ids."""
    return "{" + ",".join(
        x if _RESERVED.isdisjoint(x) else json.dumps(x, ensure_ascii=False) for x in members
    ) + "}"


def quotient(interp: Interpretation, features: FeatureSet) -> Interpretation:
    """The quotient of ``interp`` by its strong bisimilarity relation.

    Concept degrees carry over from any representative; role degrees take
    the supremum over the target block.  Both are checked to be
    representative-independent, which the atomic and forth/back conditions
    guarantee; a failure there is an internal bug.  A block is named
    ``{x,y,...}`` after its members, as :func:`_block_id` writes them.
    """
    _require_quotient_features(features)
    partition = strong_partition(interp, features)
    ids = [_block_id(members) for members in partition.blocks]
    individuals = {
        name: ids[partition.block_of[target]]
        for name, target in interp.individuals.items()
    }
    concepts = {}
    for name, row in interp.concepts.items():
        values = {}
        for members, block_name in zip(partition.blocks, ids):
            first = row[interp.index(members[0])]
            for other in members[1:]:
                if row[interp.index(other)] != first:
                    raise AssertionError(
                        f"internal: concept {name!r} not constant on block {block_name}"
                    )
            values[block_name] = first
        concepts[name] = values
    block = [partition.block_of[x] for x in interp.domain]
    roles = {}
    for name in interp.roles:
        # per element, the supremum of its edges into each target block
        sups: List[Dict[int, Fraction]] = []
        for row in interp.successors(name):
            sup: Dict[int, Fraction] = {}
            for j, d in row:
                b = block[j]
                if d > sup.get(b, ZERO):
                    sup[b] = d
            sups.append(sup)
        edges = []
        for members, src_id in zip(partition.blocks, ids):
            first = sups[interp.index(members[0])]
            for other in members[1:]:
                if sups[interp.index(other)] != first:
                    raise AssertionError(
                        f"internal: role {name!r} supremum differs across block "
                        f"{src_id} representatives"
                    )
            for b, d in first.items():
                edges.append((src_id, ids[b], d))
        roles[name] = edges
    return Interpretation(ids, individuals, concepts, roles)


def _require_quotient_features(features: FeatureSet) -> None:
    offending = []
    if features.self_loops:
        offending.append("Self")
    if features.has_qualified():
        offending.append("Q")
    if features.has_unqualified():
        offending.append("N")
    if offending:
        raise FeatureError(
            "quotient construction supports feature sets within {I, O, U}; "
            "unsupported here: " + ", ".join(offending)
        )


def prune_unreachable(interp: Interpretation, features: FeatureSet) -> Interpretation:
    """Restrict ``interp`` to the elements reachable from named individuals.

    The result is connected.  Without ``U`` it is strongly bisimilar to the
    original via the identity on the survivors.  ``U`` is ignored here,
    though under ``U`` every element is reachable: a dropped element can
    then tell the two models apart (FB8 fails), so the result need not be
    bisimilar to the original.
    """
    if not interp.individuals:
        raise ModelError("pruning needs at least one named individual")
    reachable, _connected = reachability(interp, features)
    if not reachable:
        raise ModelError("no element is reachable; the domain must stay nonempty")
    kept = [x for x in interp.domain if x in reachable]
    concepts = {
        name: {x: row[interp.index(x)] for x in kept if row[interp.index(x)] != ZERO}
        for name, row in interp.concepts.items()
    }
    roles = {
        name: [(x, y, d) for x, y, d in interp.edges(name) if x in reachable and y in reachable]
        for name in interp.roles
    }
    return Interpretation(kept, dict(interp.individuals), concepts, roles)


@dataclass(frozen=True)
class MinimalityCertificate:
    is_reduced: bool
    witness_pair: Optional[Tuple[str, str]] = None


def minimality_certificate(
    interp: Interpretation, features: FeatureSet
) -> MinimalityCertificate:
    """Report whether strong bisimilarity is the identity on this model.

    An identity partition certifies that no quotient can shrink the model;
    otherwise the first pair of distinct strongly-bisimilar elements is
    returned.
    """
    partition = strong_partition(interp, features)
    for members in partition.blocks:
        if len(members) > 1:
            return MinimalityCertificate(False, (members[0], members[1]))
    return MinimalityCertificate(True)
