"""Quotienting interpretations by strong bisimilarity.

The strong bisimilarity relation of a model (its greatest crisp
auto-bisimulation) is an equivalence; grouping its classes yields a
quotient model that validates the same graded axioms.  Supported for
feature sets within {I, O, U}: counting and self-loop features would need
a richer quotient carrier and are rejected.

Strong bisimilarity is the crisp mode of :mod:`fdl.refinement` run on
the model alone: the blocks of its partition are the classes, an
equivalence by construction.  That module's docstring derives the keys
from the condition table of :mod:`fdl.bisim`; U never binds there, since
the rows and columns of a reflexive Z reach 1.

The quotient and the pruned model are built from the source's concept
rows and successor lists and stored by ``Interpretation._of_parts``: the
source is valid, so its degrees, names and edges need no second check.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, Tuple

from .errors import FeatureError, ModelError
from .godel import ZERO
from .interp import Interpretation, reachability
# greatest_bisim is not called here; bench/spans.py wraps the name
from .refinement import _Refinement, greatest_bisim  # noqa: F401
from .syntax import FeatureSet, _Record


class Partition(_Record):
    """Disjoint nonempty blocks covering a domain, in document order: a
    tuple of member tuples, and each member's block index."""

    __slots__ = ("blocks", "block_of")

    def is_identity(self) -> bool:
        return all(len(block) == 1 for block in self.blocks)


def strong_partition(interp: Interpretation, features: FeatureSet) -> Partition:
    """Equivalence classes of the greatest crisp auto-bisimulation.

    The blocks of the crisp-mode refinement in :mod:`fdl.refinement`, in
    order of their first member, members in document order.
    """
    groups: Dict[int, List[str]] = {}
    refined = _Refinement(interp, interp, features, crisp=True)
    for x, b in zip(interp.domain, refined.block):
        groups.setdefault(b, []).append(x)
    blocks = tuple(map(tuple, groups.values()))
    block_of = {x: b for b, members in enumerate(blocks) for x in members}
    return Partition(blocks, block_of)


_RESERVED = frozenset(',{}"')


def _block_id(members: Tuple[str, ...]) -> str:
    """``{x,y}``, with a member that holds ``,{}"`` written as a JSON string
    so that distinct blocks get distinct ids."""
    return "{" + ",".join(
        x if _RESERVED.isdisjoint(x) else json.dumps(x, ensure_ascii=False) for x in members
    ) + "}"


def quotient(interp: Interpretation, features: FeatureSet) -> Interpretation:
    """The quotient of ``interp`` by its strong bisimilarity relation.

    Each block takes its degrees from its first member in document order.
    One representative is enough: the blocks are the classes of the
    greatest crisp auto-bisimulation, and with Z crisp, FB2 makes the
    members of a block agree on every concept degree, and FB3/FB4 make
    them agree, per role and target block, on the supremum of their edges
    into that block (see the crisp mode in :mod:`fdl.refinement`).  So a
    block's concept degrees are its representative's, and its edge to a
    target block is the supremum of the representative's edges into it.
    A block is named ``{x,y,...}`` after its members, as :func:`_block_id`
    writes them.
    """
    _require_quotient_features(features)
    partition = strong_partition(interp, features)
    ids = tuple([_block_id(members) for members in partition.blocks])
    individuals = {
        name: ids[partition.block_of[target]]
        for name, target in interp.individuals.items()
    }
    reps = [interp.index(members[0]) for members in partition.blocks]
    concepts = {name: tuple([row[i] for i in reps]) for name, row in interp.concepts.items()}
    block = [partition.block_of[x] for x in interp.domain]
    roles = {}
    for name, successors in interp.roles.items():
        rows = []
        for i in reps:
            sup: Dict[int, Fraction] = {}
            for j, d in successors[i]:
                b = block[j]
                if d > sup.get(b, ZERO):
                    sup[b] = d
            rows.append(tuple(sorted(sup.items())))
        roles[name] = tuple(rows)
    return Interpretation._of_parts(ids, individuals, concepts, roles)


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
    kept = [i for i, x in enumerate(interp.domain) if x in reachable]
    new = {i: k for k, i in enumerate(kept)}
    concepts = {name: tuple([row[i] for i in kept]) for name, row in interp.concepts.items()}
    roles = {
        name: tuple([tuple([(new[j], d) for j, d in succ[i] if j in new]) for i in kept])
        for name, succ in interp.roles.items()
    }
    domain = tuple([interp.domain[i] for i in kept])
    return Interpretation._of_parts(domain, dict(interp.individuals), concepts, roles)
