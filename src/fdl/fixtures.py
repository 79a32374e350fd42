"""Small built-in models with independently known answers.

These drive the ``fdl selftest`` command and double as documentation of
the package's semantics on concrete inputs.  Each builder returns fresh
objects, so callers may extend them freely.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Callable, Iterator, List, Tuple

from .bisim import brute_force_greatest
from .godel import format_degree
from .interp import Interpretation, eval_concept
from .minimize import quotient
from .parsing import parse_concept
from .refinement import bisimilar, greatest_bisim
from .relations import FuzzyRelation
from .syntax import FeatureSet

F = Fraction


def fan_model() -> Interpretation:
    """One hub with three graded successors and one graded concept."""
    return Interpretation(
        ["u", "v1", "v2", "v3"],
        concepts={"A": {"v1": F(1, 2), "v2": F(9, 10), "v3": F(3, 5)}},
        roles={"r": [("u", "v1", F(9, 10)), ("u", "v2", F(4, 5)), ("u", "v3", F(7, 10))]},
    )


def hub_pair() -> Tuple[Interpretation, Interpretation]:
    """Two hubs whose successor degrees are interchanged."""
    ia = Interpretation(
        ["u", "v", "w"],
        concepts={"A": {"v": F(4, 5), "w": F(9, 10)}},
        roles={"r": [("u", "v", F(7, 10)), ("u", "w", F(1))]},
    )
    ib = Interpretation(
        ["u'", "v'", "w'"],
        concepts={"A": {"v'": F(4, 5), "w'": F(9, 10)}},
        roles={"r": [("u'", "v'", F(1)), ("u'", "w'", F(9, 10))]},
    )
    return ia, ib


HUB_PAIR_GREATEST = FuzzyRelation.from_entries(
    ("u", "v", "w"),
    ("u'", "v'", "w'"),
    [
        ("u", "u'", F(4, 5)),
        ("v", "v'", F(1)),
        ("w", "w'", F(1)),
        ("v", "w'", F(4, 5)),
        ("w", "v'", F(4, 5)),
    ],
)


def fold_pair() -> Tuple[Interpretation, Interpretation]:
    """A three-successor hub against a two-successor one; two successors of
    the first agree on every atom and fold onto a single successor."""
    ia = Interpretation(
        ["u", "v1", "v2", "v3"],
        individuals={"a": "u"},
        concepts={"A": {"v1": F(7, 10), "v2": F(4, 5), "v3": F(4, 5)}},
        roles={
            "r": [
                ("u", "v1", F(1, 2)),
                ("u", "v2", F(3, 5)),
                ("u", "v3", F(3, 10)),
            ]
        },
    )
    ib = Interpretation(
        ["u'", "v1'", "v2'"],
        individuals={"a": "u'"},
        concepts={"A": {"v1'": F(7, 10), "v2'": F(4, 5)}},
        roles={"r": [("u'", "v1'", F(1, 2)), ("u'", "v2'", F(3, 5))]},
    )
    return ia, ib


def twin_islands() -> Interpretation:
    """The fold pair as one model: two disjoint islands, the first named."""
    ia, ib = fold_pair()
    domain = ia.domain + ib.domain
    return Interpretation(
        domain,
        individuals=ia.individuals,
        concepts={
            name: dict(zip(domain, ia.concepts[name] + ib.concepts[name]))
            for name in ia.concepts
        },
        roles={name: [*ia.edges(name), *ib.edges(name)] for name in ia.roles},
    )


def point_pair() -> Tuple[Interpretation, Interpretation]:
    """One-point models that differ only in one atomic degree."""
    ia = Interpretation(["v"], concepts={"A": {"v": F(1, 2)}})
    ib = Interpretation(["v"], concepts={"A": {"v": F(1)}})
    return ia, ib


def edge_pair() -> Tuple[Interpretation, Interpretation]:
    """A named hub with one graded edge; the leaf degree differs."""
    ia = Interpretation(
        ["u", "v"],
        individuals={"a": "u"},
        concepts={"A": {"v": F(9, 10)}, "B": {"u": F(1)}},
        roles={"r": [("u", "v", F(9, 10))]},
    )
    ib = Interpretation(
        ["u'", "v'"],
        individuals={"a": "u'"},
        concepts={"A": {"v'": F(1)}, "B": {"u'": F(1)}},
        roles={"r": [("u'", "v'", F(9, 10))]},
    )
    return ia, ib


def leaf_triple_pair() -> Tuple[Interpretation, Interpretation]:
    """Hubs with three equally-graded edges; leaf degrees 0.9/0.9/1 against
    0.9/1/1."""
    ia = Interpretation(
        ["u", "v0", "v1", "v2"],
        individuals={"a": "u"},
        concepts={
            "A": {"v0": F(9, 10), "v1": F(9, 10), "v2": F(1)},
            "B": {"u": F(1)},
        },
        roles={
            "r": [
                ("u", "v0", F(9, 10)),
                ("u", "v1", F(9, 10)),
                ("u", "v2", F(9, 10)),
            ]
        },
    )
    ib = Interpretation(
        ["u'", "v0'", "v1'", "v2'"],
        individuals={"a": "u'"},
        concepts={
            "A": {"v0'": F(9, 10), "v1'": F(1), "v2'": F(1)},
            "B": {"u'": F(1)},
        },
        roles={
            "r": [
                ("u'", "v0'", F(9, 10)),
                ("u'", "v1'", F(9, 10)),
                ("u'", "v2'", F(9, 10)),
            ]
        },
    )
    return ia, ib


LEAF_TRIPLE_GREATEST = FuzzyRelation.from_entries(
    ("u", "v0", "v1", "v2"),
    ("u'", "v0'", "v1'", "v2'"),
    [
        ("u", "u'", F(1)),
        ("v0", "v0'", F(1)),
        ("v0", "v1'", F(9, 10)),
        ("v0", "v2'", F(9, 10)),
        ("v1", "v0'", F(1)),
        ("v1", "v1'", F(9, 10)),
        ("v1", "v2'", F(9, 10)),
        ("v2", "v0'", F(9, 10)),
        ("v2", "v1'", F(1)),
        ("v2", "v2'", F(1)),
    ],
)

ALL_FEATURES = FeatureSet.permissive()
ALL_BUT_UNIVERSAL = FeatureSet(True, True, False, True, None, None)


# ---------------------------------------------------------------------------
# the selftest table: each check yields (what, got, expected) comparisons


def _entries(what: str, got: FuzzyRelation, expected: FuzzyRelation) -> Iterator[tuple]:
    """Two relations over the same domains, compared entry by entry."""
    for x, y in product(expected.rows, expected.cols):
        yield f"{what} ({x}, {y})", got.at(x, y), expected.at(x, y)


def _fan_evaluation() -> Iterator[tuple]:
    model = fan_model()
    for text, element, value in [
        ("forall r . A", "u", F(1, 2)), ("exists r . A", "u", F(4, 5)),
        ("< 2 r . A", "u", F(0)), (">= 2 r . A", "u", F(3, 5)),
        ("exists (r | r-)* . A", "v1", F(4, 5)), ("exists (r | r-)* . A", "v2", F(9, 10)),
        ("exists (r | r-)* . A", "v3", F(7, 10)), ("forall (r | r-)* . A", "v1", F(0)),
        ("forall (r | r-)* . A", "v2", F(0)), ("forall (r | r-)* . A", "v3", F(0)),
    ]:
        yield f"{text} at {element}", eval_concept(model, parse_concept(text)).at(element), value


def _hub_greatest() -> Iterator[tuple]:
    ia, ib = hub_pair()
    refined = greatest_bisim(ia, ib, FeatureSet.none(), "fuzzy")
    yield from _entries("refinement", refined, HUB_PAIR_GREATEST)
    yield from _entries("oracle", brute_force_greatest(ia, ib, FeatureSet.none(), "fuzzy"), refined)


def _fold_verdicts() -> Iterator[tuple]:
    ia, ib = fold_pair()
    for text, holds in [("O,U,Self,N2", True), ("O,U,Self,Q2,N2", False), ("I", False),
                        ("Q3", False), ("N3", False)]:
        yield f"features {text}", bisimilar(ia, ib, FeatureSet.parse(text), "crisp").holds, holds


def _island_quotients() -> Iterator[tuple]:
    model = twin_islands()
    for text, blocks in [("", 3), ("U", 3), ("O", 4), ("O,U", 4), ("I", 7)]:
        q = quotient(model, FeatureSet.parse(text))
        yield f"features {text or 'none'}: blocks", len(q.domain), blocks
        for hub in (b for b in q.domain if b.startswith("{u") and blocks < 7):
            degrees = sorted(format_degree(d) for _j, d in q.successors("r")[q.index(hub)])
            yield f"features {text or 'none'}: edge degrees at {hub}", degrees, ["0.5", "0.6"]


def _separation_matrices() -> Iterator[tuple]:
    for what, pair, features, expected in [
        ("one-point pair", point_pair, ALL_FEATURES,
         FuzzyRelation.from_entries(["v"], ["v"], [("v", "v", F(1, 2))])),
        ("edge pair", edge_pair, ALL_BUT_UNIVERSAL, FuzzyRelation.from_entries(
            ["u", "v"], ["u'", "v'"], [("u", "u'", F(1)), ("v", "v'", F(9, 10))])),
        ("leaf-triple pair", leaf_triple_pair, ALL_FEATURES, LEAF_TRIPLE_GREATEST),
    ]:
        yield from _entries(what, greatest_bisim(*pair(), features, "fuzzy"), expected)


# (name, check, what its PASS line says)
SELFTEST: List[Tuple[str, Callable[[], Iterator[tuple]], str]] = [
    ("fan model evaluation", _fan_evaluation, "10 graded values exact"),
    ("hub pair greatest fuzzy bisimulation", _hub_greatest,
     "refinement and enumeration agree on the known matrix"),
    ("fold pair strong-bisimilarity verdicts", _fold_verdicts,
     "all strong-bisimilarity verdicts as recorded"),
    ("twin-island quotients", _island_quotients,
     "block counts and quotient edge degrees as recorded"),
    ("separation matrices", _separation_matrices, "all three separation matrices exact"),
]


def _shown(value) -> str:
    """A compared value as a FAIL line writes it, degrees by format_degree."""
    return format_degree(value) if isinstance(value, Fraction) else str(value)


def run_selftest(write) -> bool:
    """Run every embedded check, printing one line each: PASS, or FAIL with its
    first comparison that differs or the error it raised; True if all pass."""
    all_ok = True
    for name, check, summary in SELFTEST:
        try:
            failure = next((f"{what}: expected {_shown(expected)}, got {_shown(got)}"
                            for what, got, expected in check() if got != expected), None)
        except Exception as exc:  # a crash is a failure, not an abort
            failure = f"error: {exc}"
        all_ok = all_ok and failure is None
        write(f"PASS  {name}: {summary}" if failure is None else f"FAIL  {name}: {failure}")
    return all_ok
