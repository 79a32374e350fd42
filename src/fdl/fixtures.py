"""Small built-in models with independently known answers.

These drive the ``fdl selftest`` command and double as documentation of
the package's semantics on concrete inputs.  Each builder returns fresh
objects, so callers may extend them freely.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, List, Tuple

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
# the selftest table


def _check_fan_evaluation() -> Tuple[bool, str]:
    model = fan_model()
    expected = [
        ("forall r . A", "u", F(1, 2)),
        ("exists r . A", "u", F(4, 5)),
        ("< 2 r . A", "u", F(0)),
        (">= 2 r . A", "u", F(3, 5)),
        ("exists (r | r-)* . A", "v1", F(4, 5)),
        ("exists (r | r-)* . A", "v2", F(9, 10)),
        ("exists (r | r-)* . A", "v3", F(7, 10)),
        ("forall (r | r-)* . A", "v1", F(0)),
        ("forall (r | r-)* . A", "v2", F(0)),
        ("forall (r | r-)* . A", "v3", F(0)),
    ]
    for text, element, value in expected:
        got = eval_concept(model, parse_concept(text)).at(element)
        if got != value:
            return False, (
                f"{text} at {element}: expected {format_degree(value)}, "
                f"got {format_degree(got)}"
            )
    return True, f"{len(expected)} graded values exact"


def _check_hub_greatest() -> Tuple[bool, str]:
    ia, ib = hub_pair()
    features = FeatureSet.none()
    refined = greatest_bisim(ia, ib, features, "fuzzy")
    if refined != HUB_PAIR_GREATEST:
        return False, "refinement matrix differs from the known answer"
    oracle = brute_force_greatest(ia, ib, features, "fuzzy")
    if oracle != refined:
        return False, "enumeration oracle disagrees with the refinement"
    return True, "refinement and enumeration agree on the known matrix"


def _check_fold_crisp_suite() -> Tuple[bool, str]:
    ia, ib = fold_pair()
    expectations = [
        ("O,U,Self,N2", True),
        ("O,U,Self,Q2,N2", False),
        ("I", False),
        ("Q3", False),
        ("N3", False),
    ]
    for text, expected in expectations:
        got = bisimilar(ia, ib, FeatureSet.parse(text), "crisp").holds
        if got != expected:
            return False, (
                f"features {text or 'none'}: expected strong bisimilarity "
                f"{expected}, got {got}"
            )
    return True, "all strong-bisimilarity verdicts as recorded"


def _check_island_quotients() -> Tuple[bool, str]:
    model = twin_islands()
    cases = [
        ("", 3),
        ("U", 3),
        ("O", 4),
        ("O,U", 4),
        ("I", 7),
    ]
    for text, expected_blocks in cases:
        features = FeatureSet.parse(text)
        q = quotient(model, features)
        if len(q.domain) != expected_blocks:
            return False, (
                f"features {text or 'none'}: expected {expected_blocks} blocks, "
                f"got {len(q.domain)}"
            )
        if expected_blocks in (3, 4):
            for hub in (b for b in q.domain if b.startswith("{u")):
                degrees = sorted(d for _j, d in q.successors("r")[q.index(hub)])
                if degrees != [F(1, 2), F(3, 5)]:
                    return False, (
                        f"features {text or 'none'}: edge degrees {degrees} at {hub}"
                    )
    return True, "block counts and quotient edge degrees as recorded"


def _check_separation_matrices() -> Tuple[bool, str]:
    ia, ib = point_pair()
    z = greatest_bisim(ia, ib, ALL_FEATURES, "fuzzy")
    if z.at("v", "v") != F(1, 2):
        return False, f"one-point pair: got {format_degree(z.at('v', 'v'))}"
    ia, ib = edge_pair()
    z = greatest_bisim(ia, ib, ALL_BUT_UNIVERSAL, "fuzzy")
    if z.at("u", "u'") != F(1) or z.at("v", "v'") != F(9, 10):
        return False, "edge pair: hub/leaf degrees differ from the known answer"
    if z.at("u", "v'") != F(0) or z.at("v", "u'") != F(0):
        return False, "edge pair: cross entries should vanish"
    ia, ib = leaf_triple_pair()
    z = greatest_bisim(ia, ib, ALL_FEATURES, "fuzzy")
    if z != LEAF_TRIPLE_GREATEST:
        return False, "leaf-triple pair: matrix differs from the known answer"
    return True, "all three separation matrices exact"


SELFTEST: List[Tuple[str, Callable[[], Tuple[bool, str]]]] = [
    ("fan model evaluation", _check_fan_evaluation),
    ("hub pair greatest fuzzy bisimulation", _check_hub_greatest),
    ("fold pair strong-bisimilarity verdicts", _check_fold_crisp_suite),
    ("twin-island quotients", _check_island_quotients),
    ("separation matrices", _check_separation_matrices),
]


def run_selftest(write) -> bool:
    """Run every embedded check, printing one line each; True if all pass."""
    all_ok = True
    for name, check in SELFTEST:
        try:
            ok, detail = check()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"error: {exc}"
        all_ok = all_ok and ok
        write(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return all_ok
