"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` and in
failure reports).  All comparisons are exact rational equality; no
tolerances appear anywhere.
"""

import contextlib
import random
import time
from fractions import Fraction as F

from fdl import (
    ConceptAssertion,
    FeatureSet,
    FuzzyRelation,
    Gci,
    Interpretation,
    bisimilar,
    brute_force_greatest,
    check_bisim,
    eval_concept,
    greatest_bisim,
    hm_matrix,
    parse_concept,
    quotient,
    strong_partition,
    validates,
)
from fdl.godel import godel_iff
from fdl.fixtures import (
    ALL_BUT_UNIVERSAL,
    ALL_FEATURES,
    edge_pair,
    fan_model,
    fold_pair,
    hub_pair,
    leaf_triple_pair,
    point_pair,
    twin_islands,
)
from helpers import (
    POOL3,
    POOL4,
    Sublanguage,
    cap,
    classify_sublanguage,
    compose,
    dense,
    identity,
    inverse,
    random_concept,
    random_features,
    random_model,
    rel_sup,
    rename_model,
    same_verdicts,
    theorem_applies,
)


@contextlib.contextmanager
def criterion(name):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL  {name}")
        raise
    print(f"PASS  {name}  ({time.monotonic() - start:.2f}s)")


def test_01_graded_evaluation_suite():
    with criterion("graded evaluation on the fan model"):
        start = time.monotonic()
        model = fan_model()
        expected = {
            ("forall r . A", "u"): F(1, 2),
            ("exists r . A", "u"): F(4, 5),
            ("< 2 r . A", "u"): F(0),
            (">= 2 r . A", "u"): F(3, 5),
            ("exists (r | r-)* . A", "v1"): F(4, 5),
            ("exists (r | r-)* . A", "v2"): F(9, 10),
            ("exists (r | r-)* . A", "v3"): F(7, 10),
            ("forall (r | r-)* . A", "v1"): F(0),
            ("forall (r | r-)* . A", "v2"): F(0),
            ("forall (r | r-)* . A", "v3"): F(0),
        }
        for (text, element), want in expected.items():
            assert eval_concept(model, parse_concept(text)).at(element) == want
        assert time.monotonic() - start < 1.0


def test_02_hub_pair_greatest_fuzzy_bisimulation():
    with criterion("greatest fuzzy bisimulation on the hub pair"):
        start = time.monotonic()
        ia, ib = hub_pair()
        expected = FuzzyRelation.from_entries(
            ia.domain,
            ib.domain,
            [
                ("v", "v'", F(1)),
                ("w", "w'", F(1)),
                ("v", "w'", F(4, 5)),
                ("w", "v'", F(4, 5)),
                ("u", "u'", F(4, 5)),
            ],
        )
        fixpoint = greatest_bisim(ia, ib, FeatureSet.none(), "fuzzy")
        assert fixpoint == expected
        oracle = brute_force_greatest(ia, ib, FeatureSet.none(), "fuzzy")
        assert oracle == expected
        assert time.monotonic() - start < 1.0


def test_03a_fold_pair_strongly_bisimilar_with_counting_bound_two():
    # Unqualified counting at bound 2 does not see the fold: ">= 2 r" is 1/2
    # at both hubs.  Qualified counting at bound 2 does: the delta-existential
    # concept below separates the hubs, so by invariance no crisp
    # bisimulation can relate them once Q2 is enabled.
    with criterion("fold pair strongly bisimilar under O,U,Self,N2, not with Q2"):
        ia, ib = fold_pair()
        unqualified = FeatureSet.parse("O,U,Self,N2")
        qualified = FeatureSet.parse("O,U,Self,Q2,N2")

        assert bisimilar(ia, ib, unqualified, "crisp").holds
        result = bisimilar(ia, ib, qualified, "crisp")
        assert not result.holds
        assert result.failing_individual == "a"

        count = parse_concept(">= 2 r", unqualified)
        assert eval_concept(ia, count).at("u") == F(1, 2)
        assert eval_concept(ib, count).at("u'") == F(1, 2)
        separating = parse_concept(">= 2 r . delta (0.8 -> A)", qualified)
        assert Sublanguage.DELTA_EXISTENTIAL in classify_sublanguage(
            separating, qualified
        )
        assert eval_concept(ia, separating).at("u") == F(3, 10)
        assert eval_concept(ib, separating).at("u'") == F(0)

        for features in (unqualified, qualified):
            assert (
                brute_force_greatest(ia, ib, features, "crisp")
                == greatest_bisim(ia, ib, features, "crisp")
            )


def test_03b_fold_pair_refuses_inverse_and_bound_three():
    with criterion("fold pair not strongly bisimilar under I / Q3 / N3"):
        ia, ib = fold_pair()
        for text in ("I", "Q3", "N3"):
            result = bisimilar(ia, ib, FeatureSet.parse(text), "crisp")
            assert not result.holds


def test_04_island_quotients():
    with criterion("twin-island quotients for the three feature regimes"):
        model = twin_islands()
        three_blocks = (("u", "u'"), ("v1", "v1'"), ("v2", "v3", "v2'"))
        four_blocks = (("u",), ("v1", "v1'"), ("v2", "v3", "v2'"), ("u'",))
        for text, blocks in [
            ("", three_blocks),
            ("U", three_blocks),
            ("O", four_blocks),
            ("O,U", four_blocks),
        ]:
            features = FeatureSet.parse(text)
            assert strong_partition(model, features).blocks == blocks
            q = quotient(model, features)
            assert len(q.domain) == len(blocks)
            for hub in [b for b in q.domain if b.startswith("{u")]:
                row = q.successors("r")[q.index(hub)]
                assert sorted(d for _j, d in row) == [F(1, 2), F(3, 5)]
        for text in ("I", "I,O,U"):
            features = FeatureSet.parse(text)
            assert strong_partition(model, features).is_identity()
            assert len(quotient(model, features).domain) == len(model.domain)


def test_05_separation_matrices():
    with criterion("separation matrices for the three constructions"):
        ia, ib = point_pair()
        z = greatest_bisim(ia, ib, ALL_FEATURES, "fuzzy")
        assert z.at("v", "v") == F(1, 2)

        ia, ib = edge_pair()
        z = greatest_bisim(ia, ib, ALL_BUT_UNIVERSAL, "fuzzy")
        assert z == FuzzyRelation.from_entries(
            ia.domain, ib.domain, [("u", "u'", F(1)), ("v", "v'", F(9, 10))]
        )

        ia, ib = leaf_triple_pair()
        z = greatest_bisim(ia, ib, ALL_FEATURES, "fuzzy")
        expected = [("u", "u'", F(1))]
        for left in ("v0", "v1", "v2"):
            for right in ("v0'", "v1'", "v2'"):
                same = ia.concept_row("A")[ia.index(left)] == ib.concept_row("A")[
                    ib.index(right)
                ]
                expected.append((left, right, F(1) if same else F(9, 10)))
        assert z == FuzzyRelation.from_entries(ia.domain, ib.domain, expected)


def test_06_closure_suite():
    with criterion("closure of bisimulations under identity/inverse/compose/sup"):
        rng = random.Random(1009)
        models_checked = 0
        for _ in range(34):
            ia = random_model(rng, "x", rng.randint(1, 6), POOL4, individual_names=("a",))
            ib = random_model(rng, "y", rng.randint(1, 6), POOL4, individual_names=("a",))
            ic = random_model(rng, "z", rng.randint(1, 6), POOL4, individual_names=("a",))
            models_checked += 3
            features = random_features(rng)
            for mode in ("fuzzy", "crisp"):
                assert check_bisim(ia, ia, identity(ia.domain), features).satisfied
                z1 = greatest_bisim(ia, ib, features, mode)
                z2 = greatest_bisim(ib, ic, features, mode)
                assert check_bisim(ib, ia, inverse(z1), features).satisfied
                assert check_bisim(ia, ic, compose(z1, z2), features).satisfied
                family = [z1, compose(z1, compose(z2, inverse(z2)))]
                if mode == "fuzzy":
                    family.append(cap(z1, F(1, 3)))
                assert check_bisim(ia, ib, rel_sup(family), features).satisfied
        assert models_checked >= 100


def test_07_invariance_suite():
    with criterion("concept invariance under fuzzy and crisp bisimulations"):
        rng = random.Random(2003)
        pairs_checked = 0
        for trial in range(100):
            size = rng.randint(1, 4)
            ia = random_model(
                rng, "x", size, POOL4,
                concept_names=("A", "B"), individual_names=("a",),
            )
            if trial % 2 == 0:
                ib = rename_model(ia, {x: x + "m" for x in ia.domain})
            else:
                ib = random_model(
                    rng, "y", rng.randint(1, 4), POOL4,
                    concept_names=("A", "B"), individual_names=("a",),
                )
            features = random_features(rng)
            z_fuzzy = dense(greatest_bisim(ia, ib, features, "fuzzy"))
            z_crisp = dense(greatest_bisim(ia, ib, features, "crisp"))
            concepts = [
                random_concept(
                    rng, features, rng.randint(0, 3), POOL4,
                    concept_names=("A", "B"), individual_names=("a",),
                    extended=False,
                )
                for _ in range(100)
            ] + [
                random_concept(
                    rng, features, rng.randint(0, 3), POOL4,
                    concept_names=("A", "B"), individual_names=("a",),
                    extended=True,
                )
                for _ in range(100)
            ]
            for index, c in enumerate(concepts):
                va = eval_concept(ia, c)
                vb = eval_concept(ib, c)
                core_language = index < 100
                for i, x in enumerate(ia.domain):
                    for j, y in enumerate(ib.domain):
                        if core_language:
                            assert z_fuzzy[i][j] <= godel_iff(
                                va.degrees[i], vb.degrees[j]
                            )
                        if z_crisp[i][j] == 1:
                            assert va.degrees[i] == vb.degrees[j]
            pairs_checked += 1
        assert pairs_checked >= 100


FEATURE_GRID = ["", "I", "O", "U", "Self", "Q2", "N2"]


def _mutate(rng, model):
    """Rename every element and disturb one degree."""
    renamed = rename_model(model, {x: x + "m" for x in model.domain})
    concepts = {
        name: dict(zip(renamed.domain, renamed.concept_row(name)))
        for name in renamed.concepts
    }
    roles = {name: list(renamed.edges(name)) for name in renamed.roles}
    if rng.random() < 0.5 and concepts:
        name = rng.choice(sorted(concepts))
        target = rng.choice(renamed.domain)
        concepts[name][target] = rng.choice(POOL3)
    else:
        name = rng.choice(sorted(roles))
        x, y = rng.choice(renamed.domain), rng.choice(renamed.domain)
        value = rng.choice(POOL3)
        roles[name] = [edge for edge in roles[name] if edge[:2] != (x, y)]
        if value:
            roles[name].append((x, y, value))
    return Interpretation(renamed.domain, dict(renamed.individuals), concepts, roles)


def _oracle_instances():
    rng = random.Random(3001)
    instances = [point_pair()]
    for _ in range(4):
        ia = random_model(
            rng, "x", rng.randint(2, 3), POOL3,
            individual_names=("a",), density=0.7,
        )
        ib = random_model(
            rng, "y", rng.randint(2, 3), POOL3,
            individual_names=("a",), density=0.7,
        )
        instances.append((ia, ib))
    for _ in range(3):
        ia = random_model(
            rng, "x", 3, POOL3, individual_names=("a",), density=0.7,
        )
        instances.append((ia, _mutate(rng, ia)))
    return instances


def test_08_oracle_equivalence():
    with criterion("fixpoint vs enumeration vs indistinguishability matrices"):
        start = time.monotonic()
        for ia, ib in _oracle_instances():
            for text in FEATURE_GRID:
                features = FeatureSet.parse(text)
                for mode in ("fuzzy", "crisp"):
                    fix = greatest_bisim(ia, ib, features, mode)
                    oracle = brute_force_greatest(ia, ib, features, mode)
                    assert fix == oracle, (text, mode)
                    stabilized = None
                    for depth in range(0, 5):
                        # the full infimum over the fragment, computed
                        # independently of the fixpoint
                        hm = hm_matrix(
                            ia, ib, features, mode, depth,
                            max_concepts=400_000,
                        )
                        if hm.matrix == fix:
                            stabilized = depth
                            break
                    assert stabilized is not None, (text, mode)
        assert time.monotonic() - start < 300


def test_09_quotient_laws():
    with criterion("quotient laws on random models"):
        rng = random.Random(4001)
        feature_choices = ["", "I", "O", "U", "I,O", "O,U", "I,U", "I,O,U"]
        for trial in range(50):
            model = random_model(
                rng, "x", rng.randint(2, 5), POOL3,
                concept_names=("A",), individual_names=("a",), density=0.5,
            )
            features = FeatureSet.parse(rng.choice(feature_choices))
            partition = strong_partition(model, features)
            q = quotient(model, features)
            membership = FuzzyRelation.from_entries(
                model.domain,
                q.domain,
                [
                    (x, q.domain[partition.block_of[x]], F(1))
                    for x in model.domain
                ],
            )
            assert check_bisim(model, q, membership, features).satisfied
            with_universal = FeatureSet(
                features.inverse, features.nominals, True, False,
                frozenset(), frozenset(),
            )
            assert check_bisim(model, q, membership, with_universal).satisfied
            tbox = [
                Gci(
                    random_concept(
                        rng, features, rng.randint(0, 2), POOL3,
                        individual_names=("a",), extended=True,
                    ),
                    random_concept(
                        rng, features, rng.randint(0, 2), POOL3,
                        individual_names=("a",), extended=True,
                    ),
                    ">=",
                    rng.choice((F(1, 2), F(1))),
                )
                for _ in range(3)
            ]
            assert validates(model, tbox).valid == validates(q, tbox).valid
            assert strong_partition(q, features).is_identity()


def test_10_probe_soundness():
    with criterion("bisimilar models agree on every box the preservation theorem covers"):
        rng = random.Random(5003)
        flags = 0
        for trial in range(40):
            model = random_model(
                rng, "x", rng.randint(2, 4), POOL3,
                concept_names=("A",), individual_names=("a",), density=0.5,
            )
            quotient_features = FeatureSet.parse(rng.choice(["", "I", "O", "I,O"]))
            q = quotient(model, quotient_features)
            probe_features = FeatureSet(
                quotient_features.inverse, quotient_features.nominals, True, False,
                frozenset(), frozenset(),
            )
            box = [
                Gci(
                    random_concept(
                        rng, probe_features, rng.randint(0, 2), POOL3,
                        individual_names=("a",), extended=True,
                    ),
                    random_concept(
                        rng, probe_features, rng.randint(0, 2), POOL3,
                        individual_names=("a",), extended=True,
                    ),
                    ">=",
                    F(1, 2),
                ),
                ConceptAssertion(
                    random_concept(
                        rng, probe_features, rng.randint(0, 2), POOL3,
                        individual_names=("a",), extended=True,
                    ),
                    "a",
                    ">=",
                    F(1, 2),
                ),
            ]
            assert theorem_applies(model, q, probe_features, "crisp", box)
            flags += not same_verdicts(model, q, box)

            iso = rename_model(model, {x: x + "m" for x in model.domain})
            fuzzy_features = FeatureSet(universal=True, nominals=True)
            core_box = [
                Gci(
                    random_concept(rng, fuzzy_features, 2, POOL3, individual_names=("a",)),
                    random_concept(rng, fuzzy_features, 2, POOL3, individual_names=("a",)),
                    ">=",
                    F(1, 2),
                )
            ]
            assert theorem_applies(model, iso, fuzzy_features, "fuzzy", core_box)
            flags += not same_verdicts(model, iso, core_box)
        assert flags == 0

        ia, ib = edge_pair()
        finite = FeatureSet(True, True, False, True, frozenset({1, 2}), frozenset({1, 2}))
        abox = [ConceptAssertion(parse_concept("exists r . inv A"), "a", ">=", F(1, 10))]
        assert bisimilar(ia, ib, finite, "fuzzy").holds
        assert not same_verdicts(ia, ib, abox)
        assert not theorem_applies(ia, ib, finite, "fuzzy", abox)
