import random
import time
from fractions import Fraction as F

import pytest

from fdl import (
    FeatureError,
    FeatureSet,
    FuzzyRelation,
    Interpretation,
    ModelError,
    bisimilar,
    check_bisim,
    greatest_bisim,
    prune_unreachable,
    quotient,
    strong_partition,
)
from fdl.fixtures import twin_islands
from fdl.interp import degree_objects, dump_interpretation, load_interpretation
from helpers import (
    POOL3, POOL4, chain_pair, counting_hub_pair, dense, disjoint_union, doubled_hub_pair,
    fixpoint_greatest, random_model, rename_model, spread_hub_pair,
)

NO_FEATURES = FeatureSet.none()


def membership_relation(interp, quotiented, partition):
    entries = []
    for x in interp.domain:
        block_id = quotiented.domain[partition.block_of[x]]
        entries.append((x, block_id, F(1)))
    return FuzzyRelation.from_entries(interp.domain, quotiented.domain, entries)


class TestStrongPartition:
    def test_island_cases(self):
        model = twin_islands()
        assert strong_partition(model, NO_FEATURES).blocks == (
            ("u", "u'"),
            ("v1", "v1'"),
            ("v2", "v3", "v2'"),
        )
        assert strong_partition(model, FeatureSet(nominals=True)).blocks == (
            ("u",),
            ("v1", "v1'"),
            ("v2", "v3", "v2'"),
            ("u'",),
        )
        assert strong_partition(model, FeatureSet(inverse=True)).is_identity()

    def test_universal_does_not_split_islands(self):
        model = twin_islands()
        assert strong_partition(model, FeatureSet(universal=True)).blocks == (
            strong_partition(model, NO_FEATURES).blocks
        )



def fixpoint_blocks(model, features):
    """The row groups of the greatest crisp auto-bisimulation, in order of
    their first member, members in document order."""
    matrix = dense(fixpoint_greatest(model, model, features, "crisp"))
    groups = {}
    for x, row in zip(model.domain, matrix):
        marked = frozenset(j for j, v in enumerate(row) if v)
        groups.setdefault(marked, []).append(x)
    return tuple(map(tuple, groups.values()))


def same_block(model, partition):
    entries = [
        (x, y, F(1))
        for members in partition.blocks for x in members for y in members
    ]
    return FuzzyRelation.from_entries(model.domain, model.domain, entries)


def block_profile(model, partition, x):
    """What quotient reads off ``x``: its concept degrees and, per role and
    target block, the supremum of its edges into the block."""
    i = model.index(x)
    sups = {}
    for name in model.roles:
        for j, d in model.successors(name)[i]:
            key = (name, partition.block_of[model.domain[j]])
            sups[key] = max(sups.get(key, F(0)), d)
    return [row[i] for row in model.concepts.values()], sups


def doubled(rng, model):
    """``model`` beside a renamed copy that names no individual, the
    domain shuffled, so that most elements have a bisimilar twin."""
    copy = rename_model(model, {x: x + "'" for x in model.domain})
    domain = list(model.domain + copy.domain)
    rng.shuffle(domain)
    concepts = {
        name: dict(zip(model.domain + copy.domain, row + copy.concept_row(name)))
        for name, row in model.concepts.items()
    }
    roles = {
        name: list(model.edges(name)) + list(copy.edges(name)) for name in model.roles
    }
    return Interpretation(domain, model.individuals, concepts, roles)


class TestPartitionRefinement:
    """Refinement against the crisp fixpoint on random models."""

    FEATURES = [
        "", "I", "O", "U", "Self", "N2", "N*", "Q1,Q2", "Q*", "Q2", "Q1,Q3",
        "I,O,U", "I,Self", "O,U,N2", "I,Q*", "I,O,Q1,Q2", "U,Self,Q2",
        "I,Q1,Q3,N*", "I,O,U,Self,Q1,Q2,N2", "I,U,Self,Q*,N*",
    ]

    @pytest.mark.parametrize("text", FEATURES)
    def test_matches_crisp_fixpoint(self, text):
        features = FeatureSet.parse(text)
        rng = random.Random(f"refine/{text}")
        split = 0
        for _ in range(40):
            model = random_model(
                rng, "x", rng.randint(1, 7), POOL3,
                concept_names=rng.choice([(), ("A",)]),
                role_names=rng.choice([("r",), ("r", "s")]),
                individual_names=rng.choice([(), ("a",), ("a", "b")]),
                density=rng.choice([0.2, 0.4, 0.6]),
            )
            if rng.random() < 0.5:
                model = doubled(rng, model)
            partition = strong_partition(model, features)
            assert partition.blocks == fixpoint_blocks(model, features)
            assert check_bisim(model, model, same_block(model, partition), features).satisfied
            split += not partition.is_identity()
        assert split >= 10

    def test_ring_and_chain_scale(self):
        n, features = 2000, FeatureSet(inverse=True)
        dom = [f"x{i}" for i in range(n)]
        ring = Interpretation(
            dom, {}, {"A": {x: F(1 + i % 2, 2) for i, x in enumerate(dom)}},
            {"r": [(dom[i], dom[(i + 1) % n], F(4, 5)) for i in range(n)]},
        )
        start = time.perf_counter()
        assert strong_partition(ring, features).blocks == (tuple(dom[0::2]), tuple(dom[1::2]))
        assert time.perf_counter() - start < 1
        chain = Interpretation(
            dom, {}, {"A": {dom[-1]: F(1)}},
            {"r": [(dom[i], dom[i + 1], F(4, 5)) for i in range(n - 1)]},
        )
        start = time.perf_counter()
        assert strong_partition(chain, features).is_identity()
        assert time.perf_counter() - start < 1

    def test_two_model_chain_and_ring_scale(self):
        # the chains' ends carry A = 1 and 1/2, and edges of degree 4/5
        # carry the difference back: the diagonal is 1/2, all else 0
        n = 270
        ia, ib = chain_pair(n, F(4, 5), F(1), F(1, 2))
        start = time.perf_counter()
        fuzzy = greatest_bisim(ia, ib, NO_FEATURES, "fuzzy")
        assert time.perf_counter() - start < 1
        diagonal = [(f"a{i}", f"b{i}", F(1, 2)) for i in range(n)]
        assert fuzzy == FuzzyRelation.from_entries(ia.domain, ib.domain, diagonal)
        start = time.perf_counter()
        crisp = bisimilar(ia, ib, FeatureSet(inverse=True), "crisp")
        assert time.perf_counter() - start < 1
        assert not crisp.holds and crisp.failing_individual == "a"
        assert next(crisp.witness.nonzero(), None) is None
        # two rings with alternating A: two blocks across the models, and
        # 1/2 between them in fuzzy mode; U caps nothing
        rings = []
        for prefix in "xy":
            dom = [f"{prefix}{i}" for i in range(400)]
            rings.append(Interpretation(
                dom, {"a": dom[0]}, {"A": {x: F(1 + i % 2, 2) for i, x in enumerate(dom)}},
                {"r": [(dom[i], dom[(i + 1) % 400], F(4, 5)) for i in range(400)]},
            ))
        features = FeatureSet.parse("I,U")
        for mode, across in (("crisp", F(0)), ("fuzzy", F(1, 2))):
            start = time.perf_counter()
            result = bisimilar(rings[0], rings[1], features, mode)
            assert time.perf_counter() - start < 1
            assert result.holds
            matrix = dense(result.witness)
            assert all(v == (1 if (i - j) % 2 == 0 else across)
                       for i, row in enumerate(matrix) for j, v in enumerate(row))

    def test_gapped_bounds_keep_the_subset_budget(self):
        # two hubs of 16 successors share a block, so under Q2..Q16 their
        # successor counts over unions of target blocks are compared when
        # they differ: successors in 2 blocks, or in 16 with equal counts,
        # keep the hubs together; in 16 blocks, one successor apart, block
        # 16 holds two of g0's successors and one of h0's, which parts them
        gapped = FeatureSet(q_bounds=frozenset(range(2, 17)))
        for pair in counting_hub_pair(16), spread_hub_pair(16):
            for features in (gapped, FeatureSet(q_bounds=None)):
                assert strong_partition(disjoint_union(*pair), features).blocks[0] == ("h0", "g0")
        blocks = strong_partition(disjoint_union(*doubled_hub_pair(16)), gapped).blocks
        assert not any({"h0", "g0"} <= set(block) for block in blocks)


class TestQuotient:
    def test_island_quotient_plain(self):
        q = quotient(twin_islands(), NO_FEATURES)
        assert q.domain == ("{u,u'}", "{v1,v1'}", "{v2,v3,v2'}")
        assert q.individuals == {"a": "{u,u'}"}
        edges = {(x, y): d for x, y, d in q.edges("r")}
        assert edges[("{u,u'}", "{v1,v1'}")] == F(1, 2)
        assert edges[("{u,u'}", "{v2,v3,v2'}")] == F(3, 5)
        assert q.concept_row("A") == (F(0), F(7, 10), F(4, 5))

    def test_island_quotient_with_nominals(self):
        q = quotient(twin_islands(), FeatureSet(nominals=True))
        assert len(q.domain) == 4
        for hub in ("{u}", "{u'}"):
            row = q.successors("r")[q.index(hub)]
            assert sorted(d for _j, d in row) == [F(1, 2), F(3, 5)]

    def test_identity_partition_keeps_size(self):
        model = twin_islands()
        q = quotient(model, FeatureSet(inverse=True))
        assert len(q.domain) == len(model.domain)

    def test_block_ids_of_names_with_commas_stay_distinct(self):
        # a ~ b, so plain joining would name their block like "a,b"'s
        model = Interpretation(
            ["a", "b", "a,b", 'say "{hi}"'], {"c": "a,b"},
            {"A": {"a,b": F(1), 'say "{hi}"': F(1, 2)}},
        )
        q = quotient(model, NO_FEATURES)
        assert q.domain == ("{a,b}", '{"a,b"}', '{"say \\"{hi}\\""}')
        assert q.individuals == {"c": '{"a,b"}'}
        assert q.concept_row("A") == (F(0), F(1), F(1, 2))

    def test_rejects_counting_and_self_features(self):
        model = twin_islands()
        for features in (
            FeatureSet(self_loops=True),
            FeatureSet(q_bounds=frozenset({2})),
            FeatureSet(n_bounds=frozenset({1})),
            FeatureSet.permissive(),
        ):
            with pytest.raises(FeatureError):
                quotient(model, features)

    def test_membership_relation_is_crisp_bisimulation(self):
        model = twin_islands()
        for text in ("", "O", "I", "I,O,U"):
            features = FeatureSet.parse(text)
            partition = strong_partition(model, features)
            q = quotient(model, features)
            z = membership_relation(model, q, partition)
            assert check_bisim(model, q, z, features).satisfied
            with_u = FeatureSet(
                features.inverse, features.nominals, True, False,
                frozenset(), frozenset(),
            )
            assert check_bisim(model, q, z, with_u).satisfied

    def test_idempotent_up_to_block_count(self):
        rng = random.Random(101)
        for _ in range(10):
            model = random_model(
                rng, "x", rng.randint(2, 5), POOL3, individual_names=("a",)
            )
            q = quotient(model, NO_FEATURES)
            again = quotient(q, NO_FEATURES)
            assert len(again.domain) == len(q.domain)
            assert len(q.domain) <= len(model.domain)

    @pytest.mark.parametrize("text", ["", "I", "O", "U", "I,O", "I,U", "O,U", "I,O,U"])
    def test_blocks_agree_with_their_first_member(self, text):
        # quotient reads each block off its first member alone
        features = FeatureSet.parse(text)
        rng = random.Random(f"representative/{text}")
        merged = 0
        for _ in range(40):
            model = random_model(
                rng, "x", rng.randint(1, 6), rng.choice([POOL3, POOL4]),
                concept_names=rng.choice([(), ("A",), ("A", "B")]),
                role_names=rng.choice([("r",), ("r", "s")]),
                individual_names=rng.choice([(), ("a",), ("a", "b")]),
                density=rng.choice([0.2, 0.4, 0.6]),
            )
            if rng.random() < 0.6:
                model = doubled(rng, model)
            partition = strong_partition(model, features)
            for members in partition.blocks:
                first = block_profile(model, partition, members[0])
                for other in members[1:]:
                    assert block_profile(model, partition, other) == first, (text, members)
                merged += len(members) > 1
        assert merged >= 20


class TestPrune:
    def test_island_prune(self):
        pruned = prune_unreachable(twin_islands(), NO_FEATURES)
        assert pruned.domain == ("u", "v1", "v2", "v3")
        assert pruned.individuals == {"a": "u"}
        assert ("u", "v2", F(3, 5)) in pruned.edges("r")

    def test_connected_model_unchanged(self):
        model = Interpretation(
            ["u", "v"], {"a": "u"},
            concepts={"A": {"v": F(1, 2)}},
            roles={"r": [("u", "v", F(1))]},
        )
        assert prune_unreachable(model, NO_FEATURES) == model

    def test_embedding_is_strong_bisimulation(self):
        model = twin_islands()
        for text in ("", "I", "O", "I,O"):
            features = FeatureSet.parse(text)
            pruned = prune_unreachable(model, features)
            entries = [(x, x, F(1)) for x in pruned.domain]
            z = FuzzyRelation.from_entries(model.domain, pruned.domain, entries)
            assert check_bisim(model, pruned, z, features).satisfied

    def test_requires_individuals(self):
        model = Interpretation(["u"], concepts={"A": {"u": F(1)}})
        with pytest.raises(ModelError):
            prune_unreachable(model, NO_FEATURES)


def test_results_hold_the_source_degree_objects():
    """Pruning and quotienting pass their source's degree objects through,
    so the tables keyed by ``id`` see no more objects than in the source."""
    model = twin_islands()
    source = set(degree_objects(model))
    for result in (prune_unreachable(model, NO_FEATURES), quotient(model, NO_FEATURES)):
        assert set(degree_objects(result)) <= source
        assert any(d for row in result.concepts.values() for d in row)


def assert_as_from_its_document(result):
    """``result`` equals itself read back through the document constructor,
    down to the stored row and successor tuples."""
    again = load_interpretation(dump_interpretation(result))
    assert result == again
    for name in set(result.concepts) | set(again.concepts):
        assert result.concept_row(name) == again.concept_row(name)
    for name in set(result.roles) | set(again.roles):
        assert result.successors(name) == again.successors(name)


class TestResultsMatchTheDocumentPath:
    """``quotient`` and ``prune_unreachable`` store their parts directly;
    these are the parts the document constructor makes of the result, and
    the result is strongly bisimilar to the source (pruning: without U)."""

    @pytest.mark.parametrize("text", ["", "I", "I,O", "I,O,U"])
    def test_random_models(self, text):
        features = FeatureSet.parse(text)
        rng = random.Random(f"parts/{text}")
        merged = pruned = 0
        for _ in range(60):
            twin = rng.random() < 0.5
            model = random_model(
                rng, "x", rng.randint(1, 6 if twin else 12), rng.choice([POOL3, POOL4]),
                concept_names=rng.choice([(), ("A",), ("A", "B")]),
                role_names=rng.choice([(), ("r",), ("r", "s")]),
                individual_names=rng.choice([(), ("a",), ("a", "b")]),
                density=rng.choice([0.1, 0.2, 0.4]),
            )
            if twin:
                model = doubled(rng, model)
            result = quotient(model, features)
            assert_as_from_its_document(result)
            z = membership_relation(model, result, strong_partition(model, features))
            assert check_bisim(model, result, z, features).satisfied
            merged += len(result.domain) < len(model.domain)
            if model.individuals:
                result = prune_unreachable(model, features)
                assert_as_from_its_document(result)
                if not features.universal:
                    z = FuzzyRelation.from_entries(
                        model.domain, result.domain, [(x, x, F(1)) for x in result.domain])
                    assert check_bisim(model, result, z, features).satisfied
                pruned += len(result.domain) < len(model.domain)
        assert merged >= 10 and pruned >= 5

    def test_a_concept_that_lists_zero(self):
        model = load_interpretation({
            "domain": ["u", "v", "w", "x"],
            "individuals": {"a": "u"},
            "concepts": {"A": {"u": "0", "v": "0.5", "w": "0", "x": "0"}, "B": {}},
            "roles": {"r": [["u", "v", "1"], ["u", "w", "0"]], "s": []},
        })
        result = quotient(model, NO_FEATURES)
        assert result.domain == ("{u}", "{v}", "{w,x}")
        assert_as_from_its_document(result)
        result = prune_unreachable(model, NO_FEATURES)
        assert result.domain == ("u", "v")
        assert_as_from_its_document(result)


class TestMinimalityCertificate:
    """A model is reduced when its strong partition is the identity;
    otherwise the first block with two members gives a witness pair."""

    def test_quotient_is_reduced(self):
        q = quotient(twin_islands(), NO_FEATURES)
        assert strong_partition(q, NO_FEATURES).is_identity()

    def test_original_has_witness(self):
        partition = strong_partition(twin_islands(), NO_FEATURES)
        assert not partition.is_identity()
        a, b = next(block for block in partition.blocks if len(block) > 1)[:2]
        assert partition.block_of[a] == partition.block_of[b] and a != b
        assert (a, b) == ("u", "u'")

    def test_singleton_model(self):
        model = Interpretation(["u"], concepts={"A": {"u": F(1, 3)}})
        assert strong_partition(model, NO_FEATURES).is_identity()
