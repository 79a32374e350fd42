import random
from fractions import Fraction as F

import pytest

import fdl.minimize
from fdl import (
    FeatureError,
    FeatureSet,
    CandidateRelation,
    FuzzyRelation,
    Interpretation,
    ModelError,
    check_bisim,
    minimality_certificate,
    prune_unreachable,
    quotient,
    strong_partition,
)
from fdl.fixtures import twin_islands
from helpers import POOL3, random_model

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


    @pytest.mark.parametrize(
        "pairs, blocks",
        [
            ([("a", "c"), ("c", "a")], (("a", "c"), ("b",))),
            ([("a", "b")], None),  # not symmetric
            ([("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")], None),  # not transitive
        ],
    )
    def test_relation_must_be_an_equivalence(self, monkeypatch, pairs, blocks):
        model = Interpretation(["a", "b", "c"], {}, {}, {})
        entries = [(x, x, F(1)) for x in model.domain]
        entries += [(x, y, F(1)) for x, y in pairs]
        relation = FuzzyRelation.from_entries(model.domain, model.domain, entries)
        monkeypatch.setattr(
            fdl.minimize, "greatest_bisim",
            lambda *args, **kwargs: CandidateRelation(relation, "crisp"),
        )
        if blocks is None:
            with pytest.raises(AssertionError):
                strong_partition(model, NO_FEATURES)
        else:
            assert strong_partition(model, NO_FEATURES).blocks == blocks


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


class TestMinimalityCertificate:
    def test_quotient_is_reduced(self):
        cert = minimality_certificate(quotient(twin_islands(), NO_FEATURES), NO_FEATURES)
        assert cert.is_reduced and cert.witness_pair is None

    def test_original_has_witness(self):
        cert = minimality_certificate(twin_islands(), NO_FEATURES)
        assert not cert.is_reduced
        a, b = cert.witness_pair
        partition = strong_partition(twin_islands(), NO_FEATURES)
        assert partition.block_of[a] == partition.block_of[b] and a != b

    def test_singleton_model(self):
        model = Interpretation(["u"], concepts={"A": {"u": F(1, 3)}})
        assert minimality_certificate(model, NO_FEATURES).is_reduced
