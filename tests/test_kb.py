import random
from fractions import Fraction as F

import pytest

import fdl.kb
from fdl import (
    Compose,
    ConceptAssertion,
    ConceptName,
    Exists,
    FeatureSet,
    Gci,
    InputError,
    Interpretation,
    KnowledgeBase,
    RoleAssertion,
    RoleName,
    SameIndividual,
    DistinctIndividual,
    bisimilar,
    greatest_bisim,
    hm_matrix,
    load_kb,
    parse_concept,
    parse_role,
    validates,
)
from fdl.fixtures import edge_pair, fan_model, hub_pair, point_pair
from helpers import (
    POOL3, pointwise_leq, random_model, rename_model, same_verdicts, theorem_applies,
)

NO_FEATURES = FeatureSet.none()
FINITE_ALL = FeatureSet(True, True, True, True, frozenset({1, 2}), frozenset({1, 2}))


def named_fan():
    base = fan_model()
    return Interpretation(
        base.domain,
        {"a": "u"},
        {"A": dict(zip(base.domain, base.concept_row("A")))},
        {"r": list(base.edges("r"))},
    )


def social_model(camping=F(7, 10), traveling=F(4, 5)):
    domain = ["p", "camping", "traveling", "fashion", "shopping"]
    return Interpretation(
        domain,
        {name: name for name in domain[1:]},
        concepts={"Post": {}},
        roles={
            "interestedIn": [
                ("p", "camping", camping),
                ("p", "traveling", traveling),
                ("p", "fashion", F(3, 10)),
                ("p", "shopping", F(2, 5)),
            ],
            "shares": [],
            "relatedTo": [],
        },
    )


def social_tbox():
    text = [
        (">= 3 shares . (Post and exists relatedTo . {fashion})",
         "exists interestedIn . {fashion}", "0.5"),
        ("exists interestedIn . {fashion}",
         "exists interestedIn . {shopping}", "0.4"),
        ("0.5 -> exists interestedIn . {camping}",
         "exists interestedIn . {traveling}", "0.6"),
        ("exists interestedIn . {camping}",
         "exists interestedIn . {traveling}", "0.6"),
    ]
    return [
        Gci(parse_concept(lhs), parse_concept(rhs), ">=", F(p_num))
        for lhs, rhs, p_num in ((l, r, {"0.5": F(1, 2), "0.4": F(2, 5), "0.6": F(3, 5)}[p]) for l, r, p in text)
    ]


class TestHolds:
    def test_concept_assertion_on_fan(self):
        model = named_fan()
        c = parse_concept("exists r . A")
        assert validates(model, [ConceptAssertion(c, "a", ">=", F(4, 5))]).valid
        assert not validates(model, [ConceptAssertion(c, "a", ">", F(4, 5))]).valid
        assert validates(model, [ConceptAssertion(c, "a", "<=", F(4, 5))]).valid

    def test_role_assertion(self):
        model = Interpretation(
            ["u", "v"], {"a": "u", "b": "v"}, roles={"r": [("u", "v", F(3, 5))]}
        )
        assert validates(model, [RoleAssertion(parse_role("r"), "a", "b", ">=", F(1, 2))]).valid
        assert not validates(model, [RoleAssertion(parse_role("r"), "a", "b", "<", F(3, 5))]).valid

    def test_same_distinct(self):
        model = Interpretation(["u", "v"], {"a": "u", "b": "u", "c": "v"})
        assert validates(model, [SameIndividual("a", "b")]).valid
        assert not validates(model, [SameIndividual("a", "c")]).valid
        assert validates(model, [DistinctIndividual("a", "c")]).valid

    def test_trivial_gci(self):
        model = named_fan()
        assert validates(model, [Gci(parse_concept("1"), parse_concept("1"), ">=", F(1))]).valid

    def test_unsatisfiable_gci_on_graded_model(self):
        model = named_fan()
        # the implication degree drops to 0 wherever A is positive
        assert not validates(model, [Gci(parse_concept("A"), parse_concept("0"), ">=", F(1))]).valid

    def test_threshold_zero_rejected(self):
        with pytest.raises(InputError):
            Gci(parse_concept("A"), parse_concept("A"), ">=", F(0))


class TestValidates:
    def test_social_model_validates_all_four(self):
        result = validates(social_model(), social_tbox())
        assert result.valid

    def test_counterexample_reported_with_element(self):
        result = validates(social_model(traveling=F(1, 2)), social_tbox())
        assert not result.valid
        assert result.witness_element == "p"
        assert result.failed_item is social_tbox_item_four(result)

    def test_empty_box_is_valid(self):
        assert validates(named_fan(), []).valid

    def test_stronger_inclusion_implies_weaker(self):
        # validating the constant-guarded inclusion forces the plain one
        rng = random.Random(103)
        third, fourth = social_tbox()[2], social_tbox()[3]
        seen_nontrivial = 0
        for _ in range(200):
            model = random_social(rng)
            if validates(model, [third]).valid:
                assert validates(model, [fourth]).valid
                seen_nontrivial += 1
        assert seen_nontrivial > 20

    def test_plain_inclusion_does_not_imply_guarded(self):
        # interest exactly at the guard with a slightly larger consequent:
        # the plain inclusion holds outright while the guarded one demands 0.6
        model = social_model(camping=F(1, 2), traveling=F(11, 20))
        third, fourth = social_tbox()[2], social_tbox()[3]
        assert validates(model, [fourth]).valid
        assert not validates(model, [third]).valid


def social_tbox_item_four(result):
    # identity-free helper: the failing item should be the fourth inclusion
    items = social_tbox()
    for item in items:
        if item.describe() == result.failed_item.describe():
            return result.failed_item
    return None


def random_social(rng):
    pool = (F(0), F(2, 5), F(1, 2), F(11, 20), F(3, 5), F(7, 10), F(1))
    domain = ["p", "q", "camping", "traveling", "fashion", "shopping"]
    edges = []
    for x in ("p", "q"):
        for y in domain[2:]:
            value = rng.choice(pool)
            if value:
                edges.append((x, y, value))
    return Interpretation(
        domain,
        {name: name for name in domain[2:]},
        concepts={"Post": {}},
        roles={"interestedIn": edges, "shares": [], "relatedTo": []},
    )


class TestOneEvaluatorPerBox:
    @pytest.fixture
    def built(self, monkeypatch):
        instances = []

        class CountingEvaluator(fdl.kb.ConceptEvaluator):
            def __init__(self, interp):
                super().__init__(interp)
                instances.append(self)

        monkeypatch.setattr(fdl.kb, "ConceptEvaluator", CountingEvaluator)
        return instances

    @staticmethod
    def box():
        return social_tbox() + [
            ConceptAssertion(parse_concept("exists interestedIn . {fashion}"), "fashion", "<=", F(0)),
            RoleAssertion(parse_role("interestedIn"), "fashion", "shopping", "<=", F(0)),
        ]

    def test_validates_builds_one(self, built):
        assert len(self.box()) == 6
        assert validates(social_model(), self.box()).valid
        assert len(built) == 1


class TestKbDocuments:
    EXISTS_R_A = Exists(RoleName("r"), ConceptName("A"))
    R_THEN_S = Compose(RoleName("r"), RoleName("s"))

    def test_roundtrip(self):
        doc = {
            "tbox": [{"lhs": "B", "rhs": "exists r . A", "rel": ">=", "p": "0.1"}],
            "abox": [
                {"kind": "concept", "c": "exists r . A", "a": "a", "cmp": ">=", "p": "0.8"},
                {"kind": "same", "a": "a", "b": "b"},
                {"kind": "distinct", "a": "a", "b": "c"},
                {"kind": "role", "r": "r ; s", "a": "a", "b": "b", "cmp": "<", "p": "0.5"},
            ],
        }
        assert load_kb(doc) == KnowledgeBase(
            (Gci(ConceptName("B"), self.EXISTS_R_A, ">=", F(1, 10)),),
            (
                ConceptAssertion(self.EXISTS_R_A, "a", ">=", F(4, 5)),
                SameIndividual("a", "b"),
                DistinctIndividual("a", "c"),
                RoleAssertion(self.R_THEN_S, "a", "b", "<", F(1, 2)),
            ),
        )

    def test_readme_example_dumps_back_key_for_key(self):
        # each item reads as the document wrote it, key for key
        doc = {
            "tbox": [{"lhs": "B", "rhs": "exists r . A", "rel": ">=", "p": "0.1"}],
            "abox": [
                {"kind": "concept", "c": "exists r . A", "a": "a", "cmp": ">=", "p": "0.8"},
                {"kind": "role", "r": "r ; s", "a": "a", "b": "b", "cmp": "<", "p": "0.5"},
                {"kind": "same", "a": "a", "b": "b"},
                {"kind": "distinct", "a": "a", "b": "c"},
            ],
        }
        kb = load_kb(doc)
        assert kb == KnowledgeBase(
            (Gci(ConceptName("B"), self.EXISTS_R_A, ">=", F(1, 10)),),
            (
                ConceptAssertion(self.EXISTS_R_A, "a", ">=", F(4, 5)),
                RoleAssertion(self.R_THEN_S, "a", "b", "<", F(1, 2)),
                SameIndividual("a", "b"),
                DistinctIndividual("a", "c"),
            ),
        )
        assert [item.describe() for item in kb.items()] == [
            "(B included-in exists r . A) >= 0.1",
            "(exists r . A)(a) >= 0.8",
            "(r ; s)(a, b) < 0.5",
            "a = b",
            "a != c",
        ]

    def test_defaults_and_integer_thresholds(self):
        kb = load_kb({"tbox": [{"lhs": "A", "rhs": "B", "p": 1}],
                      "abox": [{"kind": "concept", "c": "A", "a": "a", "p": 0}]})
        assert kb.tbox[0].rel == ">=" and kb.tbox[0].threshold == 1
        assert kb.abox[0].cmp == ">=" and kb.abox[0].threshold == 0

    @pytest.mark.parametrize("doc", [
        {"tbox": [{"lhs": "A", "rhs": "B"}]},
        {"tbox": [{"lhs": "A", "rhs": "B", "p": "1", "kind": "gci"}]},
        {"tbox": [{"lhs": "A", "rhs": "B", "p": 0.5}]},
        {"tbox": [["A", "B", "1"]]},
        {"tbox": "A"},
        {"abox": {"kind": "same", "a": "a", "b": "b"}},
        {"abox": [{"kind": "same", "a": "a"}]},
        {"abox": [{"kind": "role", "r": "r", "a": "a", "b": "b", "p": "1", "c": "A"}]},
        {"abox": [{"a": "a", "b": "b"}]},
        {"abox": [{"kind": "concept", "c": "A", "a": ["a"], "p": "1"}]},
    ])
    def test_malformed_boxes(self, doc):
        with pytest.raises(InputError):
            load_kb(doc)

    def test_entry_spelled_as_json(self):
        with pytest.raises(InputError) as raised:
            load_kb({"tbox": [["A", None, True]]})
        assert str(raised.value) == 'a tbox entry must be a JSON object, got ["A", null, true]'

    @pytest.mark.parametrize("entry,message", [
        ([1], "an abox entry must be a JSON object, got [1]"),
        ({"kind": "same", "a": "a", "b": "b", "c": "A"},
         "unknown keys in an abox entry: ['c']"),
        ({"kind": "concept", "c": "A", "a": "a", "cmp": None, "p": "1"},
         """an abox entry needs a value for 'cmp': {"c": "A", "a": "a", "cmp": null, "p": "1"}"""),
    ])
    def test_abox_entry_messages(self, entry, message):
        with pytest.raises(InputError) as raised:
            load_kb({"abox": [entry]})
        assert str(raised.value) == message

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            load_kb({"abox": [{"kind": "negated", "a": "a", "b": "b"}]})


class TestHmMatrix:
    def test_depth_zero_dominates_greatest(self):
        ia, ib = hub_pair()
        greatest = greatest_bisim(ia, ib, NO_FEATURES, "fuzzy")
        shallow = hm_matrix(ia, ib, NO_FEATURES, "fuzzy", 0)
        assert pointwise_leq(greatest, shallow.matrix)

    def test_antitone_in_depth_and_converges(self):
        ia, ib = hub_pair()
        greatest = greatest_bisim(ia, ib, NO_FEATURES, "fuzzy")
        previous = None
        converged = False
        for depth in range(0, 3):
            result = hm_matrix(
                ia, ib, NO_FEATURES, "fuzzy", depth,
                max_concepts=100_000,
            )
            if previous is not None:
                assert pointwise_leq(result.matrix, previous)
            assert pointwise_leq(greatest, result.matrix)
            previous = result.matrix
            if result.matrix == greatest:
                converged = True
                break
        assert converged

    def test_point_pair_fragments(self):
        ia, ib = point_pair()
        prime = hm_matrix(ia, ib, FINITE_ALL, "fuzzy", 2)
        assert prime.matrix.at("v", "v") == F(1, 2)
        delta = hm_matrix(ia, ib, FINITE_ALL, "crisp", 2)
        assert delta.matrix.at("v", "v") == 0
        separator = delta.separators[("v", "v")]
        assert separator is not None
        # any recorded separator must actually take different values
        from fdl import eval_concept

        assert eval_concept(ia, separator).at("v") != eval_concept(ib, separator).at("v")

    def test_deterministic(self):
        ia, ib = hub_pair()
        first = hm_matrix(ia, ib, NO_FEATURES, "fuzzy", 2)
        second = hm_matrix(ia, ib, NO_FEATURES, "fuzzy", 2)
        assert first.matrix == second.matrix
        assert first.separators == second.separators

    def test_projected_guard_separates_graded_leaves(self):
        # within one model, leaves differing only in a graded atom are told
        # apart by a projection over a constant-guarded implication
        from fdl import Delta, Implies, Constant, ConceptName, Signature
        from fdl.enumeration import iter_fragment
        from fdl.fixtures import fold_pair

        ia, _ = fold_pair()
        result = hm_matrix(ia, ia, NO_FEATURES, "crisp", 2)
        assert result.matrix.at("v1", "v2") == 0
        assert result.separators[("v1", "v2")] is not None
        produced = list(iter_fragment(
            NO_FEATURES,
            Signature(["A"], ["r"], []),
            [F(0), F(7, 10), F(1)],
            "crisp",
            2,
            max_concepts=10_000,
        ))
        guard = Delta(Implies(ConceptName("A"), Constant(F(7, 10))))
        assert guard in produced


class TestInvarianceProbe:
    def test_involutive_abox_outside_fuzzy_fragment(self):
        ia, ib = edge_pair()
        features = FeatureSet(True, True, False, True, frozenset({1, 2}), frozenset({1, 2}))
        abox = [ConceptAssertion(parse_concept("exists r . inv A"), "a", ">=", F(1, 10))]
        assert bisimilar(ia, ib, features, "fuzzy").holds
        assert not same_verdicts(ia, ib, abox)
        assert not theorem_applies(ia, ib, features, "fuzzy", abox)

    def test_isomorphic_models_always_agree(self):
        rng = random.Random(107)
        for _ in range(20):
            ia = random_model(rng, "x", rng.randint(1, 3), POOL3, individual_names=("a",))
            ib = rename_model(ia, {x: x + "_" for x in ia.domain})
            features = FeatureSet(universal=True, nominals=True)
            tbox = [Gci(parse_concept("A"), parse_concept("exists r . A"), ">=", F(1, 2))]
            abox = [ConceptAssertion(parse_concept("exists r . A"), "a", ">=", F(1, 2))]
            assert theorem_applies(ia, ib, features, "fuzzy", tbox + abox)
            assert same_verdicts(ia, ib, tbox + abox)

    def test_inclusion_needs_universal_or_connected(self):
        ia, _ = edge_pair()
        ib = rename_model(ia, {"u": "u'", "v": "v'"})
        tbox = [Gci(parse_concept("B"), parse_concept("exists r . A"), ">=", F(1, 10))]
        assert not theorem_applies(ia, ib, NO_FEATURES, "fuzzy", tbox)
        assert theorem_applies(ia, ib, NO_FEATURES, "crisp", tbox)  # both models are connected
        assert theorem_applies(ia, ib, FeatureSet(universal=True), "fuzzy", tbox)
        assert same_verdicts(ia, ib, tbox)


class TestThresholdOffTheModelScale:
    """Inclusion thresholds whose denominator does not divide the model's
    common denominator (tenths here, thresholds in thirds)."""

    MODEL = Interpretation(
        ["u", "v", "w"],
        concepts={"A": {"u": "1", "v": "1", "w": "0.2"}, "B": {"u": "0.3", "v": "0.4", "w": "0.3"}},
    )

    @pytest.mark.parametrize("rel", [">=", ">"])
    def test_values_on_both_sides(self, rel):
        # A -> B is 0.3 at u, 0.4 at v and 1 at w: u falls below 1/3, v clears it
        result = validates(self.MODEL, [Gci(parse_concept("A"), parse_concept("B"), rel, F(1, 3))])
        assert not result.valid and result.witness_element == "u"
        above = Interpretation(self.MODEL.domain, concepts={"A": {"u": "1"}, "B": {"u": "0.4"}})
        assert validates(above, [Gci(parse_concept("A"), parse_concept("B"), rel, F(1, 3))]).valid

    def test_value_at_the_threshold(self):
        # A -> 1/3 is exactly 1/3 where A exceeds it (u, v) and 1 at w
        at = [Gci(parse_concept("A"), parse_concept("1/3"), rel, F(1, 3)) for rel in (">=", ">")]
        assert validates(self.MODEL, at[:1]).valid
        result = validates(self.MODEL, at[1:])
        assert not result.valid and result.witness_element == "u"
        assert validates(self.MODEL, [Gci(parse_concept("A"), parse_concept("1/3"), ">", F(3, 10))]).valid
