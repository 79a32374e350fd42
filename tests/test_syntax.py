import copy
import pickle
import random
import time
from fractions import Fraction as F

import pytest

from fdl import (
    And,
    AtLeast,
    AtLeastUnq,
    BisimilarityResult,
    BudgetError,
    Compose,
    ConceptAssertion,
    ConceptName,
    ConditionReport,
    Constant,
    Delta,
    DistinctIndividual,
    Exists,
    FeatureError,
    FeatureSet,
    Forall,
    FuzzyRelation,
    FuzzySet,
    Gci,
    HmResult,
    Implies,
    InputError,
    InvNeg,
    Inverse,
    KnowledgeBase,
    Less,
    LessUnq,
    Nominal,
    Not,
    Or,
    ParseError,
    Partition,
    RoleAssertion,
    RoleName,
    RoleUnion,
    SameIndividual,
    SelfLoop,
    Signature,
    Star,
    Test,
    Universal,
    ValidationResult,
    Violation,
    parse_concept,
    parse_role,
    to_text,
    validate,
)
from fdl.enumeration import iter_fragment
from fdl.syntax import _NODES, Concept, Role, children, structural_key
from helpers import (
    Sublanguage, classify_sublanguage, random_concept, random_features, rewrite_definable,
)

PERMISSIVE = FeatureSet.permissive()


class TestFeatureSet:
    def test_parse_and_format(self):
        features = FeatureSet.parse("I,O,U,Self,Q2,Q3,N2")
        assert features.inverse and features.nominals
        assert features.universal and features.self_loops
        assert features.q_bounds == frozenset({2, 3})
        assert features.n_bounds == frozenset({2})
        assert FeatureSet.parse(features.format()) == features

    def test_format_parse_round_trip(self):
        rng = random.Random(151)

        def bounds():
            return rng.choice(
                [None, frozenset(), frozenset(rng.sample(range(1, 6), rng.randint(1, 3)))]
            )

        samples = [FeatureSet.none(), FeatureSet.permissive()] + [
            FeatureSet(*(rng.random() < 0.5 for _ in range(4)), bounds(), bounds())
            for _ in range(50)
        ]
        for features in samples:
            assert FeatureSet.parse(features.format()) == features
        assert FeatureSet.parse("Q*,Q2").q_bounds is None
        assert FeatureSet.parse("N3,N*").n_bounds is None

    def test_empty_string(self):
        assert FeatureSet.parse("") == FeatureSet.none()

    def test_bad_token(self):
        with pytest.raises(InputError):
            FeatureSet.parse("I,X")
        with pytest.raises(InputError):
            FeatureSet.parse("Q0")

    def test_a_token_is_named_whole_up_to_40_characters(self):
        for token, named in (("x" * 40, repr("x" * 40)),
                             ("x" * 41, "'xxxxxxxxxxxx'... of 41 characters")):
            with pytest.raises(InputError) as info:
                FeatureSet.parse(f"I,{token}")
            assert str(info.value).startswith(f"unknown feature token {named}; expected")

    def test_parse_is_cached_but_errors_are_not(self):
        assert FeatureSet.parse("I,Q2") is FeatureSet.parse("I,Q2")
        for _ in range(2):  # a failed parse is not remembered
            with pytest.raises(InputError, match="unknown feature token 'X'"):
                FeatureSet.parse("I,X")

    def test_bounds_validated(self):
        with pytest.raises(InputError):
            FeatureSet(q_bounds=frozenset({0}))


class TestParser:
    def test_plus_sugar_with_test(self):
        got = parse_concept("exists (A? ; r)+ . {c}", PERMISSIVE)
        step = Compose(Test(ConceptName("A")), RoleName("r"))
        assert got == Exists(Compose(step, Star(step)), Nominal("c"))

    def test_constant_implication(self):
        got = parse_concept("0.5 -> exists interestedIn . {camping}")
        assert got == Implies(
            Constant(F(1, 2)),
            Exists(RoleName("interestedIn"), Nominal("camping")),
        )

    def test_qualified_restriction(self):
        assert parse_concept(">= 2 r . A") == AtLeast(2, RoleName("r"), ConceptName("A"))
        assert parse_concept("< 2 r . A") == Less(2, RoleName("r"), ConceptName("A"))

    def test_unqualified_restriction(self):
        assert parse_concept(">= 3 r") == AtLeastUnq(3, RoleName("r"))
        assert parse_concept(">= 2 r- and A") == And(
            AtLeastUnq(2, Inverse(RoleName("r"))), ConceptName("A")
        )

    def test_precedence(self):
        got = parse_concept("not A and B or C -> D")
        assert got == Implies(
            Or(And(Not(ConceptName("A")), ConceptName("B")), ConceptName("C")),
            ConceptName("D"),
        )

    def test_implies_right_associative(self):
        got = parse_concept("A -> B -> C")
        assert got == Implies(
            ConceptName("A"), Implies(ConceptName("B"), ConceptName("C"))
        )

    def test_quantifier_binds_filler_tightly(self):
        got = parse_concept("exists r . A and B")
        assert got == And(Exists(RoleName("r"), ConceptName("A")), ConceptName("B"))

    def test_self_loop(self):
        assert parse_concept("exists r . self") == SelfLoop("r")
        with pytest.raises(ParseError):
            parse_concept("exists (r ; s) . self")

    def test_role_operators(self):
        assert parse_role("r | s ; t*") == RoleUnion(
            RoleName("r"), Compose(RoleName("s"), Star(RoleName("t")))
        )
        assert parse_role("r--") == Inverse(Inverse(RoleName("r")))
        assert parse_role("(0.5 -> A)? ; U") == Compose(
            Test(Implies(Constant(F(1, 2)), ConceptName("A"))), Universal()
        )

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_concept("A and )")
        assert exc.value.position == 6

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_concept("A B")

    @pytest.mark.parametrize("text", [">= 2.0 r . A", ">= 4/2 r", ">= 0 r . A", "< 1/2 r"])
    def test_counting_bound_is_ascii_digits(self, text):
        with pytest.raises(ParseError):
            parse_concept(text)

    @pytest.mark.parametrize("text", ["\u0660.\u0665 and A", "\uff11 and A", "1/\u0662 -> A"])
    def test_degree_constant_is_ascii_digits(self, text):
        with pytest.raises(ParseError):
            parse_concept(text)

    def test_deeply_nested_tests_parse_quickly(self):
        # each level wraps the last in a test: exists ((C)? ; r) . A
        text = "A"
        for _ in range(20):
            text = f"exists (({text})? ; r) . A"
        start = time.monotonic()
        got = parse_concept(text)
        assert time.monotonic() - start < 1
        assert parse_concept(to_text(got)) == got

    def test_feature_violations(self):
        nothing = FeatureSet.none()
        with pytest.raises(FeatureError):
            parse_concept("exists U . A", nothing)
        with pytest.raises(FeatureError):
            parse_concept("{a}", nothing)
        with pytest.raises(FeatureError):
            parse_concept("exists r- . A", nothing)
        with pytest.raises(FeatureError):
            parse_concept(">= 2 r . A", FeatureSet(q_bounds=frozenset({3})))
        with pytest.raises(FeatureError):
            parse_concept("exists r . self", nothing)

    def test_no_features_is_the_permissive_set(self):
        text = (
            "(exists (r- ; s*)+ . {a}) and forall (A? | U ; r) . (not B or inv delta 0.5)"
            " -> (>= 2 r . C) and (< 3 s- . 1/4) and (>= 1 r) and (< 2 s) and exists r . self"
        )
        got = parse_concept(text)
        found, stack = set(), [got]
        while stack:
            node = stack.pop()
            found.add(type(node))
            stack.extend(children(node))
        assert found == set(_NODES)  # every constructor occurs
        assert got == parse_concept(text, FeatureSet.permissive())
        role = "(r- ; s*)+ | A? ; U"
        assert parse_role(role) == parse_role(role, FeatureSet.permissive())

    def test_validate_programmatic(self):
        validate(Exists(Universal(), ConceptName("A")), FeatureSet(universal=True))
        with pytest.raises(FeatureError):
            validate(Exists(Universal(), ConceptName("A")), FeatureSet.none())

    def test_roundtrip_random(self):
        rng = random.Random(23)
        for _ in range(300):
            features = random_features(rng)
            c = random_concept(
                rng,
                features,
                depth=rng.randint(0, 4),
                concept_names=("A", "B"),
                role_names=("r", "s"),
                individual_names=("a",),
                extended=True,
            )
            assert parse_concept(to_text(c), PERMISSIVE) == c

    def test_role_roundtrip_random(self):
        from helpers import random_role

        rng = random.Random(37)

        def concept_maker(rng_, d):
            return random_concept(rng_, PERMISSIVE, max(d, 0), extended=True)

        for _ in range(200):
            role = random_role(rng, PERMISSIVE, ("r", "s"), 3, concept_maker)
            assert parse_role(to_text(role), PERMISSIVE) == role


class TestRewriteDefinable:
    def test_not(self):
        assert rewrite_definable(Not(ConceptName("A"))) == Implies(
            ConceptName("A"), Constant(F(0))
        )

    def test_or(self):
        a, b = ConceptName("A"), ConceptName("B")
        assert rewrite_definable(Or(a, b)) == And(
            Implies(Implies(a, b), b), Implies(Implies(b, a), a)
        )

    def test_invneg_kept(self):
        assert rewrite_definable(InvNeg(ConceptName("A"))) == InvNeg(ConceptName("A"))


class TestClassification:
    def test_common_constructors_everywhere(self):
        c = Exists(RoleName("r"), And(ConceptName("A"), Constant(F(1, 2))))
        assert classify_sublanguage(c, FeatureSet.none()) == frozenset(Sublanguage)

    def test_forall_excluded_from_existential(self):
        tags = classify_sublanguage(Forall(RoleName("r"), ConceptName("A")), FeatureSet.none())
        assert Sublanguage.CORE_EXISTENTIAL not in tags
        assert Sublanguage.DELTA_EXISTENTIAL not in tags
        assert Sublanguage.CORE in tags

    def test_delta_tags(self):
        tags = classify_sublanguage(Delta(ConceptName("A")), FeatureSet.none())
        assert tags == frozenset(
            {Sublanguage.EXTENDED, Sublanguage.DELTA, Sublanguage.DELTA_EXISTENTIAL}
        )
        spelled = classify_sublanguage(Not(InvNeg(ConceptName("A"))), FeatureSet.none())
        assert spelled == tags

    def test_plain_not_in_delta_but_not_delta_existential(self):
        tags = classify_sublanguage(Not(ConceptName("A")), FeatureSet.none())
        assert Sublanguage.DELTA in tags
        assert Sublanguage.DELTA_EXISTENTIAL not in tags

    def test_loose_invneg_only_extended(self):
        tags = classify_sublanguage(InvNeg(ConceptName("A")), FeatureSet.none())
        assert tags == frozenset({Sublanguage.EXTENDED})

    def test_free_implication_depends_on_q_bounds(self):
        c = Implies(ConceptName("A"), ConceptName("B"))
        without = classify_sublanguage(c, FeatureSet.none())
        with_q = classify_sublanguage(c, FeatureSet(q_bounds=frozenset({2})))
        assert Sublanguage.CORE_EXISTENTIAL not in without
        assert Sublanguage.CORE_EXISTENTIAL in with_q
        assert Sublanguage.DELTA_EXISTENTIAL not in with_q

    def test_inclusion_chains_random(self):
        rng = random.Random(41)
        for _ in range(300):
            features = random_features(rng)
            c = random_concept(
                rng, features, rng.randint(0, 3),
                individual_names=("a",), extended=True,
            )
            tags = classify_sublanguage(c, features)
            assert Sublanguage.EXTENDED in tags
            if Sublanguage.CORE_EXISTENTIAL in tags:
                assert Sublanguage.CORE in tags
            if Sublanguage.DELTA_EXISTENTIAL in tags:
                assert Sublanguage.DELTA in tags
            if Sublanguage.CORE in tags:
                assert Sublanguage.DELTA in tags


class TestPrinter:
    def test_pinned_for_every_node_class(self):
        # The round-trip tests only check parse(to_text(x)) == x; these
        # pin the text itself, parentheses included.
        a, b, r, s = ConceptName("A"), ConceptName("B"), RoleName("r"), RoleName("s")
        cases = [
            (Constant(F(1, 2)), "0.5"),
            (Constant(F(1, 3)), "1/3"),
            (a, "A"),
            (Nominal("o"), "{o}"),
            (SelfLoop("r"), "exists r . self"),
            (Not(And(a, b)), "not (A and B)"),
            (InvNeg(a), "inv A"),
            (Delta(Or(a, b)), "delta (A or B)"),
            (And(Or(a, b), b), "(A or B) and B"),
            (And(a, Or(a, b)), "A and (A or B)"),
            (Or(And(a, b), a), "A and B or A"),
            (Implies(a, Implies(b, a)), "A -> B -> A"),
            (Implies(Implies(a, b), a), "(A -> B) -> A"),
            (Exists(Compose(RoleUnion(r, s), r), a), "exists (r | s) ; r . A"),
            (Exists(Test(a), b), "exists A? . B"),
            (Forall(Star(r), Not(a)), "forall r* . not A"),
            (AtLeast(2, Inverse(r), a), ">= 2 r- . A"),
            (Less(3, r, And(a, b)), "< 3 r . (A and B)"),
            (AtLeastUnq(2, Inverse(r)), ">= 2 r-"),
            (LessUnq(1, r), "< 1 r"),
            (r, "r"),
            (Universal(), "U"),
            (Inverse(Compose(r, s)), "(r ; s)-"),
            (Star(RoleUnion(r, s)), "(r | s)*"),
            (Compose(Test(Or(a, b)), r), "(A or B)? ; r"),
            (Compose(r, Compose(s, r)), "r ; (s ; r)"),
            (RoleUnion(Compose(r, s), r), "r ; s | r"),
            (Test(a), "A?"),
        ]
        assert len({type(node) for node, _ in cases}) == 23
        for node, text in cases:
            assert to_text(node) == text, node

    def test_one_table_row_per_node_class(self):
        assert set(_NODES) == set(Concept.__subclasses__() + Role.__subclasses__())

    def test_rejects_non_expressions(self):
        with pytest.raises(InputError):
            to_text("A")


class TestStructuralKey:
    def test_pinned_for_every_node_class(self):
        # Enumeration order, and so the separators ``fdl hm`` prints,
        # follows these keys; they must not change.
        a, r = ConceptName("A"), RoleName("r")
        ka, kr = (1, "A", ()), (20, "r", ())
        cases = [
            (Constant(F(1, 2)), (0, "1/2", ())),
            (a, ka),
            (Nominal("a"), (2, "a", ())),
            (SelfLoop("r"), (3, "r", ())),
            (Not(a), (4, "", (ka,))),
            (InvNeg(a), (5, "", (ka,))),
            (Delta(a), (6, "", (ka,))),
            (And(a, Constant(F(1))), (7, "", (ka, (0, "1", ())))),
            (Or(a, a), (8, "", (ka, ka))),
            (Implies(a, a), (9, "", (ka, ka))),
            (Exists(r, a), (10, "", (kr, ka))),
            (Forall(r, a), (11, "", (kr, ka))),
            (AtLeast(2, r, a), (12, "2", (kr, ka))),
            (Less(3, r, a), (13, "3", (kr, ka))),
            (AtLeastUnq(2, Inverse(r)), (14, "2", ((22, "", (kr,)),))),
            (LessUnq(1, r), (15, "1", (kr,))),
            (r, kr),
            (Universal(), (21, "", ())),
            (Inverse(r), (22, "", (kr,))),
            (Star(r), (23, "", (kr,))),
            (Compose(r, Universal()), (24, "", (kr, (21, "", ())))),
            (RoleUnion(r, r), (25, "", (kr, kr))),
            (Test(a), (26, "", (ka,))),
        ]
        assert len({type(node) for node, _ in cases}) == 23
        for node, key in cases:
            assert structural_key(node) == key, node

    def test_rejects_non_expressions(self):
        with pytest.raises(InputError):
            structural_key("A")


def one_node_per_class():
    """Fresh nodes, one of each of the 23 classes, built anew on each call."""
    a, r = ConceptName("A"), RoleName("r")
    return [
        Constant(F(1, 2)), a, Nominal("o"), SelfLoop("r"), Not(a), InvNeg(a), Delta(a),
        And(a, a), Or(a, a), Implies(a, a), Exists(r, a), Forall(r, a), AtLeast(2, r, a),
        Less(3, r, a), AtLeastUnq(2, Inverse(r)), LessUnq(1, r), r, Universal(), Inverse(r),
        Star(r), Compose(r, Universal()), RoleUnion(r, r), Test(a),
    ]


class TestNodeSemantics:
    def test_equal_fields_give_equal_nodes_and_hashes(self):
        first, second = one_node_per_class(), one_node_per_class()
        assert len({type(node) for node in first}) == 23
        for x, y in zip(first, second):
            assert x is not y
            assert x == y and not x != y, x
            assert hash(x) == hash(y), x
            assert copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x, x
        assert len(set(first) | set(second)) == 23

    def test_class_and_fields_both_count(self):
        a, b = ConceptName("A"), ConceptName("B")
        assert And(a, b) != Or(a, b)
        assert And(a, b) != And(b, a)
        assert Implies(a, b) != Implies(a, a)
        assert AtLeast(2, RoleName("r"), a) != AtLeast(3, RoleName("r"), a)
        assert a != "A" and ConceptName("r") != RoleName("r")

    def test_fields_cannot_be_assigned(self):
        for node in one_node_per_class():
            for name in ("name", "value", "individual", "role_name", "n", "role",
                         "left", "concept", "filler"):
                if hasattr(node, name):
                    with pytest.raises(AttributeError):
                        setattr(node, name, ConceptName("B"))
                    with pytest.raises(AttributeError):
                        delattr(node, name)
            with pytest.raises(AttributeError):
                node.extra = 1

    def test_repr(self):
        a = ConceptName("A")
        assert repr(And(a, Exists(RoleName("r"), Constant(F(1, 2))))) == (
            "And(left=ConceptName(name='A'), right=Exists(role=RoleName(name='r'), "
            "filler=Constant(value=Fraction(1, 2))))"
        )
        assert repr(AtLeastUnq(2, Inverse(RoleName("r")))) == (
            "AtLeastUnq(n=2, role=Inverse(role=RoleName(name='r')))"
        )
        assert repr(Universal()) == "Universal()"
        assert repr(Test(Nominal("o"))) == "Test(concept=Nominal(individual='o'))"

    def test_checks_run_on_construction(self):
        assert Constant(1).value == 1 and type(Constant(1).value) is F
        value = Constant(value="0.5").value
        assert value == F(1, 2) and type(value) is F
        with pytest.raises(InputError):
            Constant(F(3, 2))
        r, a = RoleName("r"), ConceptName("A")
        with pytest.raises(InputError) as by_position:
            AtLeast(0, r, a)
        with pytest.raises(InputError) as by_keyword:
            AtLeast(n=0, role=r, filler=a)
        assert str(by_keyword.value) == str(by_position.value)
        with pytest.raises(InputError):
            LessUnq(1, Star(r))

    def test_structural_key_is_computed_once_per_node(self):
        for node in one_node_per_class():
            key = structural_key(node)
            assert structural_key(node) is key
        a = ConceptName("A")
        inner = structural_key(a)
        # a parent reads the key its child already keeps
        assert structural_key(And(a, Not(a)))[2][0] is inner
        assert structural_key(And(a, Not(a)))[2][1][2][0] is inner

    def test_keyword_construction_equals_positional(self):
        for node in one_node_per_class():
            rebuilt = type(node)(**{name: getattr(node, name) for name in node._fields})
            assert rebuilt == node and hash(rebuilt) == hash(node), node

    def test_construction_errors_name_the_class_and_field(self):
        a = ConceptName("A")
        with pytest.raises(TypeError) as caught:
            And(a)
        assert str(caught.value) == (
            "And.__init__() missing 1 required positional argument: 'right'"
        )
        with pytest.raises(TypeError) as caught:
            Universal(1)
        assert str(caught.value) == (
            "Universal.__init__() takes 1 positional argument but 2 were given"
        )


def one_record_per_class():
    """Fresh records, one of each of the 14 result, feature and box-item
    classes, built anew on each call, with each record's repr."""
    a, r = ConceptName("A"), RoleName("r")
    relation = FuzzyRelation(("u",), ("v",), [([0], [F(1, 2)])])
    violation = Violation("FB2", "u", "v", None, "A", None, F(1), F(1, 2))
    gci = Gci(a, Exists(r, a), ">", F(1, 2))
    same = SameIndividual("a", "b")
    violation_text = (
        "Violation(condition='FB2', x='u', x_prime='v', role=None, symbol='A', witness=None, "
        "lhs=Fraction(1, 1), rhs=Fraction(1, 2))"
    )
    relation_text = "FuzzyRelation(rows=('u',), cols=('v',))"
    gci_text = (
        "Gci(lhs=ConceptName(name='A'), rhs=Exists(role=RoleName(name='r'), "
        "filler=ConceptName(name='A')), rel='>', threshold=Fraction(1, 2))"
    )
    return [
        (FeatureSet(True, False, True, False, [2], None),
         "FeatureSet(inverse=True, nominals=False, universal=True, self_loops=False, "
         "q_bounds=frozenset({2}), n_bounds=None)"),
        (FuzzySet(("u", "v"), (F(1, 2), F(1))),
         "FuzzySet(elements=('u', 'v'), degrees=(Fraction(1, 2), Fraction(1, 1)))"),
        (violation, violation_text),
        (ConditionReport(False, (violation,)),
         f"ConditionReport(satisfied=False, violations=({violation_text},))"),
        (BisimilarityResult(False, relation, "a"),
         f"BisimilarityResult(holds=False, witness={relation_text}, failing_individual='a')"),
        (Partition((("u", "v"), ("w",)), {"u": 0, "v": 0, "w": 1}),
         "Partition(blocks=(('u', 'v'), ('w',)), block_of={'u': 0, 'v': 0, 'w': 1})"),
        (same, "SameIndividual(a='a', b='b')"),
        (DistinctIndividual("a", "c"), "DistinctIndividual(a='a', b='c')"),
        (ConceptAssertion(a, "a", "<", "0.5"),
         "ConceptAssertion(concept=ConceptName(name='A'), individual='a', cmp='<', "
         "threshold=Fraction(1, 2))"),
        (RoleAssertion(r, "a", "b", ">=", 1),
         "RoleAssertion(role=RoleName(name='r'), a='a', b='b', cmp='>=', "
         "threshold=Fraction(1, 1))"),
        (gci, gci_text),
        (KnowledgeBase((gci,), (same,)),
         f"KnowledgeBase(tbox=({gci_text},), abox=(SameIndividual(a='a', b='b'),))"),
        (ValidationResult(False, gci, "u"),
         f"ValidationResult(valid=False, failed_item={gci_text}, witness_element='u')"),
        (HmResult(relation, {("u", "v"): a}, 3),
         f"HmResult(matrix={relation_text}, separators={{('u', 'v'): ConceptName(name='A')}}, "
         "concepts_used=3)"),
    ]


# Each record class's fields, in order.
RECORD_FIELDS = {
    FeatureSet: ("inverse", "nominals", "universal", "self_loops", "q_bounds", "n_bounds"),
    FuzzySet: ("elements", "degrees"),
    Violation: ("condition", "x", "x_prime", "role", "symbol", "witness", "lhs", "rhs"),
    ConditionReport: ("satisfied", "violations"),
    BisimilarityResult: ("holds", "witness", "failing_individual"),
    Partition: ("blocks", "block_of"),
    SameIndividual: ("a", "b"),
    DistinctIndividual: ("a", "b"),
    ConceptAssertion: ("concept", "individual", "cmp", "threshold"),
    RoleAssertion: ("role", "a", "b", "cmp", "threshold"),
    Gci: ("lhs", "rhs", "rel", "threshold"),
    KnowledgeBase: ("tbox", "abox"),
    ValidationResult: ("valid", "failed_item", "witness_element"),
    HmResult: ("matrix", "separators", "concepts_used"),
}


class TestRecordSemantics:
    def test_equal_fields_give_equal_records_and_hashes(self):
        first, second = one_record_per_class(), one_record_per_class()
        assert {type(x) for x, _text in first} == set(RECORD_FIELDS)
        for (x, _text), (y, _same) in zip(first, second):
            assert x is not y
            assert x == y and not x != y, x
            assert copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x, x
            assert copy.copy(x) == x, x
            if isinstance(x, (Partition, HmResult)):  # their fields hold dicts
                with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                    hash(x)
            else:
                assert hash(x) == hash(y), x
        hashable = [x for x, _text in first + second if not isinstance(x, (Partition, HmResult))]
        assert len(set(hashable)) == 12

    def test_class_and_fields_both_count(self):
        assert SameIndividual("a", "b") != DistinctIndividual("a", "b")
        assert SameIndividual("a", "b") != SameIndividual("b", "a")
        assert SameIndividual("a", "b") != ("a", "b")
        assert FeatureSet() != FeatureSet(universal=True)
        assert Violation("FB1", "u", "v") != Violation("FB1", "u", "v", lhs=F(1))
        assert ValidationResult(True) != ConditionReport(True, None)

    def test_fields_cannot_be_assigned_or_deleted(self):
        for record, _text in one_record_per_class():
            for name in RECORD_FIELDS[type(record)] + ("extra",):
                with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                    setattr(record, name, 1)
                with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                    delattr(record, name)

    def test_repr(self):
        for record, text in one_record_per_class():
            assert repr(record) == text

    def test_positional_keyword_and_default_construction(self):
        for record, _text in one_record_per_class():
            cls = type(record)
            values = {name: getattr(record, name) for name in RECORD_FIELDS[cls]}
            assert cls(*values.values()) == record
            assert cls(**values) == record
            assert repr(cls(**values)) == repr(record)
        assert FeatureSet() == FeatureSet(False, False, False, False, frozenset(), frozenset())
        assert FeatureSet(nominals=True).nominals and FeatureSet() == FeatureSet.none()
        assert Violation("FB1", "u", "v") == Violation("FB1", "u", "v", None, None, None, 0, 0)
        relation = FuzzyRelation((), (), [])
        assert BisimilarityResult(True, relation).failing_individual is None
        assert KnowledgeBase() == KnowledgeBase((), ()) == KnowledgeBase(abox=())
        assert ValidationResult(True) == ValidationResult(True, None, None)
        assert ValidationResult(valid=True, witness_element="u").witness_element == "u"

    def test_construction_errors(self):
        a = ConceptName("A")
        cases = [
            (lambda: SameIndividual("a"),
             "SameIndividual.__init__() missing 1 required positional argument: 'b'"),
            (lambda: ConditionReport(),
             "ConditionReport.__init__() missing 2 required positional arguments: "
             "'satisfied' and 'violations'"),
            (lambda: Gci(a),
             "Gci.__init__() missing 3 required positional arguments: 'rhs', 'rel', and "
             "'threshold'"),
            (lambda: SameIndividual("a", "b", "c"),
             "SameIndividual.__init__() takes 3 positional arguments but 4 were given"),
            (lambda: Violation(*"abcdefghi"),
             "Violation.__init__() takes from 4 to 9 positional arguments but 10 were given"),
            (lambda: FeatureSet(*range(7)),
             "FeatureSet.__init__() takes from 1 to 7 positional arguments but 8 were given"),
            (lambda: SameIndividual("a", a="b"),
             "SameIndividual.__init__() got multiple values for argument 'a'"),
            (lambda: FeatureSet(inverse=True, foo=1),
             "FeatureSet.__init__() got an unexpected keyword argument 'foo'"),
        ]
        for build, message in cases:
            with pytest.raises(TypeError) as info:
                build()
            assert str(info.value) == message

    def test_checks_run_on_construction(self):
        features = FeatureSet(q_bounds=[2, 2, 3], n_bounds=(1,))
        assert features.q_bounds == frozenset({2, 3}) and type(features.q_bounds) is frozenset
        assert type(features.n_bounds) is frozenset
        assert FeatureSet(q_bounds=None).q_bounds is None
        for field, bounds in [("q_bounds", [0]), ("n_bounds", {1, -2}), ("q_bounds", [1.5])]:
            with pytest.raises(InputError) as info:
                FeatureSet(**{field: bounds})
            assert str(info.value) == f"{field} must contain positive integers"
        a, r = ConceptName("A"), RoleName("r")
        item = ConceptAssertion(a, "a", ">", "0.25")
        assert item.threshold == F(1, 4) and type(item.threshold) is F
        assert type(RoleAssertion(r, "a", "b", "<=", 1).threshold) is F
        assert type(Gci(a, a, ">=", 1).threshold) is F
        cases = [
            (lambda: ConceptAssertion(a, "a", "=", 1),
             "comparison must be one of ['<', '<=', '>', '>='], got '='"),
            (lambda: RoleAssertion(r, "a", "b", "!=", 1),
             "comparison must be one of ['<', '<=', '>', '>='], got '!='"),
            (lambda: Gci(a, a, "<=", 1), "inclusion relation must be '>=' or '>', got '<='"),
            (lambda: Gci(a, a, ">", 0), "inclusion thresholds must lie in (0, 1]"),
            (lambda: Gci(a, a, ">=", "0.0"), "inclusion thresholds must lie in (0, 1]"),
            (lambda: ConceptAssertion(a, "a", ">=", 2), "degree 2 outside [0, 1]"),
        ]
        for build, message in cases:
            with pytest.raises(InputError) as info:
                build()
            assert str(info.value) == message


class TestEnumeration:
    def test_depth_zero_leaves(self):
        got = list(iter_fragment(
            FeatureSet.none(),
            Signature(["A"], ["r"], []),
            [F(0), F(1)],
            "fuzzy",
            0,
        ))
        assert got == [Constant(F(0)), Constant(F(1)), ConceptName("A")]

    def test_depth_one_contains_single_step_closure(self):
        got = list(iter_fragment(
            FeatureSet.none(),
            Signature(["A"], ["r"], []),
            [F(0), F(1)],
            "fuzzy",
            1,
        ))
        a = ConceptName("A")
        assert Exists(RoleName("r"), a) in got
        assert Implies(a, Constant(F(1))) in got
        assert Implies(Constant(F(0)), a) in got
        # idempotent conjunctions collapse, commuted ones are deduplicated
        assert And(a, a) not in got
        assert len([c for c in got if isinstance(c, And)]) == len(
            {frozenset({to_text(c.left), to_text(c.right)}) for c in got if isinstance(c, And)}
        )

    def test_fragment_membership(self):
        features = FeatureSet(
            inverse=True, nominals=True, universal=True, self_loops=True,
            q_bounds=frozenset({2}), n_bounds=frozenset({1}),
        )
        signature = Signature(["A"], ["r"], ["a"])
        for mode, fragment in (
            ("fuzzy", Sublanguage.CORE_EXISTENTIAL), ("crisp", Sublanguage.DELTA_EXISTENTIAL),
        ):
            for c in iter_fragment(features, signature, [F(0), F(1, 2), F(1)], mode, 1, 5000):
                assert fragment in classify_sublanguage(c, features)
                validate(c, features)

    def test_budget_error(self):
        with pytest.raises(BudgetError):
            list(iter_fragment(
                FeatureSet(q_bounds=frozenset({2})),
                Signature(["A", "B"], ["r", "s"], []),
                [F(0), F(1, 2), F(1)],
                "fuzzy",
                3,
                max_concepts=500,
            ))

    def test_deterministic(self):
        args = (
            FeatureSet.none(),
            Signature(["A"], ["r"], []),
            [F(0), F(1)],
            "crisp",
            2,
        )
        assert list(iter_fragment(*args)) == list(iter_fragment(*args))

    def test_rejects_other_fragments(self):
        with pytest.raises(InputError, match="mode must be one of"):
            list(iter_fragment(
                FeatureSet.none(), Signature(["A"], ["r"], []), [F(1)], "core", 1,
            ))
