import cProfile
import fractions
import importlib.util
import json
import random
import re
import time
from fractions import Fraction as F
from math import lcm
from pathlib import Path

import pytest

import fdl.interp
from fdl import (
    ConceptAssertion,
    Constant,
    FeatureSet,
    FuzzyRelation,
    Implies,
    InputError,
    Interpretation,
    ModelError,
    Not,
    RoleAssertion,
    Star,
    Test,
    degree,
    degree_universe,
    dump_interpretation,
    eval_concept,
    load_interpretation,
    parse_concept,
    parse_role,
    prune_unreachable,
    quotient,
    reachability,
    validates,
)
from fdl.fixtures import fan_model, twin_islands
from fdl.interp import degree_objects, degree_ranks
from helpers import (
    POOL4, SPELLINGS, compose, degree_objects_oracle, degree_ranks_oracle, dense, identity,
    random_concept, random_features, random_model, random_role, rel_sup, rewrite_definable,
    role_relation,
)

PERMISSIVE = FeatureSet.permissive()

FAN_DOC = {
    "domain": ["u", "v1", "v2", "v3"],
    "individuals": {},
    "concepts": {"A": {"v1": "0.5", "v2": "0.9", "v3": "0.6"}},
    "roles": {"r": [["u", "v1", "0.9"], ["u", "v2", "0.8"], ["u", "v3", "0.7"]]},
}


class TestLoading:
    def test_document_roundtrip(self):
        model = load_interpretation(FAN_DOC)
        assert model == fan_model()
        assert load_interpretation(dump_interpretation(model)) == model

    def test_degree_out_of_range(self):
        doc = {"domain": ["u"], "concepts": {"A": {"u": "1.5"}}}
        with pytest.raises(Exception) as exc:
            load_interpretation(doc)
        assert "1.5" in str(exc.value)

    def test_unknown_edge_element(self):
        doc = {"domain": ["u"], "roles": {"r": [["u", "x", "0.5"]]}}
        with pytest.raises(ModelError):
            load_interpretation(doc)

    def test_empty_domain(self):
        with pytest.raises(ModelError):
            load_interpretation({"domain": []})

    def test_duplicate_edges(self):
        doc = {"domain": ["u"], "roles": {"r": [["u", "u", "0.5"], ["u", "u", "0.6"]]}}
        with pytest.raises(ModelError):
            load_interpretation(doc)

    def test_duplicate_edge_with_zero_degree(self):
        doc = {"domain": ["u"], "roles": {"r": [["u", "u", "0"], ["u", "u", "0.6"]]}}
        with pytest.raises(ModelError):
            load_interpretation(doc)

    @pytest.mark.parametrize("second", ["0.5", "1", "0"])
    def test_role_pair_listed_twice_is_refused(self, second):
        doc = {"domain": ["u", "v"], "roles": {"r": [["u", "v", "1"], ["u", "v", second]]}}
        with pytest.raises(ModelError) as raised:
            load_interpretation(doc)
        assert str(raised.value) == "role 'r' lists the pair (u, v) twice"

    def test_zero_degree_edge_is_dropped(self):
        with_zero = load_interpretation(
            {"domain": ["u", "v"], "roles": {"r": [["u", "v", "0"], ["v", "u", "1/2"]]}}
        )
        without = load_interpretation(
            {"domain": ["u", "v"], "roles": {"r": [["v", "u", "1/2"]]}}
        )
        assert with_zero == without
        assert with_zero.successors("r") == ((), ((0, F(1, 2)),))
        assert json.dumps(dump_interpretation(with_zero)) == json.dumps(
            dump_interpretation(without)
        )

    def test_missing_role_is_all_zero(self):
        model = load_interpretation({"domain": ["u"], "concepts": {"A": {"u": "1"}}})
        assert model.successors("s") == ((),)

    def test_float_degree_rejected(self):
        with pytest.raises(Exception):
            load_interpretation({"domain": ["u"], "concepts": {"A": {"u": 0.5}}})

    def test_unknown_individual_target(self):
        with pytest.raises(ModelError):
            Interpretation(["u"], individuals={"a": "x"})

    @pytest.mark.parametrize("first, second", [("1", 1.0), (1, True), ("1", True), (0, False)])
    def test_floats_and_bools_refused_after_equal_degrees(self, first, second):
        # each degree text is parsed once per model; equal values of
        # other types must still be refused
        doc = {"domain": ["u", "v"], "concepts": {"A": {"u": first, "v": second}}}
        with pytest.raises(InputError):
            load_interpretation(doc)

    def test_repeated_degree_texts_parse_alike(self):
        doc = {"domain": ["u", "v"], "concepts": {"A": {"u": "0.5", "v": "1/2"}},
               "roles": {"r": [["u", "v", "0.5"], ["v", "u", "0.5"]]}}
        model = load_interpretation(doc)
        assert model.concept_row("A") == (F(1, 2), F(1, 2))
        assert model.successors("r") == (((1, F(1, 2)),), ((0, F(1, 2)),))

    @pytest.mark.parametrize("doc", [
        {"domain": ["u"], "roles": {"r": [["u", "u"]]}},
        {"domain": ["u"], "roles": {"r": {"u": "1"}}},
        {"domain": ["u"], "roles": {"r": "u"}},
        {"domain": ["u"], "roles": {"r": [[["u"], "u", "1"]]}},
        {"domain": ["u"], "roles": [["u", "u", "1"]]},
        {"domain": ["u"], "concepts": {"A": ["u"]}},
        {"domain": ["u"], "concepts": [["u"]]},
        {"domain": ["u"], "individuals": ["a"]},
        {"domain": ["u"], "individuals": {"a": ["u"]}},
        {"domain": [1, 2]},
        {"domain": "uv"},
        {"domain": {"u": 1}},
        # a present section is an object, even when empty or null
        {"domain": ["u"], "concepts": []},
        {"domain": ["u"], "concepts": ""},
        {"domain": ["u"], "concepts": None},
        {"domain": ["u"], "roles": 0},
        {"domain": ["u"], "roles": None},
        {"domain": ["u"], "individuals": False},
        {"domain": ["u"], "individuals": None},
    ])
    def test_malformed_shapes_are_model_errors(self, doc):
        with pytest.raises(ModelError):
            load_interpretation(doc)

    @pytest.mark.parametrize("doc, message", [
        ({"domain": ["u"], "concepts": None}, "concepts must be a JSON object, got null"),
        ({"domain": ["u"], "roles": ["a"]}, 'roles must be a JSON object, got ["a"]'),
        ({"domain": ["u"], "individuals": {"a": False}},
         "individual 'a' maps to unknown element false"),
        ({"domain": ["u"], "roles": {"r": [["u", "u"]]}},
         """role 'r': an entry must be [x, y, degree], got ["u", "u"]"""),
    ])
    def test_malformed_values_are_spelled_as_json(self, doc, message):
        with pytest.raises(ModelError) as raised:
            load_interpretation(doc)
        assert str(raised.value) == message

    def test_library_role_forms_still_accepted(self):
        model = fan_model()
        triples = list(model.edges("r"))
        for roles in ({"r": triples}, {"r": tuple(triples)}):
            assert Interpretation(model.domain, concepts={"A": dict(zip(
                model.domain, model.concept_row("A")))}, roles=roles) == model

    def test_mapping_and_relation_roles_refused(self):
        # a role is a list of [x, y, degree] edges and nothing else
        model = fan_model()
        for value in ({(x, y): d for x, y, d in model.edges("r")},
                      identity(model.domain)):
            with pytest.raises(ModelError):
                Interpretation(model.domain, roles={"r": value})


class TestEvaluation:
    def test_fan_values(self):
        model = fan_model()
        cases = [
            ("forall r . A", {"u": F(1, 2)}),
            ("exists r . A", {"u": F(4, 5)}),
            ("< 2 r . A", {"u": F(0)}),
            (">= 2 r . A", {"u": F(3, 5)}),
            ("exists (r | r-)* . A", {"v1": F(4, 5), "v2": F(9, 10), "v3": F(7, 10)}),
            ("forall (r | r-)* . A", {"v1": F(0), "v2": F(0), "v3": F(0)}),
        ]
        for text, expected in cases:
            values = eval_concept(model, parse_concept(text))
            for element, want in expected.items():
                assert values.at(element) == want, text

    def test_star_entry_via_both_directions(self):
        model = fan_model()
        closure = role_relation(model, parse_role("(r | r-)*"))
        assert closure.at("v1", "v2") == F(4, 5)
        for x in model.domain:
            assert closure.at(x, x) == 1

    def test_test_role_diagonal(self):
        model = fan_model()
        rel = role_relation(model, Test(Constant(F(1, 2))))
        for x in model.domain:
            for y in model.domain:
                assert rel.at(x, y) == (F(1, 2) if x == y else 0)

    def test_unqualified_uses_top_filler(self):
        model = fan_model()
        assert eval_concept(model, parse_concept(">= 2 r")).at("u") == F(4, 5)
        assert eval_concept(model, parse_concept(">= 2 r . 1")).at("u") == F(4, 5)
        assert eval_concept(model, parse_concept("< 4 r")).at("u") == 1
        assert eval_concept(model, parse_concept("< 3 r")).at("u") == 0

    def test_restriction_beyond_domain_size_is_zero(self):
        model = fan_model()
        assert eval_concept(model, parse_concept(">= 5 r . A")).at("u") == 0

    def test_nominal_and_unknown_individual(self):
        model = twin_islands()
        values = eval_concept(model, parse_concept("{a}"))
        assert values.at("u") == 1 and values.at("v1") == 0
        with pytest.raises(ModelError):
            eval_concept(model, parse_concept("{missing}"))

    def test_unknown_element_is_named(self):
        values = eval_concept(fan_model(), parse_concept("A"))
        with pytest.raises(ModelError, match="unknown element 'zz'"):
            values.at("zz")

    def test_star_fixpoint_equation(self):
        rng = random.Random(47)
        for _ in range(25):
            model = random_model(rng, "x", rng.randint(1, 4), POOL4, role_names=("r", "s"))
            role = random_role(
                rng, PERMISSIVE, ("r", "s"), 2,
                lambda g, d: random_concept(g, PERMISSIVE, max(d, 0), POOL4, role_names=("r", "s")),
            )
            star = role_relation(model, Star(role))
            assert star == rel_sup([identity(model.domain), compose(role_relation(model, role), star)])

    def test_crisp_model_crisp_values(self):
        rng = random.Random(53)
        pool = (F(0), F(1))
        for _ in range(40):
            model = random_model(rng, "x", rng.randint(1, 4), pool, individual_names=("a",))
            features = random_features(rng)
            c = random_concept(
                rng, features, rng.randint(0, 3), pool, individual_names=("a",)
            )
            for _x, v in eval_concept(model, c):
                assert v in (F(0), F(1))

    def test_values_stay_in_complement_closure(self):
        rng = random.Random(59)
        for _ in range(40):
            model = random_model(rng, "x", rng.randint(1, 4), POOL4, individual_names=("a",))
            features = random_features(rng)
            c = random_concept(
                rng, features, rng.randint(0, 3), POOL4,
                individual_names=("a",), extended=True,
            )
            base = set(degree_universe(model)) | set(POOL4)
            closure = base | {1 - v for v in base}
            for _x, v in eval_concept(model, c):
                assert v in closure

    def test_definable_rewrites_agree(self):
        rng = random.Random(61)
        a = parse_concept("A")
        for _ in range(100):
            model = random_model(rng, "x", rng.randint(1, 4), POOL4, individual_names=("a",))
            features = random_features(rng)
            c = random_concept(
                rng, features, rng.randint(0, 3), POOL4,
                individual_names=("a",), extended=True,
            )
            original = eval_concept(model, c)
            rewritten = eval_concept(model, rewrite_definable(c))
            assert tuple(original) == tuple(rewritten)
            assert tuple(eval_concept(model, Not(c))) == tuple(
                eval_concept(model, Implies(c, Constant(F(0))))
            )


class TestReachability:
    def test_island_reachability(self):
        model = twin_islands()
        reachable, connected = reachability(model, FeatureSet.none())
        assert reachable == {"u", "v1", "v2", "v3"}
        assert not connected
        with_inverse, connected2 = reachability(model, FeatureSet(inverse=True))
        assert with_inverse == reachable and not connected2

    def test_no_individuals(self):
        reachable, connected = reachability(fan_model(), FeatureSet.none())
        assert reachable == frozenset()
        assert not connected

    def test_connected_model(self):
        model = Interpretation(
            ["u", "v"], {"a": "u"}, roles={"r": [("u", "v", F(1, 2))]}
        )
        assert reachability(model, FeatureSet.none()) == ({"u", "v"}, True)


class TestDegreeTableAgainstOracle:
    """A model keeps a table of its degree objects: ``degree_objects`` holds
    exactly the objects that the walk of ``helpers.degree_objects_oracle``
    finds in its cells and edges, and ``degree_ranks`` ranks them alike."""

    @staticmethod
    def spelled(rng):
        """A document whose concept cells and edges use every spelling, and
        a twin of one element, its degrees spelled anew, that a quotient
        merges into it unless other elements tell them apart."""
        domain = [f"u{i}" for i in range(rng.randint(3, 5))]
        cells = [("A", x) for x in domain] + [("B", x) for x in domain]
        cells += [(name, x, y) for name in "rs" for x in domain for y in domain]
        rng.shuffle(cells)
        spellings = list(SPELLINGS) + [rng.choice(SPELLINGS) for _ in cells[len(SPELLINGS):]]
        document = {"domain": domain, "individuals": {"a": domain[0]},
                    "concepts": {"A": {}, "B": {}}, "roles": {"r": [], "s": []}}
        for cell, spelling in zip(cells, spellings):
            if len(cell) == 2:
                document["concepts"][cell[0]][cell[1]] = spelling
            else:
                document["roles"][cell[0]].append([cell[1], cell[2], spelling])

        def equal(spelling):
            return rng.choice([e for e in SPELLINGS if degree(e) == degree(spelling)])

        x = rng.choice(domain)
        for valuation in document["concepts"].values():
            if x in valuation:
                valuation["t"] = equal(valuation[x])
        for edges in document["roles"].values():
            edges += [["t", y, equal(d)] for z, y, d in edges if z == x]
        document["domain"].append("t")
        return load_interpretation(document)

    @staticmethod
    def api(rng):
        """A model given Fraction and int degrees, a fresh object each, int 0
        in a concept and an edge."""
        domain = [f"v{i}" for i in range(rng.randint(2, 5))]

        def value():
            return rng.choice((0, 1, F(0), F(1), F(rng.randint(1, 5), 6)))

        concepts = {"A": {x: value() for x in domain}, "B": {domain[0]: 0}}
        edges = [(x, y, value()) for x in domain for y in domain[1:] if rng.random() < 0.6]
        edges.append((domain[0], domain[0], 0))
        return Interpretation(domain, {"b": domain[-1]}, concepts, {"r": edges})

    @staticmethod
    def check(*models):
        for model in models:
            found, walked = degree_objects(model), degree_objects_oracle(model)
            assert found.keys() == walked.keys()
            assert all(found[key] is d for key, d in walked.items())
        universe, rank = degree_ranks(*models)
        assert (universe, rank) == degree_ranks_oracle(*models)

    def test_four_kinds_of_model(self):
        rng = random.Random(34)
        features = FeatureSet.parse("")
        for _ in range(60):
            models = [self.spelled(rng), self.api(rng)]
            models += [quotient(m, features) for m in models]
            models += [prune_unreachable(m, features) for m in models[:2]]
            for m in models:
                self.check(m)
            for m1, m2 in zip(models, models[1:] + models[:1]):
                self.check(m1, m2)


class TestNoDenseRole:
    """Evaluation pushes vectors through roles and builds no n x n role."""

    CONCEPTS = [
        "1/2", "A", "{a}", "not A", "inv A", "delta A", "A and B", "A or B",
        "A -> B", "exists r . A", "forall r- . A", "exists r . self",
        ">= 2 r . A", "< 2 r- . B", ">= 2 r", "< 3 r-",
        "exists U . A", "forall (r ; s-) . B", "exists (r | s) . A",
        "forall (A? ; r)* . B", "exists ((r | s-)* ; (B? ; U)) . A",
    ]

    @pytest.fixture
    def built(self, monkeypatch):
        instances = []
        init = FuzzyRelation.__init__

        def counting(self, *args):
            init(self, *args)
            instances.append(self)

        monkeypatch.setattr(FuzzyRelation, "__init__", counting)
        return instances

    @staticmethod
    def model():
        return random_model(
            random.Random(71), "x", 50, POOL4, concept_names=("A", "B"),
            role_names=("r", "s"), individual_names=("a", "b"), density=0.06,
        )

    def test_concepts_and_role_assertions_build_none(self, built):
        model = self.model()
        evaluator = fdl.interp.ConceptEvaluator(model)
        for text in self.CONCEPTS:
            assert len(evaluator.concept_values(parse_concept(text))) == 50
        box = [RoleAssertion(parse_role("(r ; s-)*"), "a", "b", ">=", F(0))]
        assert validates(model, box).valid
        assert built == []
        # the counter sees a relation that is built
        FuzzyRelation(model.domain, model.domain, [([], []) for _ in model.domain])
        assert len(built) == 1


class TestLongChain:
    """Quantifiers over paths on a 2000-element r-chain, against closed forms.

    Edges x_i -> x_{i+1} have degree 4/5, except a weak link of 3/10 out of
    x_1500.  A is 1/2 everywhere except 1/5 at x_300, 1 at x_1000 and 9/10
    at x_1700.
    """

    N = 2000
    SPECIAL = {300: F(1, 5), 1000: F(1), 1700: F(9, 10)}

    @classmethod
    def model(cls):
        domain = [f"x{i}" for i in range(cls.N)]
        edges = [
            (domain[i], domain[i + 1], F(3, 10) if i == 1500 else F(4, 5))
            for i in range(cls.N - 1)
        ]
        a = {x: cls.SPECIAL.get(i, F(1, 2)) for i, x in enumerate(domain)}
        return Interpretation(
            domain, {"a": domain[0], "b": domain[-1]}, {"A": a}, {"r": edges}
        )

    def expected(self, text, i):
        n, a = self.N, self.SPECIAL
        if text == "exists (r ; r) . A":
            if i >= n - 2:
                return F(0)
            if i in (1499, 1500):
                return F(3, 10)
            return {298: F(1, 5), 998: F(4, 5), 1698: F(4, 5)}.get(i, F(1, 2))
        if text == "exists r* . A":
            if i in a and i != 300:
                return a[i]
            if i < 1000 or 1500 < i < 1700:
                return F(4, 5)
            return F(1, 2)
        if text == "forall r* . A":
            return F(1, 5) if i <= 300 else F(1, 2)
        if text == "exists (r | r-)* . A":
            return a[i] if i in (1000, 1700) else F(4, 5)
        raise KeyError(text)

    def test_paths_match_closed_forms(self):
        model = self.model()
        start = time.perf_counter()
        for text in (
            "exists (r ; r) . A", "exists r* . A", "forall r* . A", "exists (r | r-)* . A",
        ):
            values = eval_concept(model, parse_concept(text)).degrees
            assert list(values) == [self.expected(text, i) for i in range(self.N)], text
        # r*(x_0, x_1999) crosses the weak link; nothing leads back
        star = parse_role("r*")
        assert validates(model, [RoleAssertion(star, "a", "b", ">=", F(3, 10))]).valid
        assert not validates(model, [RoleAssertion(star, "a", "b", ">", F(3, 10))]).valid
        assert validates(model, [RoleAssertion(star, "b", "a", "<=", F(0))]).valid
        assert time.perf_counter() - start < 10


def _load_reference():
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("fdl_bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestAgainstReference:
    """The evaluator against the benchmark's reference evaluator, which
    shares no code with ``fdl``, on random models and expressions."""

    POOL = (F(0), F(1, 4), F(2, 5), F(1, 2), F(3, 4), F(1))

    def document(self, rng, ref):
        size = rng.randint(1, 8)
        domain = [f"e{i}" for i in range(size)]
        density = rng.choice([0.15, 0.35, 0.6])
        return {
            "domain": domain,
            "individuals": {"a": rng.choice(domain), "b": rng.choice(domain)},
            "concepts": {
                name: {x: ref.degree_text(rng.choice(self.POOL)) for x in domain}
                for name in ("A", "B")
            },
            "roles": {
                name: [
                    [x, y, ref.degree_text(rng.choice(self.POOL[1:]))]
                    for x in domain for y in domain if rng.random() < density
                ]
                for name in ("r", "s")
            },
        }

    def basic(self, rng):
        role = ("role", rng.choice("rs"))
        return ("invr", role) if rng.random() < 0.4 else role

    def role(self, rng, depth):
        if depth <= 0:
            return self.basic(rng)
        kind = rng.choice(["basic", "invr", "comp", "union", "star", "test"])
        if kind == "basic":
            return self.basic(rng)
        if kind in ("invr", "star"):
            return (kind, self.role(rng, depth - 1))
        if kind == "test":
            return ("test", self.concept(rng, depth - 1))
        return (kind, self.role(rng, depth - 1), self.role(rng, depth - 1))

    def concept(self, rng, depth):
        leaves = ["const", "atom", "nom"]
        kind = rng.choice(leaves if depth <= 0 else leaves + [
            "not", "inv", "delta", "and", "or", "imp", "exists", "forall",
            "atleast", "less", "atleastu", "lessu",
        ])
        if kind == "const":
            return ("const", rng.choice(self.POOL))
        if kind == "atom":
            return ("atom", rng.choice("AB"))
        if kind == "nom":
            return ("nom", rng.choice("ab"))
        if kind in ("not", "inv", "delta"):
            return (kind, self.concept(rng, depth - 1))
        if kind in ("and", "or", "imp"):
            return (kind, self.concept(rng, depth - 1), self.concept(rng, depth - 1))
        if kind in ("exists", "forall"):
            return (kind, self.role(rng, depth - 1), self.concept(rng, depth - 1))
        n = rng.randint(1, 3)
        if kind in ("atleast", "less"):
            return (kind, n, self.basic(rng), self.concept(rng, depth - 1))
        return (kind, n, self.basic(rng))

    def test_random_models(self):
        ref = _load_reference()
        rng = random.Random(2026)
        for _ in range(300):
            doc = self.document(rng, ref)
            model = load_interpretation(doc)
            mine = fdl.interp.ConceptEvaluator(model)
            theirs = ref.Evaluator(ref.Model(doc))
            for _ in range(8):
                c = self.concept(rng, rng.randint(1, 4))
                want = theirs.concept(c)
                got = mine.concept_values(parse_concept(ref.text(c)))
                assert list(got) == want, ref.text(c)
                # the reference has no universal role and no self loops
                top = mine.concept_values(parse_concept(f"exists U . {ref.text(c)}"))
                assert set(top) == {max(want)}
                assert mine.concept_values(parse_concept(f"exists U- . {ref.text(c)}")) == top
                bottom = mine.concept_values(parse_concept(f"forall U . {ref.text(c)}"))
                assert set(bottom) == {min(want)}
            for name in ("r", "s"):
                loops = [row.get(i, F(0)) for i, row in enumerate(theirs.role(("role", name)))]
                got = mine.concept_values(parse_concept(f"exists {name} . self"))
                assert list(got) == loops
            for _ in range(2):
                r = self.role(rng, rng.randint(1, 3))
                got = dense(role_relation(model, parse_role(ref.text(r))))
                want = [
                    [row.get(j, F(0)) for j in range(len(doc["domain"]))]
                    for row in theirs.role(r)
                ]
                assert [list(row) for row in got] == want, ref.text(r)


class TestIntegerScale:
    """The integer evaluator against the reference evaluator where L must
    grow: model degrees mix hundredths with thirds and sevenths, constants
    bring denominators that do not divide L, nested ``inv`` leaves the
    model's degrees, and ``U``, ``Self``, ``*`` and tests sit inside roles.

    The reference has no ``U`` and no ``Self``.  In its documents the role
    ``u`` relates every pair at 1 and stands for ``U``, and the concept
    ``Sr`` holds each element's r-loop and stands for ``exists r . self``.
    """

    MODEL = (F(0), F(1, 100), F(37, 100), F(99, 100), F(1, 3), F(2, 3), F(1, 7), F(6, 7), F(1))
    CONSTANTS = (F(0), F(1, 2), F(4, 9), F(5, 8), F(2, 11), F(37, 100), F(1))
    CMPS = (">=", "<=", ">", "<")

    def document(self, rng, ref):
        domain = [f"e{i}" for i in range(rng.randint(1, 6))]
        pool = rng.sample(self.MODEL, rng.randint(2, len(self.MODEL)))
        positive = [d for d in pool if d] or [F(1)]
        density = rng.choice([0.2, 0.4, 0.7])
        roles = {
            name: [
                [x, y, ref.degree_text(rng.choice(positive))]
                for x in domain for y in domain if rng.random() < density
            ]
            for name in "rs"
        }
        concepts = {
            name: {x: ref.degree_text(rng.choice(pool)) for x in domain} for name in "AB"
        }
        for name in "rs":
            concepts[f"S{name}"] = {x: d for x, y, d in roles[name] if x == y}
        roles["u"] = [[x, y, "1"] for x in domain for y in domain]
        return {"domain": domain, "individuals": {"a": domain[0], "b": domain[-1]},
                "concepts": concepts, "roles": roles}

    def role(self, rng, depth, pool):
        kind = rng.choice(["basic", "univ"] + (
            ["invr", "comp", "union", "star", "test"] if depth > 0 else []))
        if kind == "basic":
            role = ("role", rng.choice("rs"))
            return ("invr", role) if rng.random() < 0.4 else role
        if kind == "univ":
            return ("role", "u")
        if kind in ("invr", "star"):
            return (kind, self.role(rng, depth - 1, pool))
        if kind == "test":
            return ("test", self.concept(rng, depth - 1, pool))
        return (kind, self.role(rng, depth - 1, pool), self.role(rng, depth - 1, pool))

    def concept(self, rng, depth, pool):
        leaves = ["const", "atom", "self", "nom"]
        kind = rng.choice(leaves if depth <= 0 else leaves + [
            "not", "inv", "inv", "delta", "and", "or", "imp", "exists", "forall",
            "atleast", "less",
        ])
        if kind == "const":
            return ("const", rng.choice(pool))
        if kind == "atom":
            return ("atom", rng.choice("AB"))
        if kind == "self":
            return ("atom", rng.choice(["Sr", "Ss"]))
        if kind == "nom":
            return ("nom", rng.choice("ab"))
        if kind in ("not", "delta"):
            return (kind, self.concept(rng, depth - 1, pool))
        if kind == "inv":
            inner = self.concept(rng, depth - 1, pool)
            return ("inv", ("and", ("inv", inner), self.concept(rng, depth - 1, pool)))
        if kind in ("and", "or", "imp"):
            return (kind, self.concept(rng, depth - 1, pool), self.concept(rng, depth - 1, pool))
        if kind in ("exists", "forall"):
            return (kind, self.role(rng, depth - 1, pool), self.concept(rng, depth - 1, pool))
        role = ("role", rng.choice("rs"))
        return (kind, rng.randint(1, 3), role, self.concept(rng, depth - 1, pool))

    @staticmethod
    def text(ref, expr) -> str:
        text = re.sub(r"\bu\b", "U", ref.text(expr))
        return re.sub(r"\bS([rs])\b", r"(exists \1 . self)", text)

    def test_random_models(self):
        ref = _load_reference()
        rng = random.Random(1212)
        grown = fresh = 0
        for _ in range(300):
            doc = self.document(rng, ref)
            model = load_interpretation(doc)
            held = set(degree_universe(model))
            top = lcm(*(v.denominator for v in held))
            mine = fdl.interp.ConceptEvaluator(model)
            theirs = ref.Evaluator(ref.Model(doc))
            for _ in range(6):
                c = self.concept(rng, rng.randint(1, 4), self.CONSTANTS)
                got = mine.concept_values(parse_concept(self.text(ref, c)))
                assert list(got) == theirs.concept(c), self.text(ref, c)
                grown += any(top % v.denominator for v in got)
                fresh += any(v not in held for v in got)
            for _ in range(2):
                r = self.role(rng, rng.randint(1, 3), self.CONSTANTS)
                got = dense(role_relation(model, parse_role(self.text(ref, r))))
                want = [
                    [row.get(j, F(0)) for j in range(len(doc["domain"]))]
                    for row in theirs.role(r)
                ]
                assert [list(row) for row in got] == want, self.text(ref, r)
        assert grown > 100 and fresh > 200

    def test_box_whose_later_items_grow_l(self):
        ref = _load_reference()
        rng = random.Random(1213)
        for _ in range(100):
            doc = self.document(rng, ref)
            model = load_interpretation(doc)
            theirs = ref.Evaluator(ref.Model(doc))
            a = theirs.m.individuals["a"]
            items = []
            for k in range(5):
                # the first items keep to the model's denominators
                pool = self.MODEL if k < 2 else self.CONSTANTS
                c = self.concept(rng, rng.randint(1, 3), pool)
                if k % 2:
                    r = self.role(rng, rng.randint(1, 2), pool)
                    value = theirs.edge(r, a, theirs.m.individuals["b"])
                    expr = parse_role(self.text(ref, r))
                    items.append(RoleAssertion(expr, "a", "b", rng.choice(self.CMPS), value))
                else:
                    value = theirs.concept(c)[a]
                    expr = parse_concept(self.text(ref, c))
                    items.append(ConceptAssertion(expr, "a", rng.choice(self.CMPS), value))
            verdicts = [validates(model, [item]).valid for item in items]
            assert verdicts == [item.cmp in (">=", "<=") for item in items]
            failed = next((item for item, ok in zip(items, verdicts) if not ok), None)
            assert validates(model, items).failed_item == failed


def fraction_calls(run):
    """The calls into ``fractions`` while ``run()`` runs."""
    profiler = cProfile.Profile()
    profiler.enable()
    run()
    profiler.disable()
    return sum(
        entry.callcount for entry in profiler.getstats()
        if not isinstance(entry.code, str) and entry.code.co_filename == fractions.__file__
    )


class TestFractionCalls:
    """Grading calls into ``fractions`` per distinct degree, not per edge."""

    @staticmethod
    def sparse_document():
        """200 elements, two concepts, two roles of 3 edges per element, and
        about 100 distinct degree texts."""
        rng = random.Random(12)
        domain = [f"e{i}" for i in range(200)]
        return {
            "domain": domain,
            "concepts": {
                name: {x: f"{rng.randint(1, 100) / 100}" for x in domain} for name in "AB"
            },
            "roles": {
                name: [[x, y, f"{rng.randint(1, 100) / 100}"] for x in domain
                       for y in rng.sample(domain, 3)]
                for name in ("r", "s")
            },
        }

    def test_sparse_model(self):
        model = load_interpretation(json.dumps(self.sparse_document()))
        assert sum(map(len, model.roles["r"] + model.roles["s"])) == 1200
        distinct = len(fdl.interp.degree_objects(model))
        concept = parse_concept(
            "(exists r . forall s- . (A -> 1/3)) or (>= 2 r . inv B) or forall (r | s)* . A"
        )
        assert fraction_calls(lambda: eval_concept(model, concept)) <= 4 * distinct

    def test_loading_reads_each_degree_text_once(self):
        doc = self.sparse_document()
        texts = {d for row in doc["concepts"].values() for d in row.values()}
        texts.update(d for edges in doc["roles"].values() for _x, _y, d in edges)
        text = json.dumps(doc)
        load_interpretation(text)  # fills parse_degree's cache
        assert fraction_calls(lambda: load_interpretation(text)) <= len(texts)
