import random
from fractions import Fraction as F

import pytest

from fdl import FuzzyRelation, InputError, Interpretation, ModelError, degree
from helpers import (
    SPELLINGS, cap, cells, compose, constant, dense, from_matrix, identity, inverse,
    oracle_lines, pointwise_leq, read_triples_oracle, rel_sup,
)


def random_relation(rng, rows, cols):
    return from_matrix(rows, cols, [[F(rng.randint(0, 4), 4) for _ in cols] for _ in rows])


class TestBasics:
    def test_from_entries_defaults_zero(self):
        rel = FuzzyRelation.from_entries(["u"], ["v", "w"], [("u", "v", F(9, 10))])
        assert rel.at("u", "v") == F(9, 10)
        assert rel.at("u", "w") == 0

    def test_unknown_elements_rejected(self):
        with pytest.raises(InputError):
            FuzzyRelation.from_entries(["u"], ["v"], [("x", "v", F(1))])

    def test_lookup_names_an_unknown_element(self):
        rel = identity(["u", "v"])
        for x, y in (("zz", "u"), ("u", "zz")):
            with pytest.raises(InputError, match="unknown element 'zz'"):
                rel.at(x, y)

    def test_crisp_detection(self):
        assert identity(["a", "b"]).is_crisp()
        assert not constant(["a"], ["b"], F(1, 2)).is_crisp()


class TestSparseEntries:
    """A relation is its nonzero entries: a pair listed at 0 is absent."""

    def test_explicit_zero_equals_absent(self):
        listed = FuzzyRelation.from_entries(
            ["u", "v"], ["w"], [("u", "w", "0"), ("v", "w", "1/2")]
        )
        absent = FuzzyRelation.from_entries(["u", "v"], ["w"], [("v", "w", "0.5")])
        assert listed == absent and hash(listed) == hash(absent)
        assert listed.at("u", "w") == 0
        assert list(listed.nonzero()) == [("v", "w", F(1, 2))]
        assert listed != FuzzyRelation.from_entries(["u", "v"], ["w"], [("u", "w", "1/2")])

    def test_nonzero_is_row_major_whatever_the_document_order(self):
        rng = random.Random(23)
        rows, cols = ["c", "a", "b"], ["z", "x", "y", "w"]
        for _ in range(10):
            rel = random_relation(rng, rows, cols)
            listed = [(x, y, v) for x, y, v in cells(rel) if v]
            shuffled = [list(t) for t in listed]
            rng.shuffle(shuffled)
            again = FuzzyRelation.from_entries(rows, cols, shuffled)
            assert list(again.nonzero()) == list(rel.nonzero()) == listed
            assert again == rel and hash(again) == hash(rel)
            assert dense(again) == [[rel.at(x, y) for y in cols] for x in rows]

    def test_crisp_on_the_entries(self):
        assert FuzzyRelation.from_entries(["u"], ["v", "w"], [("u", "v", "0")]).is_crisp()
        assert FuzzyRelation.from_entries(["u"], ["v", "w"], [("u", "w", "1")]).is_crisp()
        assert FuzzyRelation(["u"], ["v"], [([], [])]).is_crisp()
        assert not FuzzyRelation.from_entries(
            ["u"], ["v", "w"], [("u", "v", "1"), ("u", "w", "0.25")]
        ).is_crisp()


# entries of each kind of fault, given the first entry of the list
FAULTS = {
    # the last three unpack: a shape test must refuse the 3-key object, whose
    # keys are known elements, and name the other two by their shape
    "shape": lambda rng, first: rng.choice(
        (["u0"], ("u0", "u0", "1", "1"), [["u0"], "u0", "1"], "u0", None,
         {"u0": "1", "u1": "1", "u2": "1"}, [0, "u0", "1"], [True, "u0", "1"])),
    "unknown": lambda rng, first: rng.choice((["zz", "u0", "1"], ("u0", "zz", "0"))),
    "twice": lambda rng, first: [first[0], first[1], rng.choice(SPELLINGS)],
    "degree": lambda rng, first: ["u0", "u0", rng.choice(("2", "1/0", "0.5.", "-1", 0.5, True,
                                                         None, ["1"], " "))],
}


def random_entries(rng, rows, cols):
    """A shuffled list of ``[x, y, degree]`` over distinct pairs, each a
    list or a tuple, its degree a random spelling."""
    pairs = [(x, y) for x in rows for y in cols if rng.random() < 0.6]
    rng.shuffle(pairs)
    return [rng.choice((list, tuple))((x, y, rng.choice(SPELLINGS))) for x, y in pairs]


def raised(read):
    """The class and message of what ``read()`` raises."""
    with pytest.raises((InputError, ModelError)) as info:
        read()
    return type(info.value), str(info.value)


class TestReaderAgainstOracle:
    """Roles and candidates read as the dict-based reader of
    ``helpers.read_triples_oracle`` reads them, and a faulty list raises its
    exception."""

    def test_roles_and_concepts(self):
        rng = random.Random(29)
        for _ in range(200):
            domain = [f"u{i}" for i in range(rng.randint(1, 5))]
            index = {x: i for i, x in enumerate(domain)}
            roles = {name: random_entries(rng, domain, domain) for name in "rs"}
            concepts = {"A": {x: rng.choice(SPELLINGS) for x in domain if rng.random() < 0.7}}
            model = Interpretation(domain, {}, concepts, roles)
            for name, entries in roles.items():
                read = read_triples_oracle(entries, index, index, f"role {name!r}", ModelError)
                assert model.roles[name] == tuple(map(tuple, oracle_lines(read, len(domain))))
            assert model.concepts["A"] == tuple(degree(concepts["A"].get(x, 0)) for x in domain)

    def test_candidates(self):
        rng = random.Random(31)
        for _ in range(200):
            rows = [f"u{i}" for i in range(rng.randint(1, 5))]
            cols = [f"v{j}" for j in range(rng.randint(1, 5))]
            entries = random_entries(rng, rows, cols)
            read = read_triples_oracle(entries, {x: i for i, x in enumerate(rows)},
                                       {y: j for j, y in enumerate(cols)}, "relation", InputError)
            expected = FuzzyRelation(rows, cols, [
                ([j for j, _d in line], [d for _j, d in line])
                for line in oracle_lines(read, len(rows))
            ])
            got = FuzzyRelation.from_entries(rows, cols, entries)
            assert got.lines == expected.lines and got == expected

    @pytest.mark.parametrize("second", list(FAULTS))
    @pytest.mark.parametrize("first", list(FAULTS))
    def test_two_faults_raise_as_the_oracle(self, first, second):
        rng = random.Random(f"{first} {second}")
        domain = ["u0", "u1", "u2"]
        index = {x: i for i, x in enumerate(domain)}
        for _ in range(20):
            entries = random_entries(rng, domain, domain) or [["u1", "u2", "1"]]
            k1 = rng.randint(1, len(entries))
            k2 = rng.randint(k1, len(entries))
            head = entries[0]
            entries = (entries[:k1] + [FAULTS[first](rng, head)] + entries[k1:k2]
                       + [FAULTS[second](rng, head)] + entries[k2:])
            role = raised(lambda: read_triples_oracle(entries, index, index, "role 'r'",
                                                      ModelError))
            assert raised(lambda: Interpretation(domain, {}, {}, {"r": entries})) == role
            candidate = raised(lambda: read_triples_oracle(entries, index, index, "relation",
                                                           InputError))
            assert raised(lambda: FuzzyRelation.from_entries(domain, domain, entries)) == candidate

    @pytest.mark.parametrize("items", [{"u0": "1"}, "u0", None, 1])
    def test_not_a_list(self, items):
        index = {"u0": 0}
        assert raised(lambda: Interpretation(["u0"], {}, {}, {"r": items})) == raised(
            lambda: read_triples_oracle(items, index, index, "role 'r'", ModelError))
        assert raised(lambda: FuzzyRelation.from_entries(["u0"], ["u0"], items)) == raised(
            lambda: read_triples_oracle(items, index, index, "relation", InputError))


class TestInverse:
    def test_single_entry(self):
        rel = FuzzyRelation.from_entries(["u"], ["v"], [("u", "v", F(9, 10))])
        assert inverse(rel).at("v", "u") == F(9, 10)

    def test_involution(self):
        rng = random.Random(3)
        rel = random_relation(rng, ["a", "b", "c"], ["x", "y", "z", "w"])
        assert inverse(inverse(rel)) == rel

    def test_fan_restriction(self):
        rel = FuzzyRelation.from_entries(
            ["u"],
            ["v1", "v2", "v3"],
            [("u", "v1", F(9, 10)), ("u", "v2", F(4, 5)), ("u", "v3", F(7, 10))],
        )
        inv = inverse(rel)
        assert inv.at("v1", "u") == F(9, 10)
        assert inv.at("v2", "u") == F(4, 5)
        assert inv.at("v3", "u") == F(7, 10)


class TestCompose:
    def test_chain_takes_min(self):
        r = FuzzyRelation.from_entries(["u"], ["z"], [("u", "z", F(7, 10))])
        s = FuzzyRelation.from_entries(["z"], ["y"], [("z", "y", F(9, 10))])
        assert compose(r, s).at("u", "y") == F(7, 10)

    def test_identity_neutral(self):
        rng = random.Random(5)
        rel = random_relation(rng, ["a", "b", "c"], ["a", "b", "c"])
        ident = identity(["a", "b", "c"])
        assert compose(rel, ident) == rel
        assert compose(ident, rel) == rel

    def test_against_triple_loop(self):
        rng = random.Random(11)
        for _ in range(20):
            r = random_relation(rng, ["a", "b", "c"], ["p", "q", "s"])
            t = random_relation(rng, ["p", "q", "s"], ["x", "y", "z"])
            got = compose(r, t)
            for x in r.rows:
                for y in t.cols:
                    best = F(0)
                    for z in r.cols:
                        best = max(best, min(r.at(x, z), t.at(z, y)))
                    assert got.at(x, y) == best

    def test_associative_and_inverse_distributes(self):
        rng = random.Random(13)
        for _ in range(15):
            r = random_relation(rng, ["a", "b"], ["c", "d"])
            s = random_relation(rng, ["c", "d"], ["e", "f"])
            t = random_relation(rng, ["e", "f"], ["g", "h"])
            assert compose(compose(r, s), t) == compose(r, compose(s, t))
            assert inverse(compose(r, s)) == compose(inverse(s), inverse(r))


class TestSup:
    def test_singleton(self):
        rel = constant(["a"], ["b"], F(1, 3))
        assert rel_sup([rel]) == rel

    def test_pointwise_max(self):
        low = constant(["a"], ["b"], F(3, 10))
        high = constant(["a"], ["b"], F(4, 5))
        assert rel_sup([low, high]) == high

    def test_cap_and_order(self):
        rng = random.Random(17)
        rel = random_relation(rng, ["a", "b"], ["c", "d"])
        capped = cap(rel, F(1, 2))
        assert pointwise_leq(capped, rel)
        assert rel_sup([rel, capped]) == rel
