import random
from fractions import Fraction as F

import pytest

from fdl import FuzzyRelation, InputError
from helpers import (
    cap, cells, compose, constant, dense, from_matrix, identity, inverse, pointwise_leq, rel_sup,
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
        assert FuzzyRelation.from_indexed(["u"], ["v"], {}).is_crisp()
        assert not FuzzyRelation.from_entries(
            ["u"], ["v", "w"], [("u", "v", "1"), ("u", "w", "0.25")]
        ).is_crisp()


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
