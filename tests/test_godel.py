from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from fdl import (
    And,
    Constant,
    Delta,
    Implies,
    InputError,
    Interpretation,
    InvNeg,
    Not,
    Or,
    degree,
    eval_concept,
    format_degree,
    godel_iff,
    parse_degree,
)

degrees = st.fractions(min_value=0, max_value=1, max_denominator=60)

POINT = Interpretation(["x"])


def grade(connective, *values):
    """The evaluator's value of ``connective`` over constants, on a
    one-element model."""
    return eval_concept(POINT, connective(*map(Constant, values))).at("x")


class TestOperatorTable:
    def test_implies_below(self):
        assert grade(Implies, F(4, 5), F(9, 10)) == 1

    def test_implies_above(self):
        assert grade(Implies, F(9, 10), F(4, 5)) == F(4, 5)

    def test_iff_unequal_is_min(self):
        assert godel_iff(F(9, 10), F(1, 2)) == F(1, 2)

    def test_iff_equal_is_one(self):
        assert godel_iff(F(1, 3), F(1, 3)) == 1

    def test_negations(self):
        assert grade(Not, F(0)) == 1
        assert grade(Not, F(1, 5)) == 0
        assert grade(InvNeg, F(3, 10)) == F(7, 10)
        assert grade(Delta, F(999, 1000)) == 0
        assert grade(Delta, F(1)) == 1

    def test_apply_dispatch(self):
        assert grade(And, F(1, 2), F(1, 3)) == F(1, 3)
        assert grade(Or, F(1, 2), F(1, 3)) == F(1, 2)
        assert grade(InvNeg, F(3, 10)) == F(7, 10)
        assert grade(Delta, F(1)) == 1


class TestDegreeParsing:
    @pytest.mark.parametrize(
        "text,value",
        [("0.9", F(9, 10)), ("1/4", F(1, 4)), ("1", F(1)), ("0", F(0)), ("0.125", F(1, 8))],
    )
    def test_parse(self, text, value):
        assert parse_degree(text) == value

    # the last seven are not ASCII digits as n, n.m or n/m, the pattern that
    # concept constants use too
    @pytest.mark.parametrize(
        "text",
        ["1.5", "-0.1", "7/6", "abc", "1/0",
         "\u0660.\u0665", "\uff11", "1/\u0662", "1e-1", ".5", "+0.5", "1_0/20"],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(InputError):
            parse_degree(text)

    def test_float_rejected(self):
        with pytest.raises(InputError):
            degree(0.9)

    def test_fraction_comes_back_itself(self):
        value = F(3, 7)
        assert degree(value) is value
        assert degree(1) == 1 and type(degree(1)) is F

    @pytest.mark.parametrize("value", [True, False, F(3, 2), F(-1, 2), 2, -1])
    def test_bool_and_out_of_range_rejected(self, value):
        with pytest.raises(InputError):
            degree(value)

    @pytest.mark.parametrize("value,message", [
        (0.9, "refusing float degree 0.9: pass a string such as '0.9' or a Fraction"),
        (True, "not a degree: true"),
        ("0.5", None),
        (F(3, 2), "degree 1.5 outside [0, 1]"),
        (F(-1, 2), "degree -.5 outside [0, 1]"),
        (2, "degree 2 outside [0, 1]"),
        (-1, "degree -1 outside [0, 1]"),
        (F(1), None),
        (0, None),
    ])
    def test_range_checked_on_integers(self, value, message):
        # the range test reads a Fraction's numerator and denominator
        if message is None:
            assert 0 <= degree(value) <= 1
        else:
            with pytest.raises(InputError) as info:
                degree(value)
            assert str(info.value).startswith(message)

    @pytest.mark.parametrize(
        "value,text",
        [
            (F(9, 10), "0.9"),
            (F(1, 3), "1/3"),
            (F(1), "1"),
            (F(0), "0"),
            (F(3, 8), "0.375"),
            (F(1, 20), "0.05"),
            (F(7, 12), "7/12"),
        ],
    )
    def test_format(self, value, text):
        assert format_degree(value) == text

    @given(degrees)
    def test_format_roundtrip(self, p):
        assert parse_degree(format_degree(p)) == p

    def test_format_every_small_denominator(self):
        # a denominator up to 200 whose only primes are 2 and 5 divides 10**8
        for q in range(1, 201):
            for p in range(q + 1):
                value = F(p, q)
                text = format_degree(value)
                assert parse_degree(text) == value
                assert ("/" in text) == (10**8 % value.denominator != 0), text


class TestAlgebraicLaws:
    @given(degrees, degrees, degrees)
    def test_residuation(self, x, y, z):
        assert (grade(And, x, y) <= z) == (x <= grade(Implies, y, z))

    @given(degrees, degrees, degrees, degrees)
    def test_monotonicity(self, x, x2, y, y2):
        lo_x, hi_x = min(x, x2), max(x, x2)
        lo_y, hi_y = min(y, y2), max(y, y2)
        assert grade(And, lo_x, lo_y) <= grade(And, hi_x, hi_y)
        # antitone in the first argument, monotone in the second
        assert grade(Implies, hi_x, lo_y) <= grade(Implies, lo_x, hi_y)

    @given(degrees, degrees)
    def test_iff_symmetric(self, x, y):
        assert godel_iff(x, y) == godel_iff(y, x)

    @given(st.sets(degrees, min_size=1, max_size=6))
    def test_closure_under_selection_operators(self, values):
        pool = values | {F(0), F(1)}
        for p in pool:
            for q in pool:
                for connective in (And, Or, Implies):
                    assert grade(connective, p, q) in pool
                assert godel_iff(p, q) in pool
            assert grade(Delta, p) in pool
            assert grade(Not, p) in pool
            assert grade(InvNeg, p) in {1 - v for v in pool}
