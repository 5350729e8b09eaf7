"""Arithmetic conventions: exact rationals, infinity, parsing, display."""

import math
from fractions import Fraction

import pytest

from causaldp import (
    INF,
    ParseError,
    epsilon_of,
    format_ratio,
    is_infinite,
    parse_rational,
    ratio_divide,
    ratio_le,
    ratio_mul,
)
from causaldp.exact import format_rational, rational_terms, value_sort_key


def test_ratio_divide_conventions():
    assert ratio_divide(Fraction(1, 2), Fraction(1, 4)) == Fraction(2)
    assert ratio_divide(Fraction(0), Fraction(0)) is None
    assert is_infinite(ratio_divide(Fraction(1, 3), Fraction(0)))
    assert ratio_divide(Fraction(0), Fraction(1)) == Fraction(0)


def test_ratio_le_with_infinity():
    assert ratio_le(Fraction(2), INF)
    assert ratio_le(INF, INF)
    assert not ratio_le(INF, Fraction(1000))
    assert ratio_le(Fraction(1), Fraction(1))
    assert not ratio_le(Fraction(3, 2), Fraction(4, 3))


def test_ratio_mul():
    assert ratio_mul(Fraction(3, 2), Fraction(4, 3)) == Fraction(2)
    assert is_infinite(ratio_mul(INF, Fraction(1)))
    assert is_infinite(ratio_mul(Fraction(2), INF))


@pytest.mark.parametrize(
    "text,expected",
    [("1/2", Fraction(1, 2)), ("2", Fraction(2)), ("divides/reduce", None),
     ("6/4", Fraction(3, 2)), ("-1/2", Fraction(-1, 2)), ("0", Fraction(0))],
)
def test_parse_rational_accepts(text, expected):
    if expected is None:
        with pytest.raises(ParseError):
            parse_rational(text)
    else:
        assert parse_rational(text) == expected


@pytest.mark.parametrize("bad", ["0.5", "1/0", "1 / 2", "", "1e-3", "½", "+1",
                                 "1/2\n", "\u0663/4", "\u0661"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


def test_rational_terms_are_the_integers_as_written():
    assert rational_terms("2/4") == (2, 4)
    assert rational_terms("-3") == (-3, 1)
    assert rational_terms("0/7") == (0, 7)


@pytest.mark.parametrize("node, shown", [(5, "int 5"), (None, "NoneType None"),
                                         (["1/2"], "list ['1/2']"), (True, "bool True")])
def test_rational_terms_refuses_a_non_string_at_its_location(node, shown):
    """Every file reader checks for a string first, so only a direct call
    reaches this refusal."""
    with pytest.raises(ParseError) as raised:
        rational_terms(node, "kernel.bias")
    assert type(raised.value) is ParseError
    assert (str(raised.value), raised.value.location) == (
        f'expected a rational written as a string like "1/2", got {shown} '
        f"(at kernel.bias)", "kernel.bias")


def test_format_rational_always_shows_denominator():
    assert format_rational(Fraction(2)) == "2/1"
    assert format_rational(Fraction(6, 4)) == "3/2"
    assert format_ratio(INF) == "inf"


def test_epsilon_display():
    assert epsilon_of(Fraction(1)) == "0.0000"
    assert epsilon_of(Fraction(2)) == f"{math.log(2):.4f}"
    assert epsilon_of(INF) == "inf"
    with pytest.raises(ValueError):
        epsilon_of(Fraction(0))


def test_value_sort_key_total_order():
    values = [("b", 1), 3, "a", (1,), 2, "b", (1, 2)]
    ordered = sorted(values, key=value_sort_key)
    assert ordered == [2, 3, "a", "b", (1,), (1, 2), ("b", 1)]
