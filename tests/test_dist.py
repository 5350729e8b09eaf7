"""Exact finite joint distributions."""

from fractions import Fraction as F

import pytest

from causaldp import Dist, InvalidDistribution, UnknownVariable, ZeroProbabilityEvent


def pair(w00, w01, w10, w11):
    return Dist.from_weights(
        ("A", "B"),
        {
            (0, 0): F(*w00), (0, 1): F(*w01),
            (1, 0): F(*w10), (1, 1): F(*w11),
        },
    )


def test_weights_must_sum_to_one():
    with pytest.raises(InvalidDistribution):
        Dist.from_weights(("A",), {(0,): F(1, 3)})
    with pytest.raises(InvalidDistribution):
        Dist.from_weights(("A",), {(0,): F(1, 2), (1,): F(2, 3)})
    with pytest.raises(InvalidDistribution):
        Dist.from_weights(("A",), {(0,): F(3, 2), (1,): F(-1, 2)})


def test_arity_checked():
    with pytest.raises(InvalidDistribution):
        Dist.from_weights(("A", "B"), {(0,): F(1)})


def test_zero_weights_dropped_and_equality():
    d1 = Dist.from_weights(("A",), {(0,): F(1), (1,): F(0)})
    d2 = Dist.from_weights(("A",), {(0,): F(1)})
    assert d1 == d2
    assert d1.weight_of((1,)) == 0


def test_point_mass_and_uniform():
    pm = Dist.point_mass(("A", "B"), (1, 0))
    assert pm.prob({"A": 1}) == 1
    assert pm.prob({"B": 1}) == 0
    u = Dist.uniform(("A",), [(0,), (1,), (2,)])
    assert u.weight_of((2,)) == F(1, 3)


def test_prob_event_forms():
    d = pair((1, 4), (1, 4), (1, 4), (1, 4))
    assert d.prob({"A": 0}) == F(1, 2)
    assert d.prob({"A": 0, "B": 1}) == F(1, 4)
    assert d.prob(lambda a: a["A"] != a["B"]) == F(1, 2)


def test_condition_renormalizes_exactly():
    d = pair((1, 2), (1, 4), (1, 8), (1, 8))
    c = d.condition({"A": 0})
    assert c.prob({"B": 0}) == F(2, 3)
    assert c.prob({"B": 1}) == F(1, 3)


def test_condition_on_null_event_raises():
    d = Dist.point_mass(("A",), (0,))
    with pytest.raises(ZeroProbabilityEvent):
        d.condition({"A": 1})


def test_events_with_unknown_names_raise():
    d = pair((1, 4), (1, 4), (1, 4), (1, 4))
    with pytest.raises(UnknownVariable):
        d.prob({"A": 0, "Q": 1})
    with pytest.raises(UnknownVariable):
        d.condition({"Q": 1})


def test_marginal_order_and_values():
    d = pair((1, 2), (1, 4), (1, 8), (1, 8))
    m = d.marginal(("B",))
    assert m.weight_of((0,)) == F(5, 8)
    swapped = d.marginal(("B", "A"))
    assert swapped.weight_of((1, 0)) == F(1, 4)


def test_product_requires_disjoint_names():
    a = Dist.uniform(("A",), [(0,), (1,)])
    b = Dist.uniform(("B",), [(0,), (1,)])
    p = Dist.product(a, b)
    assert p.weight_of((0, 1)) == F(1, 4)
    with pytest.raises(InvalidDistribution):
        Dist.product(a, a)


def test_factors_as_product_detects_correlation():
    independent = pair((1, 4), (1, 4), (1, 4), (1, 4))
    assert independent.factors_as_product()
    skewed = Dist.from_weights(
        ("A", "B"),
        {(0, 0): F(2, 9), (0, 1): F(1, 9), (1, 0): F(4, 9), (1, 1): F(2, 9)},
    )
    assert skewed.factors_as_product()
    correlated = Dist.from_weights(("A", "B"), {(0, 0): F(1, 2), (1, 1): F(1, 2)})
    assert not correlated.factors_as_product()


def test_factors_as_product_refuses_repeated_names():
    # a product needs disjoint factors; no parsed population reaches this
    repeated = Dist.from_weights(("A", "A"), {(0, 0): F(1, 2), (1, 1): F(1, 2)})
    with pytest.raises(InvalidDistribution, match="product factors share variables"):
        repeated.factors_as_product()


def test_entries_sorted_is_deterministic():
    d = Dist.from_weights(("A",), {(2,): F(1, 3), (0,): F(1, 3), (1,): F(1, 3)})
    assert [p for p, _ in d.entries_sorted()] == [(0,), (1,), (2,)]


def test_a_dist_stores_its_integer_table_over_the_least_denominator():
    """One stored form: the variables and (L, assignment -> positive
    numerator) over the least L; `weights` is derived from it."""
    d = Dist(("A",), (6, {(0,): 2, (1,): 4}))
    assert vars(d) == {"variables": ("A",), "integer_table": (3, {(0,): 1, (1,): 2})}
    assert d == Dist.from_weights(("A",), {(1,): F(2, 3), (0,): F(1, 3), (2,): F(0)})
    assert d.weights == {(0,): F(1, 3), (1,): F(2, 3)}
    assert (d.weight_of((1,)), d.weight_of((2,))) == (F(2, 3), 0)


def test_a_dist_keeps_no_dict_of_its_caller():
    table = {(0,): 1, (1,): 1}
    d = Dist(("A",), (2, table))
    table[(0,)] = 5
    table[(2,)] = 1
    assert d.integer_table == (2, {(0,): 1, (1,): 1})


@pytest.mark.parametrize("table, message", [
    ((0, {(0,): 1}), "distribution: denominator 0 is not a positive int"),
    ((F(1), {(0,): 1}), "distribution: denominator Fraction(1, 1) is not a positive int"),
    ((2, {(0,): 1, (1,): 0}), "distribution: numerator 0 at (1,) is not a positive int"),
    ((2, {(0,): 1, (1,): True}), "distribution: numerator True at (1,) is not a positive int"),
    ((2, {(0,): 1.0, (1,): 1}), "distribution: numerator 1.0 at (0,) is not a positive int"),
    ((3, {(0,): 1, (1,): 1}), "distribution: weights sum to 2/3, expected exactly 1"),
    ((1, {}), "distribution: weights sum to 0, expected exactly 1"),
    ((2, {(0,): 1, (1, 1): 1}), "assignment (1, 1) does not match variables ('A',)"),
    ((2, {(0,): 1, 1: -1}), "assignment 1 does not match variables ('A',)"),
], ids=["zero_denominator", "fraction_denominator", "zero_numerator", "bool_numerator",
        "float_numerator", "wrong_sum", "empty", "wide_point", "point_before_numerator"])
def test_the_integer_constructor_words_each_error(table, message):
    with pytest.raises(InvalidDistribution) as raised:
        Dist(("A",), table)
    assert str(raised.value) == message
