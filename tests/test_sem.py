"""Structural model semantics: validation, lifting, interventions."""

from fractions import Fraction as F

import pytest

from causaldp import (
    CyclicModel,
    Dist,
    DomainMismatch,
    ExogenousTarget,
    InvalidDistribution,
    MissingEquation,
    ProbabilisticSem,
    Sem,
    StochasticEquation,
    UnknownVariable,
    ValueOutOfDomain,
    constant_equation,
    copy_equation,
    deterministic_equation,
)


def coin_eq(target, parent, p_heads):
    return StochasticEquation.from_rows(
        target,
        (parent,),
        {
            (0,): {0: 1 - p_heads, 1: p_heads},
            (1,): {0: p_heads, 1: 1 - p_heads},
        },
    )


def chain_model() -> Sem:
    # U -> X -> Y, all binary
    return Sem(
        ("U", "X", "Y"),
        {"U": (0, 1), "X": (0, 1), "Y": (0, 1)},
        {"X": coin_eq("X", "U", F(1, 3)), "Y": coin_eq("Y", "X", F(1, 4))},
    )


def test_equation_rows_must_sum_to_one():
    with pytest.raises(DomainMismatch):
        StochasticEquation.from_rows("X", (), {(): {0: F(1, 2)}})


def test_equation_row_key_arity():
    with pytest.raises(DomainMismatch):
        StochasticEquation.from_rows("X", ("A",), {(): {0: F(1)}})


# --- the equation constructors' errors ------------------------------------------

GOOD_ROW = {(0,): {0: 1, 1: 1}}


@pytest.mark.parametrize("table, message", [
    ((2, {**GOOD_ROW, 1: {0: 2}}), ", row 1: key does not match parents ('A',)"),
    ((2, {**GOOD_ROW, (1, 0): {0: 2}}), ", row (1, 0): key does not match parents ('A',)"),
    ((2, {(0,): {0: 1.0, 1: 1}}), ", row (0,): numerator 1.0 at 0 is not a positive int"),
    ((2, {(0,): {0: True, 1: 1}}), ", row (0,): numerator True at 0 is not a positive int"),
    ((2, {(0,): {0: F(1), 1: 1}}),
     ", row (0,): numerator Fraction(1, 1) at 0 is not a positive int"),
    ((2, {(0,): {0: 0, 1: 2}}), ", row (0,): numerator 0 at 0 is not a positive int"),
    ((2, {(0,): {0: 3, 1: -1}}), ", row (0,): numerator -1 at 1 is not a positive int"),
    ((2, {(0,): {0: 1, 1: 2}}), ", row (0,): weights sum to 3/2, expected exactly 1"),
    ((2, {(0,): {}}), ", row (0,): weights sum to 0, expected exactly 1"),
    ((2, {(0,): {0: 1, 1: 2}, 1: {0: 2}}), ", row (0,): weights sum to 3/2, expected exactly 1"),
    ((0, GOOD_ROW), ": denominator 0 is not a positive int"),
    ((-2, GOOD_ROW), ": denominator -2 is not a positive int"),
    ((2.0, GOOD_ROW), ": denominator 2.0 is not a positive int"),
    ((True, GOOD_ROW), ": denominator True is not a positive int"),
], ids=["key_not_a_tuple", "key_too_wide", "float_numerator", "bool_numerator",
        "fraction_numerator", "zero_numerator", "negative_numerator", "wrong_sum",
        "empty_row", "first_row_first", "zero_denominator", "negative_denominator",
        "float_denominator", "bool_denominator"])
def test_the_integer_constructor_words_each_error(table, message):
    """Each table the integer constructor refuses raises DomainMismatch,
    worded for the first failing row in the table's order."""
    with pytest.raises(DomainMismatch) as raised:
        StochasticEquation("X", ("A",), table)
    assert type(raised.value) is DomainMismatch
    assert str(raised.value) == "equation for 'X'" + message


@pytest.mark.parametrize("rows, message", [
    ({(0,): {0: F(1)}, 1: {0: F(1)}}, ", row 1: key does not match parents ('A',)"),
    ({(0, 1): {0: F(1)}}, ", row (0, 1): key does not match parents ('A',)"),
    ({(0,): {0: 0.5, 1: F(1, 2)}}, ", row (0,): weight 0.5 at 0 is not a nonnegative rational"),
    ({(0,): {0: 1}}, ", row (0,): weight 1 at 0 is not a nonnegative rational"),
    ({(0,): {0: None, 1: F(1)}}, ", row (0,): weight None at 0 is not a nonnegative rational"),
    ({(0,): {0: F(-1, 2), 1: F(3, 2)}},
     ", row (0,): weight Fraction(-1, 2) at 0 is not a nonnegative rational"),
    ({(0,): {0: F(1, 2), 1: F(1, 3)}}, ", row (0,): weights sum to 5/6, expected exactly 1"),
    ({(0,): {0: F(1, 2), 1: F(0)}}, ", row (0,): weights sum to 1/2, expected exactly 1"),
    ({1: {0: F(1)}, (0,): {0: 0.5}}, ", row 1: key does not match parents ('A',)"),
    ({(0,): {0: 0.5}, 1: {0: F(1)}}, ", row (0,): weight 0.5 at 0 is not a nonnegative rational"),
], ids=["key_not_a_tuple", "key_too_wide", "float_weight", "int_weight", "none_weight",
        "negative_weight", "wrong_sum", "wrong_sum_with_zero", "key_before_weight",
        "weight_before_key"])
def test_from_rows_words_each_error(rows, message):
    """`from_rows` refuses what the walk of its rows in order refuses: a key
    that does not match the parents, then a weight that is not a
    nonnegative `Fraction`, then a wrong sum, each as DomainMismatch."""
    with pytest.raises(DomainMismatch) as raised:
        StochasticEquation.from_rows("X", ("A",), rows)
    assert type(raised.value) is DomainMismatch
    assert str(raised.value) == "equation for 'X'" + message


def test_an_equation_is_stored_over_its_least_denominator():
    """Equal tables over L and over a multiple of L are one equation; zero
    entries in `Fraction` rows are dropped."""
    assert StochasticEquation("X", (), (4, {(): {7: 4}})) == constant_equation("X", 7)
    halves = StochasticEquation("X", ("A",), (6, {(0,): {0: 3, 1: 3}, (1,): {1: 6}}))
    assert halves.integer_table == (2, {(0,): {0: 1, 1: 1}, (1,): {1: 2}})
    assert halves == StochasticEquation.from_rows(
        "X", ("A",), {(0,): {1: F(1, 2), 0: F(1, 2)}, (1,): {0: F(0), 1: F(1)}})
    assert halves.rows == {(0,): {0: F(1, 2), 1: F(1, 2)}, (1,): {1: F(1)}}


def test_an_equation_keeps_no_dict_of_its_caller():
    """A table over its least L is stored in dicts of the equation's own: a
    later write to the caller's table or to one of its rows changes
    nothing."""
    rows = {(): {0: 1}}
    eq = StochasticEquation("X", (), (1, rows))
    rows[()][0] = 5
    rows[(1,)] = {0: 1}
    assert eq.integer_table == (1, {(): {0: 1}})


# --- the model's structural checks ------------------------------------------------


@pytest.mark.parametrize("names, domains, equations, error, message", [
    (("X", "X"), {"X": (0, 1)}, {}, DomainMismatch,
     "duplicate variable names in ('X', 'X')"),
    (("X", "Y"), {"X": (0, 1)}, {}, MissingEquation, "variable 'Y' has no declared domain"),
    (("X",), {"X": (0, 1), "Z": (0,)}, {}, UnknownVariable,
     "domain declared for undeclared variable 'Z'"),
    (("X", "Y"), {"X": (0, 1), "Y": (0, 1)}, {"Y": constant_equation("X", 0)},
     DomainMismatch, "equation keyed 'Y' targets 'X'"),
], ids=["duplicate_names", "no_domain", "undeclared_domain", "equation_keyed_elsewhere"])
def test_validate_words_each_structural_error(names, domains, equations, error, message):
    """Errors a model file cannot reach: the reader rejects a repeated
    variable first, and declares every domain and keys every equation by
    its target itself."""
    sem = Sem(names, domains, equations)
    for _ in range(2):  # a model that fails is not memoized
        with pytest.raises(error) as raised:
            sem.validate()
        assert type(raised.value) is error and str(raised.value) == message


def test_pin_exogenous_words_an_unknown_variable_and_value():
    psem = ProbabilisticSem(chain_model(), Dist.uniform(("U",), [(0,), (1,)]))
    with pytest.raises(UnknownVariable) as raised:
        psem.pin_exogenous("Q", 0)
    assert str(raised.value) == "variable 'Q' is not declared"
    with pytest.raises(ValueOutOfDomain) as raised:
        psem.do({"U": 5})
    assert str(raised.value) == "5 not in domain of 'U'"


def test_exogenous_endogenous_split():
    m = chain_model()
    assert m.exogenous == ("U",)
    assert m.endogenous == ("X", "Y")
    assert m.parents_of("Y") == ("X",)
    assert m.ancestors_of("Y") == frozenset({"X", "U"})


def test_validate_catches_cycles():
    m = Sem(
        ("A", "B"),
        {"A": (0, 1), "B": (0, 1)},
        {"A": copy_equation("A", "B", (0, 1)),
         "B": copy_equation("B", "A", (0, 1))},
    )
    for _ in range(2):  # only a passing model memoizes its order
        with pytest.raises(CyclicModel):
            m.validate()


def test_validate_catches_unknown_parent():
    m = Sem(("A",), {"A": (0, 1)}, {"A": copy_equation("A", "Z", (0, 1))})
    for _ in range(2):
        with pytest.raises(UnknownVariable):
            m.validate()


def test_validate_catches_missing_row_coverage():
    eq = StochasticEquation.from_rows("X", ("U",), {(0,): {0: F(1)}})  # no row for U=1
    m = Sem(("U", "X"), {"U": (0, 1), "X": (0, 1)}, {"X": eq})
    for _ in range(2):
        with pytest.raises(DomainMismatch):
            m.validate()


def test_validate_catches_value_outside_domain():
    eq = StochasticEquation.from_rows("X", (), {(): {7: F(1)}})
    m = Sem(("X",), {"X": (0, 1)}, {"X": eq})
    for _ in range(2):
        with pytest.raises(ValueOutOfDomain):
            m.validate()


def test_missing_equation_means_exogenous_not_error():
    m = Sem(("U",), {"U": (0, 1)}, {})
    assert m.validate() == ("U",)
    assert m.exogenous == ("U",)


def test_semantics_given_exogenous_exact():
    m = chain_model()
    d = m.semantics_given_exogenous({"U": 0})
    # X = 1 w.p. 1/3; Y = 1 w.p. X==0 -> 1/4, X==1 -> 3/4
    assert d.prob({"X": 1}) == F(1, 3)
    assert d.prob({"Y": 1}) == F(2, 3) * F(1, 4) + F(1, 3) * F(3, 4)


def test_semantics_requires_full_exogenous_assignment():
    m = chain_model()
    with pytest.raises(DomainMismatch):
        m.semantics_given_exogenous({})
    with pytest.raises(DomainMismatch):
        m.semantics_given_exogenous({"U": 0, "X": 1})


def test_semantics_rejects_an_exogenous_value_outside_its_domain():
    with pytest.raises(ValueOutOfDomain, match="input distribution uses 7 outside "
                                               "domain of 'U'"):
        chain_model().semantics_given_exogenous({"U": 7})


def test_input_distribution_is_checked_once_and_a_bad_one_every_time():
    m = chain_model()
    good = ProbabilisticSem(m, Dist.uniform(("U",), [(0,), (1,)]))
    assert good.validate() is good.validate()
    child = good.intervene("X", 1)
    assert child.__dict__["_order"] == ProbabilisticSem(child.sem, good.exogenous_dist).validate()
    bad = ProbabilisticSem(m, Dist.point_mass(("U",), (7,)))
    for _ in range(2):
        with pytest.raises(ValueOutOfDomain):
            bad.lift()
    assert "_order" not in bad.__dict__


def test_lift_mixes_exogenous_distribution():
    m = Sem(
        ("U", "X"),
        {"U": ("a", "b"), "X": (0, 1)},
        {
            "X": StochasticEquation.from_rows(
                "X", ("U",),
                {("a",): {1: F(1)}, ("b",): {0: F(1, 2), 1: F(1, 2)}},
            )
        },
    )
    psem = ProbabilisticSem(
        m, Dist.from_weights(("U",), {("a",): F(1, 3), ("b",): F(2, 3)})
    )
    joint = psem.lift()
    assert joint.prob({"X": 1}) == F(1, 3) + F(2, 3) * F(1, 2)
    assert joint.prob({"U": "a", "X": 0}) == 0


def test_intervention_replaces_equation():
    m = chain_model()
    forced = m.intervene("X", 1)
    d = forced.semantics_given_exogenous({"U": 0})
    assert d.prob({"X": 1}) == 1
    assert d.prob({"Y": 1}) == F(3, 4)


def test_intervention_breaks_upstream_dependence_only():
    psem = ProbabilisticSem(chain_model(), Dist.uniform(("U",), [(0,), (1,)]))
    forced = psem.intervene("X", 1)
    joint = forced.lift()
    # U unaffected, Y follows the forced X
    assert joint.prob({"U": 1}) == F(1, 2)
    assert joint.prob({"Y": 1}) == F(3, 4)


def test_intervene_twice_last_wins():
    m = chain_model()
    again = m.intervene("X", 0).intervene("X", 1)
    d = again.semantics_given_exogenous({"U": 1})
    assert d.prob({"X": 1}) == 1


def test_intervene_rejects_exogenous_and_bad_values():
    m = chain_model()
    for _ in range(2):  # before and after the order is memoized
        for _ in range(2):  # before and after a memo hit on X
            with pytest.raises(ExogenousTarget):
                m.intervene("U", 0)
            with pytest.raises(ValueOutOfDomain):
                m.intervene("X", 9)
            with pytest.raises(UnknownVariable):
                m.intervene("Q", 0)
            assert m.intervene("X", 0) is m.intervene("X", 0)
        m.validate()


def test_intervention_is_pure():
    m = chain_model()
    m.intervene("X", 1)
    assert "X" in m.equations
    assert m.equations["X"].parents == ("U",)


def test_pin_exogenous_is_surgery_not_conditioning():
    # correlated exogenous pair: pinning one must not drag the other along
    m = Sem(
        ("U", "V", "X"),
        {"U": (0, 1), "V": (0, 1), "X": (0, 1)},
        {"X": copy_equation("X", "V", (0, 1))},
    )
    correlated = Dist.from_weights(
        ("U", "V"), {(0, 0): F(1, 2), (1, 1): F(1, 2)}
    )
    psem = ProbabilisticSem(m, correlated)
    pinned = psem.pin_exogenous("U", 1)
    joint = pinned.lift()
    # conditioning on U=1 would force V=1; surgery keeps V's marginal
    assert joint.prob({"V": 1}) == F(1, 2)
    assert joint.prob({"U": 1}) == 1
    # pinning a zero-probability value is legal
    uniform_v = psem.pin_exogenous("U", 1).exogenous_dist.marginal(("V",))
    assert uniform_v.weight_of((0,)) == F(1, 2)


def test_pin_rejects_endogenous():
    psem = ProbabilisticSem(chain_model(), Dist.uniform(("U",), [(0,), (1,)]))
    with pytest.raises(DomainMismatch):
        psem.pin_exogenous("X", 1)


def test_do_dispatches_by_variable_kind():
    psem = ProbabilisticSem(chain_model(), Dist.uniform(("U",), [(0,), (1,)]))
    out = psem.do({"U": 0, "X": 1}).lift()
    assert out.prob({"U": 0}) == 1
    assert out.prob({"X": 1}) == 1
    assert out.prob({"Y": 1}) == F(3, 4)


def test_parents_rule_conditioning_equals_intervening():
    # for X with a single parent U: Fr[X | U = u] == Fr[X | do-ish pin U = u]
    psem = ProbabilisticSem(chain_model(), Dist.uniform(("U",), [(0,), (1,)]))
    lifted = psem.lift()
    for u in (0, 1):
        conditioned = lifted.condition({"U": u}).prob({"X": 1})
        pinned = psem.pin_exogenous("U", u).lift().prob({"X": 1})
        assert conditioned == pinned


def test_query_interventions_then_conditions():
    psem = ProbabilisticSem(chain_model(), Dist.uniform(("U",), [(0,), (1,)]))
    # Fr[Y=1 | do(X=1), U=0] : conditioning happens in the intervened model
    got = psem.query({"Y": 1}, [("X", 1)], {"U": 0})
    assert got == F(3, 4)
    plain = psem.query({"Y": 1})
    assert plain == psem.lift().prob({"Y": 1})


def test_lift_of_queried_variables_only():
    psem = ProbabilisticSem(chain_model(), Dist.uniform(("U",), [(0,), (1,)]))
    forced = psem.intervene("X", 1)
    # Y's ancestors are now X alone: U is never enumerated
    assert forced.lift(("Y",)) == Dist.from_weights(("Y",), {(1,): F(3, 4), (0,): F(1, 4)})
    assert forced.lift(("Y", "U")) == forced.lift().marginal(("Y", "U"))
    assert forced.lift(()) == Dist.from_weights((), {(): F(1)})
    with pytest.raises(UnknownVariable):
        forced.lift(("Q",))


def test_a_wrong_integer_table_fails_both_lifts(monkeypatch):
    """A lift's `Dist` checks that its numerators sum to its scale: with one
    numerator of Y's integer table one too large, the lift of (X, Y) and the
    full joint both raise the InvalidDistribution of the cells' `Dist`."""
    psem = ProbabilisticSem(chain_model(), Dist.uniform(("U",), [(0,), (1,)]))
    eq = psem.sem.equations["Y"]
    common, rows = eq.integer_table
    row = dict(rows[(0,)])
    row[next(iter(row))] += 1
    monkeypatch.setitem(eq.__dict__, "integer_table", (common, {**rows, (0,): row}))
    for query in (("X", "Y"), None):
        with pytest.raises(InvalidDistribution) as raised:
            psem.lift(query)
        # P(X = 0) = 1/2, and Y's row at X = 0 now sums to 1 + 1/4
        assert str(raised.value) == \
            "distribution: weights sum to 9/8, expected exactly 1"


def test_downstream_only_influence():
    # intervening on Y must not change X's distribution
    psem = ProbabilisticSem(chain_model(), Dist.uniform(("U",), [(0,), (1,)]))
    base = psem.lift().prob({"X": 1})
    forced = psem.intervene("Y", 1).lift().prob({"X": 1})
    assert base == forced


def test_deterministic_and_constant_equations():
    m = Sem(
        ("A", "B", "S"),
        {"A": (0, 1), "B": (0, 1), "S": (0, 1, 2)},
        {
            "S": deterministic_equation(
                "S", ("A", "B"), [(0, 1), (0, 1)], lambda a, b: a + b
            )
        },
    )
    psem = ProbabilisticSem(
        m, Dist.uniform(("A", "B"), [(a, b) for a in (0, 1) for b in (0, 1)])
    )
    assert psem.lift().prob({"S": 1}) == F(1, 2)
    c = constant_equation("S", 2)
    assert c.rows == {(): {2: F(1)}}


# --- the validation memo --------------------------------------------------------


def backwards_model() -> Sem:
    # A is declared first but reads B, so B precedes A until A is forced
    return Sem(
        ("U", "A", "B", "C"),
        {"U": (0, 1), "A": (0, 1), "B": (0, 1), "C": (0, 1)},
        {
            "A": copy_equation("A", "B", (0, 1)),
            "B": coin_eq("B", "U", F(1, 3)),
            "C": copy_equation("C", "A", (0, 1)),
        },
    )


@pytest.mark.parametrize(
    "build, name, value",
    [(chain_model, "X", 1), (chain_model, "Y", 0), (backwards_model, "A", 1),
     (backwards_model, "B", 0), (backwards_model, "C", 1)],
)
def test_intervene_hands_down_the_fresh_order(build, name, value):
    parent = build()
    parent.validate()
    child = parent.intervene(name, value)
    assert "_order" in child.__dict__
    fresh = Sem(child.names, child.domains, child.equations)
    assert child.validate() == fresh.validate()


def test_intervened_order_moves_a_cut_variable_forward():
    m = backwards_model()
    assert m.validate() == ("U", "B", "A", "C")
    assert m.intervene("A", 1).validate() == ("U", "A", "B", "C")

