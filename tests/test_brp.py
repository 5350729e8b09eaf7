"""Bounded relative probability and sequential composition."""

import random
from fractions import Fraction as F
from itertools import product

import pytest

import causaldp as c
from causaldp import Dist, ProbabilisticSem, Sem, brp
from conftest import random_two_stage


def coin_table(var, parents, flip):
    """Rows flipping the single binary parent with probability `flip`."""
    rows = {}
    for p in (0, 1):
        rows[(p,)] = {p: 1 - flip, 1 - p: flip}
    return c.StochasticEquation.from_rows(var, tuple(parents), rows)


def eq_map(*eqs):
    return {eq.target: eq for eq in eqs}


def two_node(flip):
    sem = Sem(("X", "Y"), {"X": (0, 1), "Y": (0, 1)},
              eq_map(coin_table("Y", ("X",), flip)))
    return ProbabilisticSem(sem, Dist.uniform(("X",), [(0,), (1,)]))


# --- relative probability of a single effect ---------------------------------------


def test_copy_mechanism_has_infinite_relative_probability():
    psem = two_node(F(0))
    bound = c.max_relative_probability(psem, "Y", "X")
    assert c.is_infinite(bound.value)


def test_flip_mechanism_worst_ratio():
    psem = two_node(F(1, 3))
    bound = c.max_relative_probability(psem, "Y", "X")
    assert bound.value == F(2)
    assert bound.witness == {"y": 0, "x_num": 0, "x_den": 1}


def test_tie_goes_to_the_first_intervention_pair():
    # Y | X=0 is (1/3, 2/3) and Y | X=1 is (2/3, 1/3): the ratio 2 is met
    # at y=0 by (1, 0) and at y=1 by (0, 1); the pairs are swept in domain
    # order with y innermost, so (0, 1) wins
    sem = Sem(("X", "Y"), {"X": (0, 1), "Y": (0, 1)}, eq_map(c.StochasticEquation.from_rows(
        "Y", ("X",), {(0,): {0: F(1, 3), 1: F(2, 3)}, (1,): {0: F(2, 3), 1: F(1, 3)}})))
    psem = ProbabilisticSem(sem, Dist.uniform(("X",), [(0,), (1,)]))
    bound = c.max_relative_probability(psem, "Y", "X")
    assert (bound.value, bound.witness) == (F(2), {"x_num": 0, "x_den": 1, "y": 1})
    assert c.brp_bound(sem, "Y", "X").witness \
        == {"inputs": {"X": 0}, "x_num": 0, "x_den": 1, "y": 1}


def test_unaffected_sink_ratio_one():
    sem = Sem(("X", "Z", "Y"), {"X": (0, 1), "Z": (0, 1), "Y": (0, 1)},
              eq_map(coin_table("Y", ("Z",), F(1, 4))))
    psem = ProbabilisticSem(
        sem, Dist.uniform(("X", "Z"), list(product((0, 1), repeat=2)))
    )
    bound = c.max_relative_probability(psem, "Y", "X")
    assert bound.value == F(1)
    assert bound.witness is None


def test_upstream_sink_ratio_one():
    # intervening downstream cannot move an upstream (exogenous) sink
    psem = two_node(F(1, 3))
    sem2 = Sem(("X", "Y", "W"), {"X": (0, 1), "Y": (0, 1), "W": (0, 1)},
               eq_map(coin_table("Y", ("X",), F(1, 3)),
                      coin_table("W", ("Y",), F(1, 4))))
    psem = ProbabilisticSem(sem2, Dist.uniform(("X",), [(0,), (1,)]))
    bound = c.max_relative_probability(psem, "X", "Y")
    assert bound.value == F(1)


def test_relative_probability_vacuous_flag():
    psem = two_node(F(0))  # copy: Y=1 impossible under do(X=0) and do(X=1)... no
    # use an unreachable sink value instead
    sem = Sem(("X", "Y"), {"X": (0, 1), "Y": (0, 1, 2)},
              eq_map(c.StochasticEquation.from_rows("Y", ("X",),
                                                    {(0,): {0: F(1)}, (1,): {1: F(1)}})))
    psem = ProbabilisticSem(sem, Dist.uniform(("X",), [(0,), (1,)]))
    ratio, vacuous = c.relative_probability(psem, "Y", 2, "X", 0, 1)
    assert vacuous and ratio == F(1)
    ratio, vacuous = c.relative_probability(psem, "Y", 0, "X", 0, 1)
    assert not vacuous and c.is_infinite(ratio)


def test_source_inside_sink_rejected():
    psem = two_node(F(1, 3))
    with pytest.raises(c.InvalidEffectQuery):
        c.max_relative_probability(psem, ("X", "Y"), "X")
    with pytest.raises(c.UnknownVariable):
        c.max_relative_probability(psem, "Q", "X")


def test_tuple_sink_joint_effect():
    sem = Sem(("X", "Y", "W"), {"X": (0, 1), "Y": (0, 1), "W": (0, 1)},
              eq_map(coin_table("Y", ("X",), F(1, 3)),
                     coin_table("W", ("X",), F(1, 3))))
    psem = ProbabilisticSem(sem, Dist.uniform(("X",), [(0,), (1,)]))
    bound = c.max_relative_probability(psem, ("Y", "W"), "X")
    assert bound.value == F(4)  # both coordinates pay the factor-2 worst case


# --- population-robust bound over exogenous vertices -----------------------------------


def test_brp_bound_matches_classic_on_bundled_kernels():
    cases = [
        c.randomized_response_kernel(2, F(2, 3)),
        c.geometric_count_kernel(2, F(1, 2)),
        c.hidden_pair_kernel(),
        c.hidden_value_kernel(),
    ]
    for k in cases:
        classic = c.classic_epsilon(k).value
        worst = F(1)
        infinite = False
        for i in range(1, k.n + 1):
            b = c.brp_bound(c.as_sem(k), "O", c.r_name(i))
            if c.is_infinite(b.value):
                infinite = True
            else:
                worst = max(worst, b.value)
        got = c.INF if infinite else worst
        assert got == classic, k


def test_brp_bound_never_beaten_by_random_populations():
    rng = random.Random(7)
    k = c.geometric_count_kernel(2, F(1, 2))
    bound = c.brp_bound(c.as_sem(k), "O", "R_1").value
    points = list(product(k.data_domain, repeat=2))
    for _ in range(15):
        weights = {}
        for p in points:
            weights[p] = F(rng.randrange(1, 6))
        total = sum(weights.values())
        pop = Dist.from_weights(("R_1", "R_2"), {p: w / total for p, w in weights.items()})
        psem = c.as_sem(k, (), pop)
        got = c.max_relative_probability(psem, "O", "R_1").value
        assert c.ratio_le(got, bound)


def test_brp_bound_witness_names_the_vertex():
    k = c.hidden_value_kernel()
    b = c.brp_bound(c.as_sem(k), "O", "R_1")
    assert c.is_infinite(b.value)
    assert set(b.witness) == {"inputs", "y", "x_num", "x_den"}
    assert set(b.witness["inputs"]) == {"R_1"}


def test_brp_bound_stops_at_the_first_infinite_vertex(monkeypatch):
    # nothing beats an infinite bound, so the vertices after it are not read:
    # hidden_pair's vertex (R_1, R_2) = (0, 2) is the third of nine
    calls = []
    inner = brp.max_relative_probability

    def counted(psem, sink, source):
        calls.append(psem.exogenous_dist)
        return inner(psem, sink, source)

    monkeypatch.setattr(brp, "max_relative_probability", counted)
    b = c.brp_bound(c.as_sem(c.hidden_pair_kernel()).sem, "O", "R_1")
    assert c.is_infinite(b.value)
    assert b.witness["inputs"] == {"R_1": 0, "R_2": 2}
    assert len(calls) == 3


def test_hidden_pair_effect_vanishes_under_hiding_population():
    k = c.hidden_pair_kernel()
    pop = Dist.uniform(("R_1", "R_2"), list(product((0, 1), repeat=2)))
    psem = c.as_sem(k, (), pop)
    for src in ("R_1", "R_2"):
        assert c.max_relative_probability(psem, "O", src).value == F(1)


def test_brp_bound_accepts_bare_sem():
    sem = two_node(F(1, 3)).sem
    b = c.brp_bound(sem, "Y", "X")
    assert b.value == F(2)


# --- sequential composition -------------------------------------------------------------


def demo_stages():
    first = Sem(("X", "Y1"), {"X": (0, 1), "Y1": (0, 1)},
                eq_map(coin_table("Y1", ("X",), F(1, 3))))
    z_rows = {(0,): {0: F(2, 3), 1: F(1, 3)}, (1,): {0: F(1, 3), 1: F(2, 3)}}
    y2_rows = {
        (y1, z): {(y1 + z): F(1)} for y1 in (0, 1) for z in (0, 1)
    }
    second = Sem(
        ("X", "Y1", "Z", "Y2"),
        {"X": (0, 1), "Y1": (0, 1), "Z": (0, 1), "Y2": (0, 1, 2)},
        eq_map(
            c.StochasticEquation.from_rows("Z", ("X",), z_rows),
            c.StochasticEquation.from_rows("Y2", ("Y1", "Z"), y2_rows),
        ),
    )
    return first, second


def test_compose_sequential_wires_shared_interface():
    first, second = demo_stages()
    comp = c.compose_sequential(first, second, "X", "Y1", "Y2")
    assert comp.combined.names == ("X", "Y1", "Z", "Y2")
    assert comp.combined.exogenous == ("X",)


def test_composition_demo_frozen_bound():
    first, second = demo_stages()
    comp = c.compose_sequential(first, second, "X", "Y1", "Y2")
    rep = c.check_composition(comp, F(2), F(2))
    assert rep.passed
    assert rep.achieved == F(4)
    assert rep.target_ratio == F(4)
    assert rep.witness == {"inputs": {"X": 0}, "y": (0, 0), "x_num": 0, "x_den": 1}


def test_composition_premise_violation_detected():
    first, second = demo_stages()
    comp = c.compose_sequential(first, second, "X", "Y1", "Y2")
    with pytest.raises(c.PremiseViolated):
        c.check_composition(comp, F(3, 2), F(2))  # stage 1 really costs 2
    with pytest.raises(c.PremiseViolated):
        c.check_composition(comp, F(2), F(3, 2))


def test_compose_sequential_guards():
    """Each requirement is refused with its own message, in the order the
    docstring lists them."""
    first, second = demo_stages()
    # a first stage that also declares the second stage's Z, as an input
    wide_first = Sem(first.names + ("Z",), {**first.domains, "Z": (0, 1)}, first.equations)
    bad_first = Sem(("X", "Y1"), {"X": (0, 1), "Y1": (0, 1, 2)},
                    eq_map(c.StochasticEquation.from_rows("Y1", ("X",),
                                                          {(0,): {0: F(1)}, (1,): {1: F(1)}})))
    cases = [
        ((first, second, "X", "Z", "Y2"), "'Z' missing from a stage model"),
        ((first, second, "Y1", "Y1", "Y2"), "'Y1' must be an input of both stages"),
        ((second, second, "X", "Y1", "Y2"), "'Y1' must be computed by the first stage"),
        ((first, first, "X", "Y1", "Y1"), "'Y1' must be an input of the second stage"),
        ((first, second, "X", "Y1", "X"), "'X' must be computed by the second stage"),
        ((wide_first, second, "X", "Y1", "Y2"),
         "stages may share only the input and the interface, got ['X', 'Y1', 'Z']"),
        ((bad_first, second, "X", "Y1", "Y2"), "domains of 'Y1' disagree across stages"),
    ]
    for args, message in cases:
        with pytest.raises(c.NotInSequence) as raised:
            c.compose_sequential(*args)
        assert type(raised.value) is c.NotInSequence
        assert str(raised.value) == message


def test_random_compositions_respect_product_bound():
    rng = random.Random(97)
    for _ in range(20):
        first, second = random_two_stage(rng)
        comp = c.compose_sequential(first, second, "X", "Y1", "Y2")
        r1 = c.brp_bound(first, "Y1", "X").value
        r2 = c.brp_bound(second, "Y2", "X").value
        if c.is_infinite(r1) or c.is_infinite(r2):
            continue
        rep = c.check_composition(comp, r1, r2)
        assert rep.passed
        assert c.ratio_le(rep.achieved, c.ratio_mul(r1, r2))


def test_postprocessing_composes_for_free():
    rng = random.Random(131)
    seen_equal = 0
    for _ in range(10):
        first, second = random_two_stage(rng, postprocessing=True)
        comp = c.compose_sequential(first, second, "X", "Y1", "Y2")
        r1 = c.brp_bound(first, "Y1", "X").value
        if c.is_infinite(r1):
            continue
        rep = c.check_composition(comp, r1, F(1))
        assert rep.passed
        assert rep.achieved == r1  # stage 2 touches X only through Y1
        seen_equal += 1
    assert seen_equal >= 5


def test_a_sink_that_repeats_a_variable_is_rejected():
    """No composition reaches this: its pair sink joins two distinct stage
    outputs."""
    psem = two_node(F(1, 3))
    with pytest.raises(c.InvalidEffectQuery) as raised:
        c.max_relative_probability(psem, ("Y", "Y"), "X")
    assert str(raised.value) == "sink ('Y', 'Y') repeats a variable"
