"""Mechanism kernels and the canonical release model."""

import random
from fractions import Fraction as F
from itertools import product

import pytest

import causaldp as c
from causaldp import (
    NEG,
    NULL,
    POS,
    BiasOutOfRange,
    CanonicalEngine,
    Dist,
    RatioOutOfRange,
)
from causaldp.cli import main
from conftest import random_kernel, random_population


def brute_force_classic(kernel):
    """Independent route to the worst-case row ratio: raw dict arithmetic."""
    best = F(1)
    infinite = False
    for d in kernel.databases():
        for i in range(kernel.n):
            for v in kernel.data_domain:
                d2 = d[:i] + (v,) + d[i + 1 :]
                for o in kernel.output_domain:
                    num = kernel.table[d].get(o, F(0))
                    den = kernel.table[d2].get(o, F(0))
                    if den == 0:
                        if num > 0:
                            infinite = True
                        continue
                    best = max(best, num / den)
    return c.INF if infinite else best


# --- randomized response ---------------------------------------------------------


def test_rr_bias_range_enforced():
    for bad in (F(1, 2), F(1), F(0), F(2, 3) * 2):
        with pytest.raises(BiasOutOfRange):
            c.randomized_response_kernel(2, bad)


def test_rr_rows_are_products_of_per_respondent_channels():
    k = c.randomized_response_kernel(2, F(2, 3))
    # truthful pos answers pos w.p. 2/3; null flips a fair coin
    assert k.table[(POS, NEG)][(POS, POS)] == F(2, 3) * F(1, 3)
    assert k.table[(POS, NEG)][(POS, NEG)] == F(2, 3) * F(2, 3)
    assert k.table[(NULL, POS)][(POS, POS)] == F(1, 2) * F(2, 3)
    assert k.table[(NULL, NULL)][(NEG, POS)] == F(1, 4)


def test_rr_row_sums_and_support():
    k = c.randomized_response_kernel(3, F(3, 4))
    for db in k.databases():
        assert sum(k.table[db].values()) == 1
        # reports never contain null: all 2^3 report vectors possible
        assert len(k.table[db]) == 8


@pytest.mark.parametrize("n,q,expected", [
    (1, F(2, 3), F(2)),
    (2, F(2, 3), F(2)),
    (3, F(2, 3), F(2)),
    (2, F(3, 4), F(3)),
])
def test_rr_classic_ratio_is_odds_of_truth_bias(n, q, expected):
    k = c.randomized_response_kernel(n, q)
    bound = c.classic_epsilon(k)
    assert bound.value == expected
    assert brute_force_classic(k) == expected


# --- geometric count ---------------------------------------------------------------


def test_geometric_ratio_range_enforced():
    for bad in (F(0), F(1), F(3, 2)):
        with pytest.raises(RatioOutOfRange):
            c.geometric_count_kernel(2, bad)


def test_geometric_rows_frozen_n2_half():
    # frozen from the independent oracle: n=2, r=1/2
    k = c.geometric_count_kernel(2, F(1, 2))
    count0 = k.table[(NEG, NULL)]  # zero pos entries
    assert count0 == {0: F(2, 3), 1: F(1, 6), 2: F(1, 6)}
    count1 = k.table[(POS, NEG)]
    assert count1 == {0: F(1, 3), 1: F(1, 3), 2: F(1, 3)}
    count2 = k.table[(POS, POS)]
    assert count2 == {0: F(1, 6), 1: F(1, 6), 2: F(2, 3)}


def test_geometric_rows_depend_only_on_count():
    k = c.geometric_count_kernel(3, F(1, 2))
    assert k.table[(POS, NEG, NULL)] == k.table[(NULL, NEG, POS)]
    assert k.table[(POS, POS, NULL)] == k.table[(NULL, POS, POS)]
    for db in k.databases():
        assert sum(k.table[db].values()) == 1


def test_geometric_row_symmetry_mirror():
    # the clamped two-sided noise is symmetric: row(c)[o] == row(n-c)[n-o]
    n = 3
    k = c.geometric_count_kernel(n, F(1, 3))
    low = k.table[(NEG,) * n]     # count 0
    high = k.table[(POS,) * n]    # count n
    assert low == {n - o: w for o, w in high.items()}


@pytest.mark.parametrize("n,r", [(1, F(1, 2)), (2, F(1, 2)), (3, F(1, 2)),
                                 (2, F(1, 3)), (4, F(2, 3))])
def test_geometric_classic_ratio_is_inverse_noise(n, r):
    k = c.geometric_count_kernel(n, r)
    bound = c.classic_epsilon(k)
    assert bound.value == 1 / r
    assert brute_force_classic(k) == 1 / r


# --- the hiding counterexample kernels -----------------------------------------------


def test_hidden_pair_kernel_shape():
    k = c.hidden_pair_kernel()
    assert k.n == 2 and k.data_domain == (0, 1, 2)
    assert k.table[(2, 2)] == {0: F(1)}
    assert k.table[(0, 2)] == {0: F(1, 2), 1: F(1, 2)}
    assert c.is_infinite(c.classic_epsilon(k).value)


def test_hidden_value_kernel_shape():
    k = c.hidden_value_kernel()
    assert k.n == 1
    assert k.table[(2,)] == {0: F(1)}
    assert k.table[(0,)] == {0: F(1, 2), 1: F(1, 2)}
    assert c.is_infinite(c.classic_epsilon(k).value)


def test_constant_kernel_is_perfectly_private():
    k = c.constant_kernel(2, (0, 1), 0, ("x", "y"), {"x": F(1, 3), "y": F(2, 3)})
    assert c.classic_epsilon(k).value == F(1)


# --- classic witness discipline ------------------------------------------------------


def test_classic_witness_is_first_maximizer_and_replays():
    k = c.geometric_count_kernel(2, F(1, 2))
    bound = c.classic_epsilon(k)
    w = bound.witness
    assert w == {"i": 1, "d": (POS, POS), "d_prime_i": NEG, "o": 2}
    num = k.table[w["d"]][w["o"]]
    d2 = (NEG, POS)
    assert num / k.table[d2][w["o"]] == bound.value


def test_kernel_table_coverage_enforced():
    with pytest.raises(c.DomainMismatch):
        c.MechanismKernel(2, (0, 1), 0, ("x",), {(0, 0): {"x": F(1)}})


def test_kernel_rows_must_sum_to_one():
    with pytest.raises(c.DomainMismatch):
        c.MechanismKernel(
            1, (0,), 0, ("x", "y"), {(0,): {"x": F(1, 2), "y": F(1, 3)}}
        )


# --- canonical model ------------------------------------------------------------------


def test_as_sem_structure_and_order():
    k = c.randomized_response_kernel(2, F(2, 3))
    psem = c.as_sem(k)
    assert psem.sem.names == ("R_1", "R_2", "D_1", "D_2", "D", "O")
    assert psem.sem.exogenous == ("R_1", "R_2")
    assert psem.sem.parents_of("D_1") == ("R_1",)
    assert psem.sem.parents_of("D") == ("D_1", "D_2")
    assert psem.sem.parents_of("O") == ("D",)


def test_as_sem_default_population_is_iid_uniform():
    k = c.hidden_value_kernel()
    psem = c.as_sem(k)
    assert psem.exogenous_dist == Dist.uniform(("R_1",), [(0,), (1,), (2,)])


def test_as_sem_output_matches_kernel_row_under_point_mass():
    k = c.geometric_count_kernel(2, F(1, 2))
    pop = Dist.point_mass(("R_1", "R_2"), (POS, NEG))
    joint = c.as_sem(k, (), pop).lift()
    out = joint.marginal(("O",))
    for o, w in k.table[(POS, NEG)].items():
        assert out.weight_of((o,)) == w


def test_as_sem_attribute_equation_correlates_points():
    k = c.geometric_count_kernel(2, F(1, 2))
    attr = (c.copy_equation("R_2", "R_1", k.data_domain),)
    pop = Dist(("R_1",), {(POS,): F(1, 2), (NEG,): F(1, 2)})
    joint = c.as_sem(k, attr, pop).lift()
    assert joint.prob({"D_1": POS, "D_2": POS}) == F(1, 2)
    assert joint.prob({"D_1": POS, "D_2": NEG}) == 0


def test_as_sem_shares_one_population_free_model_per_kernel():
    k = c.geometric_count_kernel(2, F(1, 2))
    attr = (c.copy_equation("R_2", "R_1", k.data_domain),)
    tied = c.as_sem(k, attr, Dist.uniform(("R_1",), [(v,) for v in k.data_domain]))
    skew = c.as_sem(k, (), Dist.point_mass(("R_1", "R_2"), (POS, NEG)))
    plain = c.as_sem(k)
    assert skew.sem is plain.sem
    assert tied.sem.exogenous == ("R_1",)
    assert plain.sem.exogenous == ("R_1", "R_2")
    assert "R_2" not in plain.sem.equations


def test_as_sem_reads_a_data_point_population_as_the_inputs():
    # D_i := R_i without attribute equations: the same weights, either name
    rng = random.Random(17)
    k = random_kernel(rng, 2, 3, 2)
    over_d = random_population(rng, k, full_support=False)
    over_r = Dist(c.input_names(k), over_d.weights)
    assert c.as_sem(k, (), over_d).lift() == c.as_sem(k, (), over_r).lift()


def test_data_point_population_with_attribute_equations_is_rejected(tmp_path, capsys):
    # with an equation among the inputs, D_i names no exogenous variable
    k = c.geometric_count_kernel(2, F(1, 2))
    attr = (c.copy_equation("R_2", "R_1", k.data_domain),)
    over_d = Dist(("D_1",), {(POS,): F(1, 2), (NEG,): F(1, 2)})
    with pytest.raises(c.DomainMismatch):
        c.as_sem(k, attr, over_d)
    path = tmp_path / "model.json"
    model = c.CanonicalModel(k, attr, over_d)
    path.write_text(c.canonical_json(c.serialize_input(model)), encoding="utf-8")
    for definition in sorted(c.NEEDS_POPULATION):
        with pytest.raises(c.DomainMismatch):
            c.run_check(definition, k, F(2), over_d, attr)
        argv = ["check", definition.value, str(path), "--target-ratio", "2"]
        assert main(argv) == 4
        assert "error:" in capsys.readouterr().err


def test_as_sem_rejects_attribute_equations_on_data_points():
    k = c.hidden_pair_kernel()
    bad = (c.copy_equation("D_2", "D_1", k.data_domain),)
    with pytest.raises(c.UnknownVariable):
        c.as_sem(k, bad)


def test_engine_closed_forms_match_enumeration_random():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.choice((1, 2))
        k = random_kernel(rng, n, rng.choice((2, 3)), rng.choice((2, 3)))
        pop = random_population(rng, k, full_support=rng.random() < 0.5)
        pop_r = Dist(c.input_names(k), dict(pop.weights))
        engine = CanonicalEngine(k, pop_r, cross_check=True)
        for db in k.databases():
            engine.output_given_db(db)  # raises RuntimeError on any mismatch
        for i in range(1, n + 1):
            for v in k.data_domain:
                engine.output_given_point(i, v)
        expected = len(list(k.databases())) + n * len(k.data_domain)
        assert engine.cross_checks_done == expected


def test_engine_db_query_ignores_population():
    k = c.randomized_response_kernel(2, F(2, 3))
    skew = Dist(c.input_names(k), {(POS, POS): F(1)})
    uniform = Dist.uniform(
        c.input_names(k), product(k.data_domain, repeat=2)
    )
    e1 = CanonicalEngine(k, skew, cross_check=True)
    e2 = CanonicalEngine(k, uniform, cross_check=True)
    for db in k.databases():
        assert e1.output_given_db(db) == e2.output_given_db(db)


def test_engine_point_query_uses_undisturbed_marginal():
    # hand-computable: n=2, correlated population, do(D_1 = v)
    k = c.hidden_pair_kernel()
    pop = Dist(("R_1", "R_2"), {(0, 0): F(1, 2), (2, 2): F(1, 2)})
    engine = CanonicalEngine(k, pop, cross_check=True)
    got = engine.output_given_point(1, 2)
    # other point keeps its marginal: 0 or 2 with prob 1/2 each
    # db (2,0): coin; db (2,2): always 0
    assert got == {0: F(1, 2) * F(1, 2) + F(1, 2), 1: F(1, 4)}


def test_engine_rejects_bad_point_queries():
    k = c.hidden_value_kernel()
    engine = CanonicalEngine(k)
    for query in (engine.output_given_point, engine.output_conditioned_on_point):
        with pytest.raises(c.ValueOutOfDomain):
            query(2, 0)
        with pytest.raises(c.ValueOutOfDomain):
            query(1, 9)
    with pytest.raises(c.ValueOutOfDomain):
        engine.output_conditioned_on_db((9,))


def test_engine_conditioning_and_intervening_differ_only_in_weights():
    # same correlated population as above: D_1 = D_2 = 0 or 2, half each
    k = c.hidden_pair_kernel()
    pop = Dist(("R_1", "R_2"), {(0, 0): F(1, 2), (2, 2): F(1, 2)})
    engine = CanonicalEngine(k, pop)
    # conditioning on D_1 = 2 fixes D_2 = 2; intervening leaves D_2 alone
    assert engine.output_conditioned_on_point(1, 2) == {0: F(1)}
    assert engine.output_given_point(1, 2) == {0: F(3, 4), 1: F(1, 4)}
    assert engine.output_conditioned_on_point(1, 1) is None
    assert engine.output_conditioned_on_db((2, 2)) == k.row((2, 2))
    assert engine.output_conditioned_on_db((0, 2)) is None
    assert engine.base_joint().variables == ("D_1", "D_2")
