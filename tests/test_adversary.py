"""Posterior beliefs, interventional beliefs, and the gap between them."""

import random
from fractions import Fraction as F
from itertools import product

import pytest

import causaldp as c
from causaldp import Dist
from conftest import random_kernel, random_population


def hv_prior():
    # hidden-value kernel, adversary unsure between the two revealing values
    return Dist.uniform(("D_1",), [(0,), (1,)])


# --- plain posterior, hand-checked values -----------------------------------------


def test_posterior_hand_values():
    k = c.randomized_response_kernel(1, F(2, 3))
    prior = Dist.uniform(("D_1",), [(c.POS,), (c.NEG,)])
    post = c.posterior(k, prior, (c.POS,))
    assert post.weight_of((c.POS,)) == F(2, 3)
    assert post.weight_of((c.NEG,)) == F(1, 3)


def test_posterior_two_respondents_hand_values():
    # frozen from the worked example: uniform prior on {pos,neg}^2, rr bias 2/3
    k = c.randomized_response_kernel(2, F(2, 3))
    prior = Dist.uniform(("D_1", "D_2"),
                         [(a, b) for a in (c.POS, c.NEG) for b in (c.POS, c.NEG)])
    post = c.posterior(k, prior, (c.POS, c.POS))
    assert post.weight_of((c.POS, c.POS)) == F(4, 9)
    assert post.weight_of((c.NEG, c.NEG)) == F(1, 9)
    assert sum(post.weights.values()) == 1


def test_posterior_accepts_r_named_prior():
    k = c.hidden_value_kernel()
    post = c.posterior(k, Dist.uniform(("R_1",), [(0,), (1,)]), 0)
    assert post.weight_of((0,)) == F(1, 2)


def test_r_named_and_d_named_priors_agree():
    rng = random.Random(6)
    for n, dom, out in ((1, 3, 2), (2, 2, 3), (2, 3, 2)):
        k = random_kernel(rng, n, dom, out)
        d_prior = random_population(rng, k, full_support=False)
        r_prior = Dist.from_weights(c.input_names(k), d_prior.weights)
        v = k.data_domain[-1]
        for o in k.output_domain:
            for args in ((o,), (n, v, o)):
                fn = c.posterior if len(args) == 1 else c.posterior_under_intervention
                try:
                    expected = fn(k, d_prior, *args)
                except c.ZeroEvidence:
                    with pytest.raises(c.ZeroEvidence):
                        fn(k, r_prior, *args)
                    continue
                assert fn(k, r_prior, *args) == expected
        assert c.semantic_gap(k, r_prior, n, v) == c.semantic_gap(k, d_prior, n, v)


def test_prior_over_other_names_is_rejected():
    k = c.hidden_value_kernel()
    prior = Dist.uniform(("X",), [(0,), (1,)])
    for call in (
        lambda: c.posterior(k, prior, 0),
        lambda: c.posterior_under_intervention(k, prior, 1, 0, 0),
        lambda: c.semantic_gap(k, prior, 1, 0),
    ):
        with pytest.raises(c.DomainMismatch):
            call()


def test_posterior_preserves_zero_prior_points():
    k = c.randomized_response_kernel(1, F(2, 3))
    prior = Dist.from_weights(("D_1",), {(c.POS,): F(1)})
    post = c.posterior(k, prior, (c.NEG,))
    assert post.weight_of((c.POS,)) == F(1)
    assert post.weight_of((c.NEG,)) == 0


def test_posterior_zero_evidence_raises():
    k = c.hidden_pair_kernel()
    prior = Dist.point_mass(("D_1", "D_2"), (2, 2))
    with pytest.raises(c.ZeroEvidence):
        c.posterior(k, prior, 1)  # (2,2) always reports 0


def test_posterior_rejects_bad_observation():
    k = c.hidden_value_kernel()
    with pytest.raises(c.ValueOutOfDomain):
        c.posterior(k, hv_prior(), (7,))


# --- posterior under an intervention ------------------------------------------------


def test_forced_posterior_hand_values():
    # frozen worked example: hidden-value kernel, uniform prior on {0,1},
    # force the point to 0, observe output 0.
    # plain: P(0 | o=0) = (1/2 * 1/2) / (1/2 * 1/2 + 1/2 * ... )
    k = c.hidden_value_kernel()
    plain = c.posterior(k, hv_prior(), 0)
    assert plain.weight_of((0,)) == F(1, 2)
    forced = c.posterior_under_intervention(k, hv_prior(), 1, 0, 0)
    # forcing cuts the link: likelihood is the same for every prior point
    assert forced.weight_of((0,)) == F(1, 2)
    assert forced.weight_of((1,)) == F(1, 2)


def test_forced_posterior_worked_example():
    # frozen from the ledger: rr(1, 2/3), skewed prior 4/5 on pos.
    k = c.randomized_response_kernel(1, F(2, 3))
    prior = Dist.from_weights(("D_1",), {(c.POS,): F(4, 5), (c.NEG,): F(1, 5)})
    plain = c.posterior(k, prior, (c.POS,))
    assert plain.weight_of((c.POS,)) == F(8, 9)
    forced = c.posterior_under_intervention(k, prior, 1, c.POS, (c.POS,))
    # belief is unchanged: the observation came from the forced value
    assert forced.weight_of((c.POS,)) == F(4, 5)
    assert forced.weight_of((c.NEG,)) == F(1, 5)


def test_forced_posterior_other_points_still_update():
    k = c.randomized_response_kernel(2, F(2, 3))
    prior = Dist.uniform(("D_1", "D_2"),
                         [(a, b) for a in (c.POS, c.NEG) for b in (c.POS, c.NEG)])
    forced = c.posterior_under_intervention(k, prior, 1, c.POS, (c.POS, c.POS))
    # coordinate 1 carries no evidence (it was forced); coordinate 2 does
    m1 = forced.marginal(("D_1",))
    m2 = forced.marginal(("D_2",))
    assert m1.weight_of((c.POS,)) == F(1, 2)
    assert m2.weight_of((c.POS,)) == F(2, 3)


def test_forced_posterior_guards():
    k = c.hidden_value_kernel()
    with pytest.raises(c.ValueOutOfDomain):
        c.posterior_under_intervention(k, hv_prior(), 1, 9, 0)
    with pytest.raises(c.DomainMismatch):
        c.posterior_under_intervention(k, hv_prior(), 2, 0, 0)
    with pytest.raises(c.DomainMismatch):
        c.posterior_under_intervention(k, hv_prior(), 0, 0, 0)


# --- the gap between observing and forcing --------------------------------------------


def test_semantic_gap_worked_example():
    # independent oracle: plain P(neg | (pos,)) = 1/9, forced posterior equals
    # the prior, so the worst pair is (o=(pos,), d=neg) at (1/5)/(1/9) = 9/5
    k = c.randomized_response_kernel(1, F(2, 3))
    prior = Dist.from_weights(("D_1",), {(c.POS,): F(4, 5), (c.NEG,): F(1, 5)})
    gap = c.semantic_gap(k, prior, 1, c.POS)
    assert gap.value == F(9, 5)
    assert gap.witness == {
        "o": (c.POS,), "d": (c.NEG,), "direction": "forced_over_plain",
    }


def test_semantic_gap_tie_goes_to_the_documented_order():
    # output a, uniform prior, point 1 forced to 1: plain (3/10, 1/5, 1/5,
    # 3/10) and forced (1/5, 3/10, 1/5, 3/10) over (0,0), (0,1), (1,0), (1,1)
    # tie at 3/2 between plain/forced at (0,0) and forced/plain at (0,1);
    # forced over plain is swept first, over every database in the support
    same, cross = {"a": F(1, 2), "b": F(1, 2)}, {"a": F(1, 3), "b": F(2, 3)}
    k = c.MechanismKernel.from_table(2, (0, 1), 0, ("a", "b"),
                                     {(0, 0): same, (0, 1): cross, (1, 0): cross, (1, 1): same})
    prior = Dist.uniform(("D_1", "D_2"), list(k.databases()))
    gap = c.semantic_gap(k, prior, 1, 1)
    assert gap.value == F(3, 2)
    assert gap.witness == {"o": "a", "direction": "forced_over_plain", "d": (0, 1)}


def test_semantic_gap_is_one_for_constant_kernel():
    k = c.constant_kernel(1, (0, 1), 0, ("x", "y"), {"x": F(1, 3), "y": F(2, 3)})
    prior = Dist.uniform(("D_1",), [(0,), (1,)])
    gap = c.semantic_gap(k, prior, 1, 0)
    assert gap.value == F(1)
    assert gap.witness is None


def test_semantic_gap_skips_zero_evidence_outputs():
    k = c.hidden_pair_kernel()
    prior = Dist.point_mass(("D_1", "D_2"), (2, 2))
    gap = c.semantic_gap(k, prior, 1, 2)
    # observing output 1 is impossible both plainly and under the force
    assert gap.value == F(1)


def test_semantic_gap_bounded_by_squared_classic():
    rng = random.Random(61)
    for _ in range(8):
        n = rng.choice((1, 2))
        k = random_kernel(rng, n, 2, rng.choice((2, 3)), full_support=True)
        classic = c.classic_epsilon(k).value
        if c.is_infinite(classic):
            continue
        prior = random_population(rng, k, full_support=True)
        for i in range(1, n + 1):
            for v in k.data_domain:
                gap = c.semantic_gap(k, prior, i, v)
                assert c.ratio_le(gap.value, classic * classic), (i, v)


def test_semantic_gap_frozen_max_for_rr():
    # independent oracle over all (i, v) under the uniform prior: the worst
    # gap for rr(2, 2/3) is exactly 3/2, well under the classic square of 4
    k = c.randomized_response_kernel(2, F(2, 3))
    prior = Dist.uniform(
        ("D_1", "D_2"),
        [(a, b) for a in (c.POS, c.NEG, c.NULL) for b in (c.POS, c.NEG, c.NULL)],
    )
    worst = max(
        c.semantic_gap(k, prior, i, v).value
        for i in (1, 2)
        for v in k.data_domain
    )
    assert worst == F(3, 2)


def test_semantic_gap_witness_deterministic():
    k = c.randomized_response_kernel(1, F(2, 3))
    prior = Dist.from_weights(("D_1",), {(c.POS,): F(4, 5), (c.NEG,): F(1, 5)})
    a = c.semantic_gap(k, prior, 1, c.POS).witness
    b = c.semantic_gap(k, prior, 1, c.POS).witness
    assert a == b
