"""Definition checkers: frozen separations, equivalences, falsifier, replay."""

import random
from fractions import Fraction as F
from itertools import product

import pytest

import causaldp as c
from causaldp import DefinitionId as DId
from causaldp import Dist
from conftest import random_kernel, random_population, unchecked_dist

ALL_POP_FREE = sorted(c.POPULATION_FREE, key=lambda d: d.value)
ALL_NEEDS_POP = sorted(c.NEEDS_POPULATION, key=lambda d: d.value)


def ada_model():
    """Two copies of one attribute behind a noisy count."""
    k = c.geometric_count_kernel(2, F(1, 2))
    attr = (c.copy_equation("R_2", "R_1", k.data_domain),)
    pop = Dist.from_weights(("R_1",), {(c.POS,): F(1, 2), (c.NEG,): F(1, 2)})
    return k, attr, pop


def model(k, pop, attr=()):
    """A kernel with its population and attribute equations, as the
    checkers take it."""
    return c.CanonicalModel(k, tuple(attr), pop)


# --- the copied-attribute separation, frozen ----------------------------------------


def test_ada_conditional_ratio_doubles():
    k, attr, pop = ada_model()
    rep = c.check_associative(DId.BAYESIAN0, model(k, pop, attr), F(2))
    assert not rep.passed
    assert rep.achieved == F(4)
    # both copies move together, so conditioning shifts the count by two
    assert rep.witness == {"i": 1, "v": c.POS, "v_prime": c.NEG, "o": 2}
    assert rep.skipped_comparisons == 30


def test_ada_interventional_ratio_stays_single_point():
    k, attr, pop = ada_model()
    rep = c.check_causal(DId.SINGLE_POINT_INTERVENTION, model(k, pop, attr), F(2))
    assert rep.passed
    assert rep.achieved == F(2)
    assert rep.skipped_comparisons == 0


def test_ada_whole_db_matches_classic():
    k, attr, pop = ada_model()
    rep = c.check_causal(DId.WHOLE_DB_INTERVENTION, model(k, pop, attr), F(2))
    assert rep.passed and rep.achieved == F(2)
    assert c.classic_epsilon(k).value == F(2)


def test_ada_bayesian0_at_four_passes():
    k, attr, pop = ada_model()
    rep = c.check_associative(DId.BAYESIAN0, model(k, pop, attr), F(4))
    assert rep.passed and rep.achieved == F(4)


# --- vacuity and skip accounting ------------------------------------------------------


def test_point_mass_population_passes_vacuously():
    k = c.hidden_value_kernel()
    pop = Dist.point_mass(("R_1",), (0,))
    rep = c.check_associative(DId.BAYESIAN0, model(k, pop), F(1))
    assert rep.passed and rep.achieved == F(1)
    assert rep.witness is None
    # every pair needs both values supported; a point mass supports one
    assert rep.skipped_comparisons > 0


def test_full_support_population_skips_nothing():
    rng = random.Random(3)
    k = random_kernel(rng, 2, 2, 2, full_support=True)
    pop = random_population(rng, k, full_support=True)
    for did in (DId.STRONG_ADVERSARY_ONE_DIST, DId.BAYESIAN0):
        rep = c.check_associative(did, model(k, pop), F(100))
        assert rep.skipped_comparisons == 0


def test_zero_weight_databases_are_skipped_not_crashed():
    k = c.hidden_value_kernel()
    pop = Dist.from_weights(("R_1",), {(0,): F(1, 2), (1,): F(1, 2)})  # value 2 unsupported
    rep = c.check_associative(DId.BAYESIAN0, model(k, pop), F(1))
    assert rep.passed  # the 0-vs-1 comparisons are all fair coins
    assert rep.skipped_comparisons > 0


# --- population-free equivalences -----------------------------------------------------


def test_population_free_definitions_agree_on_random_kernels():
    rng = random.Random(17)
    for _ in range(12):
        n, dom = rng.choice(((1, 2), (1, 3), (2, 2), (2, 3), (3, 2)))
        k = random_kernel(rng, n, dom, rng.choice((2, 3)),
                          full_support=rng.random() < 0.5)
        classic = c.classic_epsilon(k).value
        target = classic if not c.is_infinite(classic) else F(10 ** 9)
        values = {}
        for did in ALL_POP_FREE:
            rep = c.run_check(did, k, target_ratio=target)
            values[did] = rep.achieved
        assert len(set(values.values())) == 1, values
        assert values[DId.CLASSIC] == classic


def test_universal_single_point_never_exceeds_classic():
    rng = random.Random(29)
    for _ in range(12):
        n, dom = rng.choice(((1, 2), (2, 2), (2, 3)))
        k = random_kernel(rng, n, dom, 2)
        spu = c.run_check(DId.SINGLE_POINT_UNIVERSAL, k, target_ratio=F(10 ** 9))
        cls = c.classic_epsilon(k).value
        assert c.ratio_le(spu.achieved, cls)


def break_oracle_row(k, db):
    """Make the O row of `db` in the kernel's structural model, the one the
    oracle enumerates, answer all-pos for sure; the kernel's uniform-input
    model, built from the structural model, is built again from the broken
    one."""
    sem = k._canonical_sem
    out = sem.equations["O"]
    rows = {**out.rows, (db,): {(c.POS,) * k.n: F(1)}}
    equations = {**sem.equations, "O": c.StochasticEquation.from_rows("O", out.parents, rows)}
    k.__dict__["_canonical_sem"] = c.Sem(sem.names, sem.domains, equations)
    k.__dict__.pop("_uniform", None)


def count_calls(monkeypatch, *targets):
    """Wrap each (owner, name) to record its name per call; the record."""
    calls = []
    for owner, name in targets:
        inner = getattr(owner, name)

        def wrapper(*args, _inner=inner, _name=name, **kwargs):
            calls.append(_name)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_a_broken_oracle_row_fails_the_point_mass_reduction():
    """The oracle's O row of one database is wrong: the cross-check names the
    first (i, others, v) that reads it, and without the cross-check the
    report is unchanged."""
    k = c.randomized_response_kernel(3, F(2, 3))
    honest = c.run_check(DId.SINGLE_POINT_UNIVERSAL, k, F(2))
    break_oracle_row(k, (c.NEG, c.NULL, c.POS))

    with pytest.raises(c.CrossCheckMismatch) as raised:
        c.run_check(DId.SINGLE_POINT_UNIVERSAL, k, F(2))
    assert str(raised.value) == ("point-mass reduction failed at i=1, "
                                 "others=('null', 'pos'), v='neg'")
    unchecked = c.run_check(DId.SINGLE_POINT_UNIVERSAL, k, F(2), cross_check=False)
    assert (unchecked.achieved, unchecked.witness) == (honest.achieved, honest.witness)


def test_a_missing_point_mass_slice_is_a_mismatch(monkeypatch):
    """The oracle's lifts for point 2 lack the slice R_{-2} = (neg, pos): the
    cross-check names the first (i, others, v) that reads it."""
    honest = c.ProbabilisticSem.lift

    def without(self, variables):
        scale, cells = honest(self, variables).integer_table
        if variables[:-1] == ("R_1", "R_3"):
            cells = {point: w for point, w in cells.items()
                     if point[:-1] != (c.NEG, c.POS)}
        return unchecked_dist(variables, (scale, cells))

    monkeypatch.setattr(c.ProbabilisticSem, "lift", without)
    k = c.randomized_response_kernel(3, F(2, 3))
    with pytest.raises(c.CrossCheckMismatch) as raised:
        c.run_check(DId.SINGLE_POINT_UNIVERSAL, k, F(2))
    assert str(raised.value) == ("point-mass reduction failed at i=2, "
                                 f"others=('neg', 'pos'), v={k.data_domain[0]!r}")


def test_the_point_mass_reduction_is_checked_in_n_times_d_lifts(monkeypatch):
    """One oracle lift per (i, v), not one per point mass, of the kernel's
    own structural model: no release model is built for it."""
    import causaldp.mechanisms as mechanisms

    calls = count_calls(monkeypatch, (c.ProbabilisticSem, "lift"),
                        (mechanisms, "as_sem"))
    k = c.randomized_response_kernel(3, F(2, 3))
    report = c.run_check(DId.SINGLE_POINT_UNIVERSAL, k, F(2))
    assert report.passed and report.reduction.endswith("verified by enumeration")
    assert (calls.count("lift"), calls.count("as_sem")) == (3 * 3, 0)


def test_every_point_mass_comparison_is_a_counted_cross_check(monkeypatch):
    """`single_point_universal` runs on one engine, which counts one
    cross-check per (i, others, v): n*|D|^n on RR n=3."""
    import causaldp.checkers as checkers

    engines = []

    class Recorded(c.CanonicalEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(checkers, "CanonicalEngine", Recorded)
    k = c.randomized_response_kernel(3, F(2, 3))
    assert c.run_check(DId.SINGLE_POINT_UNIVERSAL, k, F(2)).passed
    assert [e.cross_checks_done for e in engines] == [3 * 3**3]


def test_a_broken_oracle_row_fails_the_whole_database_cross_check():
    """The oracle's O row of one database is wrong: both whole-database
    definitions, under any population, raise at the first query of it with
    the comparison's own message, and without the cross-check their reports
    are unchanged."""
    k = c.randomized_response_kernel(3, F(2, 3))
    skewed = Dist.from_weights(c.input_names(k), {(c.POS, c.NEG, c.NULL): F(1, 3),
                                     (c.NULL, c.NULL, c.NULL): F(2, 3)})
    runs = [(DId.WHOLE_DB_UNIVERSAL, None), (DId.WHOLE_DB_INTERVENTION, skewed)]
    honest = [c.run_check(did, k, F(2), pop) for did, pop in runs]
    break_oracle_row(k, (c.NEG, c.NULL, c.POS))

    for (did, pop), report in zip(runs, honest):
        with pytest.raises(c.CrossCheckMismatch) as raised:
            c.run_check(did, k, F(2), pop)
        assert str(raised.value) == (
            "closed form disagrees with enumeration under "
            "do([('D_1', 'neg'), ('D_2', 'null'), ('D_3', 'pos')]) at output "
            "('pos', 'pos', 'pos'): 1/9 vs 1"
        )
        unchecked = c.run_check(did, k, F(2), pop, cross_check=False)
        assert (unchecked.achieved, unchecked.witness) == \
            (report.achieved, report.witness)


def test_whole_db_cross_checks_take_one_lift_and_no_model_build(monkeypatch):
    """One oracle lift of the kernel's own structural model covers all 27
    databases of RR n=3, and no release model is built for it; without the
    cross-check there is no lift at all."""
    import causaldp.mechanisms as mechanisms

    calls = count_calls(monkeypatch, (c.ProbabilisticSem, "lift"),
                        (mechanisms, "as_sem"))
    k = c.randomized_response_kernel(3, F(2, 3))
    report = c.run_check(DId.WHOLE_DB_UNIVERSAL, k, F(2))
    assert report.passed and report.reduction.endswith("cross-checked by enumeration")
    assert (calls.count("lift"), calls.count("as_sem")) == (1, 0)

    calls.clear()
    unchecked = c.run_check(DId.WHOLE_DB_UNIVERSAL, k, F(2), cross_check=False)
    assert (unchecked.achieved, unchecked.witness) == (report.achieved, report.witness)
    assert calls == []


def test_hidden_pair_single_point_strictly_better_than_classic():
    k = c.hidden_pair_kernel()
    pop = Dist.uniform(("R_1", "R_2"), [(0, 0), (0, 1), (1, 0), (1, 1)])
    rep = c.check_causal(DId.SINGLE_POINT_INTERVENTION, model(k, pop), F(1))
    assert rep.passed and rep.achieved == F(1)
    assert c.is_infinite(c.classic_epsilon(k).value)


def test_hidden_value_conditional_perfect_interventional_broken():
    k = c.hidden_value_kernel()
    pop = Dist.uniform(("R_1",), [(0,), (1,)])
    assoc = c.check_associative(DId.STRONG_ADVERSARY_ONE_DIST, model(k, pop), F(1))
    assert assoc.passed and assoc.achieved == F(1)
    caus = c.check_causal(DId.SINGLE_POINT_INTERVENTION, model(k, pop), F(1))
    assert not caus.passed and c.is_infinite(caus.achieved)


# --- product-population route ---------------------------------------------------------


def test_independent_bayesian0_requires_product():
    k = c.hidden_pair_kernel()
    correlated = Dist.from_weights(("R_1", "R_2"), {(0, 0): F(1, 2), (1, 1): F(1, 2)})
    with pytest.raises(c.NotAProductDistribution):
        c.check_associative(DId.INDEPENDENT_BAYESIAN0, model(k, correlated), F(2))


def test_independent_bayesian0_accepts_skewed_product():
    k = c.randomized_response_kernel(2, F(2, 3))
    marg1 = {(c.POS,): F(1, 4), (c.NEG,): F(1, 2), (c.NULL,): F(1, 4)}
    marg2 = {(c.POS,): F(2, 3), (c.NEG,): F(1, 6), (c.NULL,): F(1, 6)}
    weights = {
        (a[0], b[0]): wa * wb for a, wa in marg1.items() for b, wb in marg2.items()
    }
    pop = Dist.from_weights(("R_1", "R_2"), weights)
    rep = c.check_associative(DId.INDEPENDENT_BAYESIAN0, model(k, pop), F(2))
    assert rep.passed and rep.achieved == F(2)


def test_bayesian0_on_product_matches_independent_variant():
    rng = random.Random(41)
    for _ in range(6):
        k = random_kernel(rng, 2, 2, 2, full_support=True)
        m1 = random_population(rng, k, full_support=True).marginal(("D_1",))
        m2 = random_population(rng, k, full_support=True).marginal(("D_2",))
        pop = Dist.product(m1, m2)
        a = c.check_associative(DId.BAYESIAN0, model(k, pop), F(50))
        b = c.check_associative(DId.INDEPENDENT_BAYESIAN0, model(k, pop), F(50))
        assert a.achieved == b.achieved


# --- the falsification search, frozen outcomes ---------------------------------------


def test_falsify_rr_finds_diagonal_population():
    k = c.randomized_response_kernel(2, F(2, 3))
    out = c.falsify_bayesian0(k, F(2), search_budget=2)
    assert out.found
    assert out.candidates_tried == 4
    assert out.population.weights == {
        (c.NEG, c.NEG): F(1, 2),
        (c.NULL, c.NULL): F(1, 2),
    }
    assert out.report.achieved == F(9, 4)
    w = out.report.witness
    assert (w["i"], w["v"], w["v_prime"], w["o"]) == (1, c.NULL, c.NEG, (c.POS, c.POS))


def test_falsify_constant_kernel_exhausts_budget():
    k = c.constant_kernel(2, (0, 1), 0, ("x", "y"), {"x": F(1, 2), "y": F(1, 2)})
    out = c.falsify_bayesian0(k, F(1), search_budget=3)
    assert not out.found
    assert out.candidates_tried == 28
    assert out.population is None and out.report is None
    assert "not a proof" in out.note


def test_falsify_geometric_at_loose_target_not_found():
    k = c.geometric_count_kernel(2, F(1, 2))
    out = c.falsify_bayesian0(k, F(4), search_budget=2)
    assert not out.found
    assert out.candidates_tried == 39


def test_rr_posneg_diagonal_is_another_violation():
    # the other correlated family: pos/neg diagonal reaches the squared ratio
    k = c.randomized_response_kernel(2, F(2, 3))
    pop = Dist.from_weights(("R_1", "R_2"), {(c.POS, c.POS): F(1, 2), (c.NEG, c.NEG): F(1, 2)})
    rep = c.check_associative(DId.BAYESIAN0, model(k, pop), F(2))
    assert not rep.passed and rep.achieved == F(4)


# --- dispatch and population demands --------------------------------------------------


def test_run_check_population_contracts():
    k = c.hidden_value_kernel()
    pop = Dist.uniform(("R_1",), [(0,), (1,), (2,)])
    for did in ALL_NEEDS_POP:
        with pytest.raises(c.MissingPopulation):
            c.run_check(did, k, target_ratio=F(2))
    for did in ALL_POP_FREE:
        with pytest.raises(c.UnexpectedPopulation):
            c.run_check(did, k, population=pop, target_ratio=F(2))


def test_run_check_accepts_data_point_named_population():
    k = c.hidden_value_kernel()
    pop = Dist.uniform(("D_1",), [(0,), (1,)])
    rep = c.run_check(DId.BAYESIAN0, k, population=pop, target_ratio=F(1))
    assert rep.passed


def test_run_check_routes_attribute_equations_to_induced_population():
    k, attr, pop = ada_model()
    rep = c.run_check(DId.BAYESIAN0, model(k, None, attr), F(2), pop)
    assert not rep.passed and rep.achieved == F(4)


def test_report_carries_identity_fields():
    k = c.hidden_value_kernel()
    rep = c.run_check(DId.CLASSIC, k, target_ratio=F(2))
    assert rep.definition == DId.CLASSIC
    assert rep.target_ratio == F(2)
    assert not rep.passed
    assert rep.reduction


# --- witness replay --------------------------------------------------------------------


def collect_reports(k, pop, attr=()):
    reports = []
    for did in ALL_POP_FREE:
        reports.append((did, c.run_check(did, k, target_ratio=F(1))))
    if pop is not None:
        for did in ALL_NEEDS_POP:
            try:
                rep = c.run_check(did, model(k, pop, attr), target_ratio=F(1))
            except c.NotAProductDistribution:
                continue  # correlated population, product-only definition
            reports.append((did, rep))
    return reports


def test_every_witness_replays_to_achieved_value():
    rng = random.Random(53)
    cases = [
        (c.randomized_response_kernel(2, F(2, 3)), None, ()),
        (c.geometric_count_kernel(2, F(1, 2)), None, ()),
        (c.hidden_pair_kernel(),
         Dist.uniform(("R_1", "R_2"), list(product((0, 1), repeat=2))), ()),
    ]
    k, attr, pop = ada_model()
    cases.append((k, pop, attr))
    for _ in range(4):
        rk = random_kernel(rng, 2, 2, 2, full_support=True)
        cases.append((rk, random_population(rng, rk, full_support=True), ()))
    checked = 0
    for kern, population, attrs in cases:
        for did, rep in collect_reports(kern, population, attrs):
            if rep.witness is None:
                continue
            replayed = c.replay_witness(
                did, kern, rep.witness,
                population=population, attribute_equations=attrs,
            )
            assert replayed == rep.achieved, (did, rep.witness)
            checked += 1
    assert checked >= 30


def test_witnesses_are_deterministic_across_runs():
    k = c.randomized_response_kernel(2, F(2, 3))
    first = [c.run_check(d, k, target_ratio=F(2)).witness
             for d in ALL_POP_FREE]
    second = [c.run_check(d, k, target_ratio=F(2)).witness
              for d in ALL_POP_FREE]
    assert first == second


def test_cross_check_flag_controls_engine_verification():
    k = c.geometric_count_kernel(2, F(1, 2))
    pop = Dist.uniform(("R_1", "R_2"),
                       list(product(k.data_domain, repeat=2)))
    fast = c.check_causal(DId.WHOLE_DB_INTERVENTION, model(k, pop), F(2),
                          cross_check=False)
    slow = c.check_causal(DId.WHOLE_DB_INTERVENTION, model(k, pop), F(2),
                          cross_check=True)
    assert fast.achieved == slow.achieved == F(2)


def test_only_cross_checks_and_attribute_equations_build_the_model():
    """Without cross-checks or attribute equations the engine reads the data
    joint straight from the population, so no run builds the canonical model;
    a cross-checking engine builds it at its first verify and runs every
    cross-check it always ran."""
    k = c.randomized_response_kernel(2, F(2, 3))
    pop = Dist.uniform(("R_1", "R_2"), list(k.databases()))
    for did in ALL_NEEDS_POP:
        c.run_check(did, k, F(2), pop, cross_check=False)
    c.run_check(DId.WHOLE_DB_UNIVERSAL, k, F(2), cross_check=False)
    c.falsify_bayesian0(k, F(2), search_budget=2)
    c.posterior(k, pop, (c.POS, c.POS))
    c.semantic_gap(k, pop, 1, c.NULL)
    assert "_canonical_sem" not in k.__dict__

    engine = c.CanonicalEngine(model(k, pop), cross_check=True)
    assert "_canonical_sem" not in k.__dict__
    for db in k.databases():
        engine.output_given_db(db)
    for i in (1, 2):
        for v in k.data_domain:
            engine.output_given_point(i, v)
    assert "_canonical_sem" in k.__dict__
    assert engine.cross_checks_done == 9 + 2 * 3

    tied, attr, tied_pop = ada_model()
    c.run_check(DId.BAYESIAN0, model(tied, tied_pop, attr), F(2))
    assert "_canonical_sem" in tied.__dict__


def test_cross_checking_engines_on_one_kernel_share_its_uniform_model(monkeypatch):
    """The kernel's structural model under the uniform input is built and
    validated once per kernel (`MechanismKernel._uniform`): two
    cross-checking engines on one kernel, under different populations, read
    their whole-database rows and their point masses off one object."""
    k = c.randomized_response_kernel(2, F(2, 3))
    read, inner = [], c.CanonicalEngine._oracle_rows

    def recorded(self, psem, *args):
        read.append((self, psem))
        return inner(self, psem, *args)

    monkeypatch.setattr(c.CanonicalEngine, "_oracle_rows", recorded)
    skewed = Dist.from_weights(c.input_names(k), {(c.POS, c.NEG): F(1, 3), (c.NULL, c.NULL): F(2, 3)})
    engines = [c.CanonicalEngine(model(k, pop), cross_check=True) for pop in (None, skewed)]
    for engine in engines:
        engine.output_given_db((c.POS, c.NEG))
        engine.verify_point_masses()
    assert [engine for engine, _ in read] == [engines[0]] * 7 + [engines[1]] * 7  # 1 + n|D| lifts
    assert {id(psem) for _, psem in read} == {id(k._uniform)}


@pytest.mark.parametrize("checker, definition, message", [
    (c.check_associative, DId.WHOLE_DB_INTERVENTION,
     "whole_db_intervention is not a per-population conditional definition"),
    (c.check_causal, DId.BAYESIAN0,
     "bayesian0 is not a per-population interventional definition"),
    (c.check_universal_causal, DId.CLASSIC,
     "classic is not a universal interventional definition"),
], ids=["associative", "causal", "universal_causal"])
def test_a_checker_refuses_a_definition_of_another_family(checker, definition, message):
    """`run_check` routes every definition to its own checker, so only a
    direct call reaches these refusals."""
    k = c.randomized_response_kernel(2, F(2, 3))
    pop = c.Dist.uniform(c.data_point_names(k), k.databases())
    target = k if checker is c.check_universal_causal else model(k, pop)
    with pytest.raises(c.DomainMismatch) as raised:
        checker(definition, target, F(2))
    assert str(raised.value) == message
