"""Acceptance criteria.

Each test records exactly one pass/fail line through the `acceptance`
fixture; the terminal summary prints them together after the run.
"""

import random
from fractions import Fraction as F
from itertools import product

import causaldp as c
from causaldp import DefinitionId as DId
from causaldp import Dist
from causaldp.modelfile import canonical_json, parse_text, serialize_input
from conftest import random_kernel, random_population, random_two_stage


def kernel_corpus(count, seed):
    rng = random.Random(seed)
    dims = ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2))
    for _ in range(count):
        n, dom = rng.choice(dims)
        yield rng, random_kernel(
            rng, n, dom, rng.choice((2, 3)), full_support=rng.random() < 0.5
        )


def test_hiding_counterexamples_exact(acceptance):
    # a mechanism can be conditionally private for one population yet leak
    # everything causally, and the other way around
    hv = c.hidden_value_kernel()
    hv_pop = Dist.uniform(("R_1",), [(0,), (1,)])
    assoc = c.check_associative(
        DId.STRONG_ADVERSARY_ONE_DIST, c.CanonicalModel(hv, (), hv_pop), F(1)
    )
    hv_classic = c.classic_epsilon(hv)

    hp = c.hidden_pair_kernel()
    hp_pop = Dist.uniform(("R_1", "R_2"), list(product((0, 1), repeat=2)))
    causal = c.check_causal(
        DId.SINGLE_POINT_INTERVENTION, c.CanonicalModel(hp, (), hp_pop), F(1)
    )
    hp_classic = c.classic_epsilon(hp)

    # under the hiding population every forced value gives the same fair coin
    engine = c.CanonicalEngine(
        c.CanonicalModel(hp, (), Dist.from_weights(("R_1", "R_2"), dict(hp_pop.weights)))
    )
    coin = {0: F(1, 2), 1: F(1, 2)}
    do_dists_are_coins = all(
        engine.output_given_point(i, v) == coin
        for i in (1, 2)
        for v in hp.data_domain
    )

    ok = (
        assoc.passed and assoc.achieved == F(1)
        and c.is_infinite(hv_classic.value)
        and causal.passed and causal.achieved == F(1)
        and do_dists_are_coins
        and c.is_infinite(hp_classic.value)
    )
    acceptance(
        "hiding counterexamples: conditional perfect vs classic infinite, both ways",
        ok,
        f"hidden_value assoc={c.format_ratio(assoc.achieved)} "
        f"classic={c.format_ratio(hv_classic.value)}; hidden_pair "
        f"single_point={c.format_ratio(causal.achieved)} "
        f"classic={c.format_ratio(hp_classic.value)}",
    )


def test_population_free_equivalences_exact(acceptance):
    # the four population-free definitions and the population-robust causal
    # form all land on the same exact ratio, kernel by kernel
    checked = 0
    mismatches = []
    for rng, k in kernel_corpus(100, seed=20260819):
        classic = c.classic_epsilon(k).value
        target = F(10 ** 9)
        values = {
            "classic": c.run_check(DId.CLASSIC, k, target_ratio=target).achieved,
            "sau": c.run_check(
                DId.STRONG_ADVERSARY_UNIVERSAL, k, target_ratio=target
            ).achieved,
            "wdu": c.run_check(
                DId.WHOLE_DB_UNIVERSAL, k, target_ratio=target
            ).achieved,
            "spu": c.run_check(
                DId.SINGLE_POINT_UNIVERSAL, k, target_ratio=target
            ).achieved,
        }
        for trial in range(3):
            pop = random_population(rng, k, full_support=True)
            rep = c.run_check(
                DId.WHOLE_DB_INTERVENTION, k, population=pop, target_ratio=target
            )
            values[f"wd[{trial}]"] = rep.achieved
        if len({str(v) for v in values.values()}) != 1:
            mismatches.append((k, values))
        elif values["classic"] != classic:
            mismatches.append((k, values))
        checked += 1
    acceptance(
        "population-free equivalences hold exactly on 100 random kernels",
        checked == 100 and not mismatches,
        f"{checked} kernels, {len(mismatches)} mismatches "
        "(classic = universal adversary = whole-db for 3 populations each = "
        "whole-db universal = single-point universal)",
    )


def test_classic_pass_implies_single_point_pass(acceptance):
    # the single-point interventional ratio never exceeds the classic one,
    # and is strictly smaller for the hiding pair
    violations = 0
    checked = 0
    for rng, k in kernel_corpus(100, seed=77):
        classic = c.classic_epsilon(k).value
        for _ in range(3):
            pop = random_population(rng, k, full_support=rng.random() < 0.7)
            rep = c.run_check(
                DId.SINGLE_POINT_INTERVENTION, k, population=pop,
                target_ratio=F(10 ** 9),
            )
            if not c.ratio_le(rep.achieved, classic):
                violations += 1
            checked += 1
    hp = c.hidden_pair_kernel()
    hp_pop = Dist.uniform(("R_1", "R_2"), list(product((0, 1), repeat=2)))
    strict = c.check_causal(
        DId.SINGLE_POINT_INTERVENTION, c.CanonicalModel(hp, (), hp_pop), F(1)
    )
    strictly_smaller = strict.achieved == F(1) and c.is_infinite(
        c.classic_epsilon(hp).value
    )
    acceptance(
        "single-point interventional ratio is bounded by the classic ratio",
        checked == 300 and violations == 0 and strictly_smaller,
        f"100 kernels x 3 populations, {violations} violations; "
        "hidden_pair strictly smaller (1 vs inf)",
    )


def test_closed_forms_match_enumeration(acceptance):
    # every interventional check above runs with the engine cross-check on;
    # here the count is pinned so silent skips cannot pass
    rng = random.Random(5)
    recounted = 0
    for _ in range(10):
        n, dom = rng.choice(((1, 2), (2, 2), (2, 3)))
        k = random_kernel(rng, n, dom, 2, full_support=rng.random() < 0.5)
        pop = random_population(rng, k, full_support=True)
        pop_r = Dist.from_weights(c.input_names(k), dict(pop.weights))
        engine = c.CanonicalEngine(c.CanonicalModel(k, (), pop_r), cross_check=True)
        for db in k.databases():
            engine.output_given_db(db)
        for i in range(1, n + 1):
            for v in k.data_domain:
                engine.output_given_point(i, v)
        expected = len(list(k.databases())) + n * len(k.data_domain)
        assert engine.cross_checks_done == expected > 0
        recounted += 1
    acceptance(
        "closed-form kernel queries equal full model enumeration",
        recounted == 10,
        f"{recounted} engines recounted; every mismatch would raise, none did",
    )


def test_composition_bound_honored(acceptance):
    # sequential composition: the released pair never costs more than the
    # product of the stage bounds; postprocessing is free
    rng = random.Random(20260819)
    composed = 0
    finite = 0
    failures = 0
    for _ in range(100):
        # mostly full-support stages so most bounds are finite; the sparse
        # draws check that the inequality also holds at infinity
        first, second = random_two_stage(rng, full_support=rng.random() < 0.8)
        comp = c.compose_sequential(first, second, "X", "Y1", "Y2")
        r1 = c.brp_bound(first, "Y1", "X").value
        r2 = c.brp_bound(second, "Y2", "X").value
        rep = c.check_composition(comp, r1, r2)
        if not (rep.passed and c.ratio_le(rep.achieved, c.ratio_mul(r1, r2))):
            failures += 1
        composed += 1
        if not (c.is_infinite(r1) or c.is_infinite(r2)):
            finite += 1
    post_equal = 0
    post_total = 0
    while post_total < 20:
        first, second = random_two_stage(rng, postprocessing=True,
                                         full_support=True)
        comp = c.compose_sequential(first, second, "X", "Y1", "Y2")
        r1 = c.brp_bound(first, "Y1", "X").value
        if c.is_infinite(r1):
            continue
        rep = c.check_composition(comp, r1, F(1))
        post_total += 1
        if rep.achieved == r1:
            post_equal += 1
    acceptance(
        "composition: pair release bounded by the product of stage bounds",
        composed == 100 and finite >= 70 and failures == 0
        and post_equal == post_total == 20,
        f"{composed} compositions ({finite} with finite stage bounds), "
        f"{failures} over budget; "
        f"{post_equal}/{post_total} postprocessing stages exactly free",
    )


def test_correlated_attribute_doubles_conditional_only(acceptance):
    # two perfectly correlated copies of one attribute: conditioning pays the
    # squared price, intervening still pays the single-point price
    k = c.geometric_count_kernel(2, F(1, 2))
    attr = (c.copy_equation("R_2", "R_1", k.data_domain),)
    pop = Dist.from_weights(("R_1",), {(c.POS,): F(1, 2), (c.NEG,): F(1, 2)})
    model = c.CanonicalModel(k, attr, pop)
    cond2 = c.check_associative(DId.BAYESIAN0, model, F(2))
    cond4 = c.check_associative(DId.BAYESIAN0, model, F(4))
    point = c.check_causal(DId.SINGLE_POINT_INTERVENTION, model, F(2))
    ok = (
        not cond2.passed and cond2.achieved == F(4)
        and cond4.passed
        and point.passed and point.achieved == F(2)
    )
    acceptance(
        "correlated-copy model: conditional ratio exactly 4, interventional exactly 2",
        ok,
        f"bayesian0 achieved {c.format_ratio(cond2.achieved)} "
        f"(fails at 2, passes at 4); single-point achieved "
        f"{c.format_ratio(point.achieved)}",
    )


def test_effect_bound_recovers_classic(acceptance):
    # the population-robust effect bound on the release, taken per input
    # point, reproduces the classic ratio on every bundled kernel
    cases = {
        "randomized_response": c.randomized_response_kernel(2, F(2, 3)),
        "geometric_count": c.geometric_count_kernel(2, F(1, 2)),
        "geometric_count_n3": c.geometric_count_kernel(3, F(1, 2)),
        "hidden_pair": c.hidden_pair_kernel(),
        "hidden_value": c.hidden_value_kernel(),
        "constant": c.constant_kernel(2, (0, 1), 0, ("x", "y"),
                                      {"x": F(1, 3), "y": F(2, 3)}),
    }
    agreed = []
    for name, k in cases.items():
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
        agreed.append(got == classic)
    acceptance(
        "worst-case effect bound equals the classic ratio on bundled kernels",
        all(agreed),
        f"{len(agreed)} kernels including both infinite ones",
    )


def test_outputs_deterministic_and_round_trip(acceptance):
    # byte-identical reruns, and parse/serialize is the identity on every
    # bundled scenario input
    first = {
        name: canonical_json(report) for name, report in c.run_all().items()
    }
    second = {
        name: canonical_json(report) for name, report in c.run_all().items()
    }
    identical = first == second
    round_trips = True
    for name, scenario in c.SCENARIOS.items():
        built = scenario.build()
        blob = canonical_json(serialize_input(built))
        if parse_text(blob) != built or canonical_json(
            serialize_input(parse_text(blob))
        ) != blob:
            round_trips = False
    acceptance(
        "reports byte-stable across runs; inputs round-trip through the dialect",
        identical and round_trips,
        f"{len(first)} scenarios run twice, {len(c.SCENARIOS)} inputs round-tripped",
    )
