"""Generated-input properties of the enumeration oracle, the engine, the
comparison fold and the definitions built on them.

The seeded loops elsewhere stay; these add shrinking counterexamples on
small random models.  The hypothesis profile is set in conftest.py.
"""

import json
import math
import random
import re
from fractions import Fraction as F
from itertools import product
from typing import Iterator

import pytest
from hypothesis import given
from hypothesis import strategies as st

import causaldp as c
from causaldp import (
    CanonicalEngine,
    DefinitionId,
    Dist,
    NotAProductDistribution,
    ProbabilisticSem,
    Sem,
    StochasticEquation,
    ZeroProbabilityEvent,
    constant_equation,
    modelfile,
)
from causaldp.checkers import ASSOCIATIVE_GIVEN_P, _grid_marginals
from causaldp.dist import exact_row
from causaldp.errors import preview
from causaldp.exact import format_rational, ratio_divide, value_sort_key
from causaldp.mechanisms import neighbour_sweep, value_sweep
from causaldp.modelfile import (
    canonical_json,
    digest_of_text,
    falsification_to_json,
    input_digest,
    parse_text,
    serialize_input,
    serialize_kernel,
    value_to_json,
)
from causaldp.reports import SupTracker, group_sweep
from conftest import _population, _weights, kernel_table, random_kernel


def _mixed_weights(draw, size: int) -> list[F]:
    """A point mass, or weights with zero entries and unlike denominators."""
    if draw(st.booleans()):
        hot = draw(st.integers(0, size - 1))
        return [F(int(j == hot)) for j in range(size)]
    raw = [F(draw(st.integers(0, 3)), draw(st.integers(1, 5))) for _ in range(size)]
    if sum(raw) == 0:
        raw[draw(st.integers(0, size - 1))] = F(1)
    return [w / sum(raw) for w in raw]


@st.composite
def small_psems(draw, weights=_weights) -> ProbabilisticSem:
    """2-5 variables on a random DAG, declared in a random order, with
    random rational rows and a random (possibly correlated) input joint,
    both drawn by `weights`."""
    k = draw(st.integers(2, 5))
    topo = [f"V{j}" for j in range(k)]
    domains = {v: tuple(range(draw(st.integers(1, 3)))) for v in topo}
    equations = {}
    for j, v in enumerate(topo):
        if draw(st.booleans()):
            continue  # exogenous
        parents = tuple(draw(st.lists(st.sampled_from(topo[:j]), unique=True,
                                      max_size=2))) if j else ()
        rows = {}
        for key in product(*(domains[p] for p in parents)):
            rows[key] = dict(zip(domains[v], weights(draw, len(domains[v]))))
        equations[v] = StochasticEquation.from_rows(v, parents, rows)
    names = tuple(draw(st.permutations(topo)))
    sem = Sem(names, domains, equations)
    exo = sem.exogenous
    points = list(product(*(domains[n] for n in exo)))
    inputs = Dist.from_weights(exo, dict(zip(points, weights(draw, len(points)))))
    return ProbabilisticSem(sem, inputs)


def _reference_lift(psem: ProbabilisticSem, variables=None) -> Dist:
    """The enumeration oracle as first written, in `Fraction`s: the input
    distribution's marginal on the needed exogenous variables, extended by
    one `Fraction` product per cell and summed with `Fraction` additions."""
    order = psem.validate()
    sem = psem.sem
    variables = sem.names if variables is None else tuple(variables)
    needed = set(variables).union(*map(sem.ancestors_of, variables))
    exo = tuple(n for n in sem.exogenous if n in needed)
    inputs = psem.exogenous_dist.marginal(exo).weights if exo else {(): F(1)}
    steps = [n for n in order[len(sem.exogenous):] if n in needed]

    positions = {name: i for i, name in enumerate(exo)}
    support = inputs
    for name in steps:
        eq = sem.equations[name]
        parent_idx = [positions[p] for p in eq.parents]
        positions[name] = len(positions)
        grown: dict[tuple, F] = {}
        for point, w in support.items():
            row = eq.rows[tuple(point[i] for i in parent_idx)]
            for value, pw in row.items():
                grown[point + (value,)] = w * pw
        support = grown

    idx = [positions[n] for n in variables]
    out: dict[tuple, F] = {}
    for point, w in support.items():
        key = tuple(point[i] for i in idx)
        out[key] = out.get(key, F(0)) + w
    return Dist.from_weights(variables, out)


def _forced(psem: ProbabilisticSem, data) -> ProbabilisticSem:
    """`psem` after up to two random interventions and exogenous pins."""
    for _ in range(data.draw(st.integers(0, 2))):
        name = data.draw(st.sampled_from(psem.sem.names))
        value = data.draw(st.sampled_from(psem.sem.domains[name]))
        if name in psem.sem.equations:
            psem = psem.intervene(name, value)
        else:
            psem = psem.pin_exogenous(name, value)
    return psem


@given(small_psems(_mixed_weights), st.data())
def test_integer_oracle_equals_the_fraction_oracle(psem, data):
    """Same cells in the same order.  Queries over exogenous variables only,
    over variables with no exogenous ancestor (possibly none), over a random
    subset and over the full joint."""
    psem = _forced(psem, data)
    sem = psem.sem
    exo = sem.exogenous
    unrooted = tuple(n for n in sem.endogenous if not sem.ancestors_of(n) & set(exo))
    picked = tuple(data.draw(st.lists(st.sampled_from(sem.names), unique=True)))
    full = psem.lift()
    for query in (data.draw(st.permutations(exo)), unrooted, picked, sem.names, None):
        got = psem.lift(query)
        want = _reference_lift(psem, query)
        assert got == want
        assert list(got.weights) == list(want.weights)
        assert got == full.marginal(got.variables)


# --- the integer distribution, against its `Fraction` reference -----------------


def _reference_dist(variables: tuple, weights: dict) -> dict:
    """The distribution constructor as it was when `Dist` stored `Fraction`
    weights: every assignment checked against `variables`, then the weights
    by `exact_row`; the positive weights, in order."""
    width = len(variables)
    for point in weights:
        if not isinstance(point, tuple) or len(point) != width:
            raise c.InvalidDistribution(
                f"assignment {preview(point)} does not match variables "
                f"{preview(variables)}")
    exact_row(weights, c.InvalidDistribution, "distribution")
    return {point: w for point, w in weights.items() if w}


def _reference_marginal(variables: tuple, weights: dict, names: tuple) -> dict:
    idx = [variables.index(n) for n in names]
    out: dict[tuple, F] = {}
    for point, w in weights.items():
        key = tuple(point[i] for i in idx)
        out[key] = out.get(key, F(0)) + w
    return out


def _reference_condition(variables: tuple, weights: dict, matches) -> dict:
    kept = {p: w for p, w in weights.items() if matches(dict(zip(variables, p)))}
    total = sum(kept.values(), F(0))
    if total == 0:
        raise ZeroProbabilityEvent("reference")
    return {p: w / total for p, w in kept.items()}


def _reference_product(*parts: dict) -> dict:
    weights = {(): F(1)}
    for part in parts:
        weights = {left + right: wl * wr for left, wl in weights.items()
                   for right, wr in part.items()}
    return weights


def _reference_factors(variables: tuple, weights: dict) -> bool:
    singles = (_reference_marginal(variables, weights, (n,)) for n in variables)
    return _reference_product(*singles) == weights


def _assert_least(dist: Dist) -> None:
    """The stored form: positive int numerators summing to L, L least."""
    common, table = dist.integer_table
    assert type(common) is int and all(type(p) is int and p > 0 for p in table.values())
    assert sum(table.values()) == common and math.gcd(common, *table.values()) == 1


def _same_cells(dist: Dist, weights: dict) -> None:
    """`dist` is `weights`: the same cells in the same order, stored least."""
    assert list(dist.weights.items()) == list(weights.items())
    _assert_least(dist)


@st.composite
def fraction_dists(draw, names: tuple) -> tuple[Dist, dict]:
    """A distribution over `names` (domains of 1-3 values) as a `Dist`,
    built one of two ways, and its `Fraction` reference: from `Fraction`
    weights with zero entries, in a random point order, or from integers
    over a multiple of their least denominator."""
    points = draw(st.permutations(list(product(*(range(draw(st.integers(1, 3)))
                                                 for _ in names)))))
    raw = draw(st.lists(st.integers(0, 3), min_size=len(points), max_size=len(points)))
    if sum(raw) == 0:
        raw[draw(st.integers(0, len(points) - 1))] = 1
    weights = {p: F(r, sum(raw)) for p, r in zip(points, raw)}
    reference = {p: w for p, w in weights.items() if w}
    if draw(st.booleans()):
        return Dist.from_weights(names, weights), reference
    scale = draw(st.integers(1, 4))
    table = {p: r * scale for p, r in zip(points, raw) if r}
    return Dist(names, (sum(raw) * scale, table)), reference


@given(fraction_dists(("A", "B")), fraction_dists(("C",)), st.data())
def test_dist_operations_equal_the_fraction_reference(left, right, data):
    """Every operation of the integer `Dist` equals its `Fraction`
    reference: the same cells in the same order, stored over the least L.
    `from_weights` drops zero entries; a table over a multiple of L is the
    same distribution; marginals (any order of any subset), conditionals on
    a mapping and on a predicate (or the same refusal), `prob`, `product`
    and `factors_as_product`, whose answer is also drawn true."""
    (dist, weights), (other, other_weights) = left, right
    variables = dist.variables
    _same_cells(dist, weights)
    _same_cells(other, other_weights)
    assert dist == Dist.from_weights(variables, weights)

    names = tuple(data.draw(st.permutations(variables))[:data.draw(st.integers(0, 2))])
    _same_cells(dist.marginal(names), _reference_marginal(variables, weights, names))
    value = data.draw(st.integers(0, 2))
    events = [({"B": value}, lambda a: a["B"] == value),
              (lambda a: a["A"] != a["B"], lambda a: a["A"] != a["B"])]
    for event, matches in events:
        try:
            want = _reference_condition(variables, weights, matches)
        except ZeroProbabilityEvent:
            with pytest.raises(ZeroProbabilityEvent):
                dist.condition(event)
        else:
            _same_cells(dist.condition(event), want)
        assert dist.prob(event) == sum(
            (w for p, w in weights.items() if matches(dict(zip(variables, p)))), F(0))

    joint = Dist.product(dist, other)
    _same_cells(joint, _reference_product(weights, other_weights))
    for d, w in ((dist, weights), (joint, joint.weights)):
        assert d.factors_as_product() == _reference_factors(d.variables, w)
    singles = Dist.product(dist.marginal(("A",)), other, dist.marginal(("B",)))
    assert singles.factors_as_product()


_FAULTS = ("float", "int", "none", "bool", "str", "negative", "sum", "excess",
           "short point", "wide point", "non-tuple point")


def _faulty_table(rng) -> tuple[tuple, dict]:
    """Variables and `Fraction` weights (some zero) summing to 1, then one
    to three faults from `_FAULTS` at random cells."""
    variables = tuple(f"V{j}" for j in range(rng.randint(0, 3)))
    points = list(product(range(3), repeat=len(variables)))
    points = rng.sample(points, rng.randint(1, min(5, len(points))))
    raw = [rng.randint(0, 3) for _ in points]
    raw[rng.randrange(len(raw))] += 1
    weights = {p: F(r, sum(raw)) for p, r in zip(points, raw)}
    for fault in rng.choices(_FAULTS, k=rng.randint(1, 3)):
        point = rng.choice(list(weights))
        w = weights[point] if isinstance(weights[point], F) else F(1, 2)
        if fault.endswith("point"):
            key = point if isinstance(point, tuple) else ()
            bad = {"short point": key[:-1] + ("x",) * (not key),
                   "wide point": key + (0,), "non-tuple point": rng.choice([7, "p"])}[fault]
            weights = {bad if p == point else p: v for p, v in weights.items()}
        elif fault == "negative":  # still sums to 1
            weights[point] = w - 2
            other = rng.choice(list(weights))
            weights[other] = weights[other] + 2 if isinstance(weights[other], F) else 2
        elif fault in ("sum", "excess"):
            weights[point] = w + (F(1, 7) if fault == "sum" else F(1, 2**61 - 1))
        else:
            weights[point] = {"float": float(w), "int": int(w), "none": None,
                              "bool": True, "str": "1/2"}[fault]
    return variables, weights


def _dist_outcome(build):
    try:
        return list(build().items())
    except Exception as e:  # the class and text are the outcome
        return type(e), str(e)


def test_from_weights_raises_what_the_fraction_constructor_raised():
    """On 12,000 seeded faulty tables (assignments of the wrong width or
    type, weights of another type or sign, wrong sums, several at once),
    `from_weights` raises the error class and message the `Fraction`
    constructor raised, an assignment before a weight; a table whose faults
    cancel gives the same weights."""
    rng = random.Random(28)
    refused = 0
    for _ in range(12_000):
        variables, weights = _faulty_table(rng)
        want = _dist_outcome(lambda: _reference_dist(variables, weights))
        assert _dist_outcome(lambda: Dist.from_weights(variables, weights).weights) == want
        refused += isinstance(want, tuple)
    assert refused >= 10_000


@given(small_psems(_mixed_weights), st.data())
def test_memoized_oracle_equals_a_fresh_model(psem, data):
    """One shared model answers an interleaved sequence of interventions and
    queries (repeated, re-ordered, over different exogenous sets) exactly as
    the reference oracle does on a freshly built, un-memoized copy."""
    sem, inputs = psem.sem, psem.exogenous_dist
    before = dict(sem.equations)
    endogenous = sem.endogenous
    for _ in range(data.draw(st.integers(1, 6))):
        model, equations = psem, dict(before)
        for name in data.draw(st.lists(st.sampled_from(endogenous), max_size=3)
                              if endogenous else st.just([])):
            value = data.draw(st.sampled_from(sem.domains[name]))
            child = model.intervene(name, value)
            assert model.sem.intervene(name, value) is child.sem
            model, equations[name] = child, constant_equation(name, value)
        query = data.draw(st.none() | st.lists(st.sampled_from(sem.names), unique=True))
        fresh = ProbabilisticSem(
            Sem(sem.names, dict(sem.domains), equations),
            Dist.from_weights(inputs.variables, dict(inputs.weights)),
        )
        got = model.lift(query)
        want = _reference_lift(fresh, query)
        assert got == want
        assert list(got.weights) == list(want.weights)
    assert sem.equations == before
    assert all(sem.equations[name] is eq for name, eq in before.items())


@given(small_psems(), st.data())
def test_pruned_lift_equals_marginal_of_full_lift(psem, data):
    names = psem.sem.names
    for _ in range(data.draw(st.integers(0, 3))):
        name = data.draw(st.sampled_from(names))
        value = data.draw(st.sampled_from(psem.sem.domains[name]))
        if name in psem.sem.equations:
            psem = psem.intervene(name, value)
        else:
            psem = psem.pin_exogenous(name, value)
    full = psem.lift()
    wanted = tuple(data.draw(st.lists(st.sampled_from(names), unique=True)))
    assert psem.lift(wanted) == full.marginal(wanted)
    assert psem.lift(names) == full


@given(small_psems(), st.data())
def test_query_with_mapping_events_matches_full_joint(psem, data):
    names = psem.sem.names
    target = data.draw(st.sampled_from(names))
    value = data.draw(st.sampled_from(psem.sem.domains[target]))
    full = psem.lift()
    assert psem.query({target: value}) == full.prob({target: value})
    assert psem.query(lambda a: a[target] == value) == full.prob({target: value})


@st.composite
def attribute_equations(draw, kernel: c.MechanismKernel) -> tuple:
    """Equations among the true inputs: R_j may read R_1..R_{j-1}."""
    inputs = c.input_names(kernel)
    dom = kernel.data_domain
    out = []
    for j, target in enumerate(inputs):
        if not draw(st.booleans()):
            continue
        parents = tuple(draw(st.lists(st.sampled_from(inputs[:j]), unique=True,
                                      max_size=2))) if j else ()
        rows = {
            key: dict(zip(dom, _weights(draw, len(dom))))
            for key in product(dom, repeat=len(parents))
        }
        out.append(StochasticEquation.from_rows(target, parents, rows))
    return tuple(out)


@given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(2, 3),
       st.integers(1, 3), st.data())
def test_cross_checked_engine_agrees_everywhere(rng, n, dom_size, out_size, data):
    kernel = random_kernel(rng, n, dom_size, out_size)
    attr = data.draw(attribute_equations(kernel))
    bound = {eq.target for eq in attr}
    exo = tuple(r for r in c.input_names(kernel) if r not in bound)
    points = list(product(kernel.data_domain, repeat=len(exo)))
    pop = Dist.from_weights(exo, dict(zip(points, _weights(data.draw, len(points)))))
    engine = CanonicalEngine(c.CanonicalModel(kernel, attr, pop), cross_check=True)
    for db in kernel.databases():
        engine.output_given_db(db)  # raises CrossCheckMismatch on any mismatch
    for i in range(1, n + 1):
        for v in kernel.data_domain:
            engine.output_given_point(i, v)
    dbs = len(kernel.data_domain) ** n
    assert engine.cross_checks_done == dbs + n * len(kernel.data_domain)


def _oracle_conditional(joint: Dist, event: dict) -> dict | None:
    try:
        out = joint.condition(event).marginal((c.OUTPUT_VAR,))
    except ZeroProbabilityEvent:
        return None
    return {point[0]: w for point, w in out.weights.items()}


@given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(2, 3),
       st.integers(1, 3), st.data())
def test_conditional_closed_forms_equal_the_oracle(rng, n, dom_size, out_size, data):
    """Conditioning on D or on one D_i mixes kernel rows by the data joint
    given the event: exactly the wide joint conditioned and marginalized,
    and None exactly where that conditioning has probability zero.  With
    attribute equations, the model itself and the population it induces
    on the data points give the same conditionals."""
    kernel = random_kernel(rng, n, dom_size, out_size)
    attr = data.draw(attribute_equations(kernel))
    bound = {eq.target for eq in attr}
    exo = tuple(r for r in c.input_names(kernel) if r not in bound)
    pop = _population(data.draw, exo, kernel)
    engine = CanonicalEngine(c.CanonicalModel(kernel, attr, pop))
    induced = engine.base_joint()
    oracles = (
        engine.model.psem.lift(),
        c.as_sem(kernel, (), Dist.from_weights(c.input_names(kernel), induced.weights)).lift(),
    )
    for joint in oracles:
        for db in kernel.databases():
            want = _oracle_conditional(joint, {c.DB_VAR: db})
            assert engine.output_conditioned_on_db(db) == want
        for i in range(1, n + 1):
            for v in kernel.data_domain:
                want = _oracle_conditional(joint, {c.d_name(i): v})
                assert engine.output_conditioned_on_point(i, v) == want


@given(st.randoms(use_true_random=False), st.integers(1, 2), st.integers(2, 3),
       st.integers(1, 3), st.booleans(), st.data())
def test_every_witness_replays_to_the_achieved_ratio(rng, n, dom_size, out_size,
                                                     correlated, data):
    """Every witness replays to `achieved`, with or without attribute
    equations (the population then covers the remaining inputs), and the
    conditional checks see the model only through its induced data joint."""
    kernel = random_kernel(rng, n, dom_size, out_size)
    attr = data.draw(attribute_equations(kernel))
    bound = {eq.target for eq in attr}
    names = (
        tuple(r for r in c.input_names(kernel) if r not in bound)
        if attr else c.data_point_names(kernel)
    )
    pop = _population(data.draw, names, kernel)
    product_pop = Dist.product(*(pop.marginal((name,)) for name in pop.variables))
    for definition in DefinitionId:
        given_pop = None
        if definition in c.NEEDS_POPULATION:
            independent = definition is DefinitionId.INDEPENDENT_BAYESIAN0
            given_pop = product_pop if independent or not correlated else pop
        try:
            report = c.run_check(definition, c.CanonicalModel(kernel, attr), F(1),
                                 given_pop)
        except NotAProductDistribution:
            # a product over the inputs can induce a correlated data joint
            assert definition is DefinitionId.INDEPENDENT_BAYESIAN0 and attr
            continue
        if definition in ASSOCIATIVE_GIVEN_P:
            model = c.CanonicalModel(kernel, attr, given_pop)
            induced = c.CanonicalModel(kernel, (), model.data_joint)
            assert c.check_associative(definition, model, F(1)) \
                == c.check_associative(definition, induced, F(1))
        if report.witness is None:
            assert report.achieved == 1
            continue
        replayed = c.replay_witness(definition, kernel, report.witness, given_pop, attr)
        assert replayed == report.achieved, (definition, report.witness)


def test_one_dist_witness_follows_the_neighbours_order():
    # a database-first sweep would report d = (0, 0) -> (0, 1) for the same ratio
    rows = {
        (0, 0): (F(1, 3), F(2, 3)),
        (0, 1): (F(3, 4), F(1, 4)),
        (1, 0): (F(4, 9), F(5, 9)),
        (1, 1): (F(1, 3), F(2, 3)),
    }
    kernel = c.MechanismKernel.from_table(
        2, (0, 1), 0, ("o0", "o1"),
        {db: dict(zip(("o0", "o1"), row)) for db, row in rows.items()},
    )
    pop = Dist.uniform(c.data_point_names(kernel), kernel.databases())
    report = c.run_check(DefinitionId.STRONG_ADVERSARY_ONE_DIST, kernel, F(1), pop)
    assert report.achieved == F(8, 3)
    assert report.witness == {"i": 1, "d": (1, 1), "d_prime_i": 0, "o": "o1"}
    assert list(report.witness) == ["i", "d", "d_prime_i", "o"]
    assert c.replay_witness(DefinitionId.STRONG_ADVERSARY_ONE_DIST, kernel,
                            report.witness, pop) == F(8, 3)


@given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(2, 3),
       st.integers(1, 3), st.data())
def test_one_dist_under_full_support_equals_classic(rng, n, dom_size, out_size, data):
    """Under a full-support population each database's conditional is its
    kernel row, so strong_adversary_one_dist sweeps classic's own family:
    the same value, the same witness in the same key order, nothing skipped.
    Kernels keep zero entries, so some ratios are infinite."""
    kernel = random_kernel(rng, n, dom_size, out_size)
    dbs = list(kernel.databases())
    raw = data.draw(st.lists(st.integers(1, 3), min_size=len(dbs), max_size=len(dbs)))
    pop = Dist.from_weights(c.data_point_names(kernel),
               {db: F(w, sum(raw)) for db, w in zip(dbs, raw)})
    classic = c.classic_epsilon(kernel)
    report = c.run_check(DefinitionId.STRONG_ADVERSARY_ONE_DIST, kernel, F(1), pop)
    assert (report.achieved, report.witness, report.skipped_comparisons) \
        == (classic.value, classic.witness, 0)
    assert type(report.achieved) is type(classic.value)
    if classic.witness is not None:
        assert list(report.witness) == list(classic.witness)


# --- the comparison fold -------------------------------------------------------


def _reference_sweep(outputs, pairs, axis="o"):
    """The comparison loop as first written: one `SupTracker.offer` of a
    `ratio_divide` per output, with a fresh witness dict every time; `axis`
    names the outputs in the witness."""
    tracker = SupTracker()
    skipped = 0
    for left, right, where in pairs:
        if left is None or right is None:
            skipped += len(outputs)
            continue
        for o in outputs:
            tracker.offer(
                ratio_divide(left.get(o, F(0)), right.get(o, F(0))), {**where, axis: o}
            )
    return tracker.bound(), skipped


def neighbours(kernel: c.MechanismKernel, output_of) -> Iterator[tuple]:
    """Comparisons of databases d, d' differing at most at one point, for
    `_reference_sweep`: coordinate i ascending, database d lexicographic,
    replacement value in domain order.  Both orders of every pair are
    enumerated."""
    for i in range(kernel.n):
        for d in kernel.databases():
            left = output_of(d)
            for v_prime in kernel.data_domain:
                d_prime = d[:i] + (v_prime,) + d[i + 1 :]
                yield left, output_of(d_prime), {"i": i + 1, "d": d, "d_prime_i": v_prime}


def value_pairs(kernel: c.MechanismKernel, output_of) -> Iterator[tuple]:
    """Comparisons of two values v, v' of one data point i (1-based), for
    `_reference_sweep`: i ascending, then v and v' in domain order."""
    for i in range(1, kernel.n + 1):
        dists = {v: output_of(i, v) for v in kernel.data_domain}
        for v in kernel.data_domain:
            for v_prime in kernel.data_domain:
                yield dists[v], dists[v_prime], {"i": i, "v": v, "v_prime": v_prime}


def _reading(log: list, output_of):
    """`output_of`, recording each call's arguments in `log`."""
    return lambda *args: log.append(args) or output_of(*args)


def _same_fold(got: tuple, want: tuple) -> bool:
    """Same value and type, witness in the same key order, skipped count."""
    (bound, skipped), (reference, reference_skipped) = got, want
    return (bound.value, bound.witness, skipped) \
        == (reference.value, reference.witness, reference_skipped) \
        and type(bound.value) is type(reference.value) \
        and list(bound.witness or ()) == list(reference.witness or ())


@pytest.mark.parametrize("source", ["kernel", "intervened", "conditioned"])
@given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 3), st.data())
def test_neighbour_sweep_equals_the_reference_family(source, rng, n, dom_size,
                                                     out_size, data):
    """`neighbour_sweep` folds groups of |D| rows over the integer table;
    `_reference_sweep` over `neighbours` compares them pair by pair.  Same value,
    witness (in the same key order) and skipped count, and the same
    databases read in the order the pairs first read them, for kernel rows,
    cross-checked whole-database interventions and conditionals on the
    database under populations with zero weights or a point mass.  Kernels
    keep zero entries, so some ratios are infinite and some vacuous, and
    some move the first output's weight onto the second, so every group
    has a vacuous column ahead of its finite ratios."""
    kernel = random_kernel(rng, n, dom_size, out_size)
    if out_size > 1 and data.draw(st.booleans()):
        first, second = kernel.output_domain[:2]
        table = {db: {**row, first: F(0),
                      second: row.get(first, F(0)) + row.get(second, F(0))}
                 for db, row in kernel_table(kernel).items()}
        kernel = c.MechanismKernel.from_table(n, kernel.data_domain, kernel.null_value,
                                              kernel.output_domain, table)
    dbs = list(kernel.databases())
    pop = Dist.from_weights(c.data_point_names(kernel),
               dict(zip(dbs, _mixed_weights(data.draw, len(dbs)))))
    engine = CanonicalEngine(c.CanonicalModel(kernel, (), pop),
                             cross_check=source == "intervened")
    output_of = {"kernel": kernel_table(kernel).__getitem__,
                 "intervened": engine.output_given_db,
                 "conditioned": engine.output_conditioned_on_db}[source]
    read, first_read = [], []
    got = neighbour_sweep(kernel, _reading(read, output_of))
    want = _reference_sweep(kernel.output_domain,
                            neighbours(kernel, _reading(first_read, output_of)))
    assert _same_fold(got, want)
    assert read == list(dict.fromkeys(first_read))
    if source == "intervened":
        assert engine.cross_checks_done == len(dbs)


@pytest.mark.parametrize("source", ["conditioned", "intervened"])
@given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 3), st.data())
def test_value_sweep_equals_the_reference_family(source, rng, n, dom_size,
                                                 out_size, data):
    """`value_sweep` folds one group of |D| mixes per data point;
    `_reference_sweep` over `value_pairs` compares them pair by pair.  Same
    value, witness (in the same key order) and skipped count, and the same
    `output_of` calls in the same order (the order decides which
    cross-check mismatch is raised first), for conditionals on one point
    and cross-checked single-point interventions.  Kernels keep zero
    entries; populations have zero weights or are point masses, so some
    conditionals are None and mixes have unlike denominators."""
    kernel = random_kernel(rng, n, dom_size, out_size)
    dbs = list(kernel.databases())
    pop = Dist.from_weights(c.data_point_names(kernel),
               dict(zip(dbs, _mixed_weights(data.draw, len(dbs)))))
    engine = CanonicalEngine(c.CanonicalModel(kernel, (), pop),
                             cross_check=source == "intervened")
    output_of = {"intervened": engine.output_given_point,
                 "conditioned": engine.output_conditioned_on_point}[source]
    read, first_read = [], []
    got = value_sweep(kernel, _reading(read, output_of))
    want = _reference_sweep(kernel.output_domain,
                            value_pairs(kernel, _reading(first_read, output_of)))
    assert _same_fold(got, want)
    assert read == first_read == [(i, v) for i in range(1, n + 1) for v in kernel.data_domain]
    if source == "intervened":
        assert engine.cross_checks_done == n * dom_size


@st.composite
def comparison_groups(draw):
    """Outputs, groups of integer rows, a walk over every (group, left
    member) in a drawn order that interleaves the groups, and the same rows
    as `Fraction` mappings over each group's denominator.  Groups hold None
    rows, the same row object more than once, one row only; a column may be
    zero in every row of a group, or zero in some rows only (p/0)."""
    outputs = tuple(f"o{j}" for j in range(draw(st.integers(1, 4))))
    groups, mappings = [], []
    for _ in range(draw(st.integers(1, 4))):
        den = draw(st.integers(1, 6))
        zero = draw(st.sets(st.sampled_from(range(len(outputs))),  # all-zero columns
                            max_size=len(outputs) - 1))
        low = draw(st.integers(0, 1))  # 0: some rows may be zero where others are not
        rows = []
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(["row", "row", "row", "none", "again"]))
            if kind == "none":
                rows.append(None)
            elif kind == "again" and any(row is not None for row in rows):
                rows.append(draw(st.sampled_from([row for row in rows if row is not None])))
            else:
                rows.append([0 if j in zero else draw(st.integers(low, 3))
                             for j in range(len(outputs))])
        groups.append(rows)
        # explicit zero weights in some mappings, no entry in others
        spelled = draw(st.booleans())
        mappings.append([None if row is None else
                         {o: F(p, den) for o, p in zip(outputs, row) if p or spelled}
                         for row in rows])
    walk = draw(st.permutations([(g, a) for g, rows in enumerate(groups)
                                 for a in range(len(rows))]))
    return outputs, groups, walk, mappings


@given(comparison_groups())
def test_group_sweep_equals_the_reference_fold(family):
    """`group_sweep` takes each group's supremum from its columns and then
    finds the witness in the walk; `_reference_sweep` compares every
    ordered pair of members of a group in the walk's order, the right
    member in group order.  Same value, witness (key order included) and
    skipped count."""
    outputs, groups, walk, mappings = family

    def witness(g: int, a: int, b: int) -> dict:
        return {"g": g, "a": a, "b": b}

    pairs = [(mappings[g][a], right, witness(g, a, b))
             for g, a in walk for b, right in enumerate(mappings[g])]
    assert _same_fold(group_sweep(outputs, iter(groups), iter(walk), witness, "o"),
                      _reference_sweep(outputs, pairs))


# --- the effect-ratio and semantic-gap folds ---------------------------------------
#
# Each fold is compared with two `SupTracker` loops: the loop as first
# written, whose order differs, for the value, and `_reference_sweep` in the
# documented order for the first witness.  Rows and input joints drawn by
# `_mixed_weights` hold zeros and point masses, so 0/0 and p/0 both occur.


@st.composite
def effect_queries(draw) -> tuple:
    """A model, a source variable and a sink (one name, or a tuple of two)
    that leaves the source out.  A source with children is preferred, and
    then the sink starts with a child, so most effects are not all 1."""
    psem = draw(small_psems(draw(st.sampled_from((_weights, _mixed_weights)))))
    sem = psem.sem
    children = {n: [m for m, eq in sem.equations.items() if n in eq.parents]
                for n in sem.names}
    sources = [n for n in sem.names if children[n]] or list(sem.names)
    source = draw(st.sampled_from(sources))
    first = draw(st.sampled_from(children[source] or
                                 [n for n in sem.names if n != source]))
    rest = [n for n in sem.names if n not in (source, first)]
    if rest and draw(st.booleans()):
        return psem, (first, draw(st.sampled_from(rest)))[::draw(st.sampled_from((1, -1)))], source
    return psem, first, source


def _sink_values(psem, sink) -> list:
    names = (sink,) if isinstance(sink, str) else sink
    ys = list(product(*(psem.sem.domain_of(n) for n in names)))
    return [y for (y,) in ys] if isinstance(sink, str) else ys


def _effect_rows(psem, sink, source) -> dict:
    """Fr[y | do(source = x)] per x, keyed by y as the witness names it."""
    names = (sink,) if isinstance(sink, str) else sink
    rows = {}
    for x in psem.sem.domain_of(source):
        lifted = psem.do({source: x}).lift(names)
        rows[x] = {y: lifted.weight_of(y if isinstance(sink, tuple) else (y,))
                   for y in _sink_values(psem, sink)}
    return rows


def _first_written_effect_fold(psem, sink, source):
    """`max_relative_probability` as first written: y outermost."""
    rows = _effect_rows(psem, sink, source)
    tracker = SupTracker()
    for y in _sink_values(psem, sink):
        for x_num in rows:
            for x_den in rows:
                ratio = ratio_divide(rows[x_num][y], rows[x_den][y])
                if ratio is not None:
                    tracker.offer(ratio, {"y": y, "x_num": x_num, "x_den": x_den})
    return tracker.bound()


def _documented_effect_fold(psem, sink, source):
    """The documented order: pairs (x_num, x_den) in domain order, y innermost."""
    rows = _effect_rows(psem, sink, source)
    pairs = [(rows[a], rows[b], {"x_num": a, "x_den": b}) for a in rows for b in rows]
    return _reference_sweep(_sink_values(psem, sink), pairs, "y")[0]


def _replays_effect(psem, sink, source, bound) -> bool:
    if bound.witness is None:
        return bound.value == 1
    w = bound.witness
    return c.relative_probability(psem, sink, w["y"], source, w["x_num"],
                                  w["x_den"]) == (bound.value, False)


def _same(bound, want) -> bool:
    return (bound.value, bound.witness) == (want.value, want.witness) \
        and type(bound.value) is type(want.value)


@given(effect_queries())
def test_max_relative_probability_equals_the_reference_folds(query):
    psem, sink, source = query
    bound = c.max_relative_probability(psem, sink, source)
    first_written = _first_written_effect_fold(psem, sink, source)
    assert (bound.value, type(bound.value)) \
        == (first_written.value, type(first_written.value))
    assert _same(bound, _documented_effect_fold(psem, sink, source))
    assert _replays_effect(psem, sink, source, bound)


@given(effect_queries())
def test_brp_bound_equals_the_reference_folds(query):
    """Over the point-mass vertices in input-domain order, the first vertex
    whose bound is strictly greater wins."""
    psem, sink, source = query
    sem = psem.sem
    exo = sem.exogenous
    first_written, documented = SupTracker(), SupTracker()
    vertices = {}
    for assignment in product(*(sem.domains[n] for n in exo)):
        vertex = ProbabilisticSem(sem, Dist.point_mass(exo, assignment))
        vertices[assignment] = vertex
        inputs = {"inputs": dict(zip(exo, assignment))}
        for tracker, fold in ((first_written, _first_written_effect_fold),
                              (documented, _documented_effect_fold)):
            inner = fold(vertex, sink, source)
            tracker.offer(inner.value, inner.witness and {**inputs, **inner.witness})
    bound = c.brp_bound(sem, sink, source)
    assert (bound.value, type(bound.value)) \
        == (first_written.value, type(first_written.value))
    assert _same(bound, documented.bound())
    if bound.witness is None:
        assert bound.value == 1
    else:
        vertex = vertices[tuple(bound.witness["inputs"][n] for n in exo)]
        inner = {k: v for k, v in bound.witness.items() if k != "inputs"}
        assert _replays_effect(vertex, sink, source, c.RatioBound(bound.value, inner))


@st.composite
def gap_queries(draw) -> tuple:
    """A kernel with zero entries, a prior over D_1..D_n with zero weights,
    and the point and value to force."""
    n, dom_size, out_size = (draw(st.integers(1, 2)), draw(st.integers(2, 3)),
                             draw(st.integers(2, 3)))
    dom = tuple(range(dom_size))
    outs = tuple(f"o{j}" for j in range(out_size))
    kernel = c.MechanismKernel.from_table(n, dom, dom[0], outs, {
        db: dict(zip(outs, _weights(draw, out_size))) for db in product(dom, repeat=n)
    })
    prior = _population(draw, c.data_point_names(kernel), kernel)
    point = draw(st.integers(1, kernel.n))
    return kernel, prior, point, draw(st.sampled_from(kernel.data_domain))


def _gap_rows(kernel, prior, point, value) -> dict:
    """(plain, forced) posterior weights per output with nonzero evidence."""
    rows = {}
    for o in kernel.output_domain:
        try:
            plain = c.posterior(kernel, prior, o)
            forced = c.posterior_under_intervention(kernel, prior, point, value, o)
        except c.ZeroEvidence:
            continue
        rows[o] = plain.weights, forced.weights
    return rows


@given(gap_queries())
def test_semantic_gap_equals_the_reference_folds(query):
    """The loop as first written (o, then d, then direction) for the value;
    the documented order (o, then direction, then the databases in the
    prior's support) for the witness; and the witness replays through the
    two posteriors."""
    kernel, prior, point, value = query
    rows = _gap_rows(kernel, prior, point, value)
    first_written = SupTracker()
    for o, (plain, forced) in rows.items():
        for d in kernel.databases():
            if prior.weight_of(d) == 0:
                continue
            a, b = plain.get(d, F(0)), forced.get(d, F(0))
            for num, den, direction in ((b, a, "forced_over_plain"),
                                        (a, b, "plain_over_forced")):
                ratio = ratio_divide(num, den)
                if ratio is not None:
                    first_written.offer(ratio, {"o": o, "d": d, "direction": direction})
    pairs = []
    for o, (plain, forced) in rows.items():
        pairs += [(forced, plain, {"o": o, "direction": "forced_over_plain"}),
                  (plain, forced, {"o": o, "direction": "plain_over_forced"})]
    support = [d for d in kernel.databases() if prior.weight_of(d)]
    documented, _ = _reference_sweep(support, pairs, "d")
    gap = c.semantic_gap(kernel, prior, point, value)
    assert (gap.value, type(gap.value)) \
        == (first_written.value, type(first_written.value))
    assert _same(gap, documented)
    if gap.witness is None:
        assert gap.value == 1
        return
    w = gap.witness
    plain = c.posterior(kernel, prior, w["o"]).weight_of(w["d"])
    forced = c.posterior_under_intervention(kernel, prior, point, value,
                                            w["o"]).weight_of(w["d"])
    ratio = ratio_divide(*((forced, plain) if w["direction"] == "forced_over_plain"
                           else (plain, forced)))
    assert ratio == gap.value


# --- population-free definitions -------------------------------------------------


@given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(2, 3),
       st.integers(1, 3))
def test_population_free_definitions_equal_classic(rng, n, dom_size, out_size):
    """Value and witness, key order included.  Kernels with zero entries, so
    some classic ratios are infinite."""
    kernel = random_kernel(rng, n, dom_size, out_size)
    classic = c.classic_epsilon(kernel)
    for definition in c.POPULATION_FREE:
        report = c.run_check(definition, kernel, F(1))
        assert (report.achieved, report.witness) \
            == (classic.value, classic.witness), definition
        assert type(report.achieved) is type(classic.value)
        if classic.witness is not None:
            assert list(report.witness) == list(classic.witness), definition


@given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(2, 3),
       st.integers(1, 3), st.data())
def test_single_point_never_exceeds_classic(rng, n, dom_size, out_size, data):
    """Under a drawn population, zero-weight databases included, and under
    a point mass (`single_point_universal` equals classic, tested above)."""
    kernel = random_kernel(rng, n, dom_size, out_size)
    classic = c.classic_epsilon(kernel).value
    names = c.data_point_names(kernel)
    db = data.draw(st.sampled_from(list(kernel.databases())))
    for pop in (_population(data.draw, names, kernel), Dist.point_mass(names, db)):
        report = c.run_check(DefinitionId.SINGLE_POINT_INTERVENTION, kernel, F(1), pop)
        assert c.ratio_le(report.achieved, classic)


@given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(2, 3),
       st.integers(1, 3))
def test_point_masses_are_slices_of_one_uniform_lift(rng, n, dom_size, out_size):
    """`single_point_universal`'s cross-check reads every point mass off one
    lift under the uniform input (`CanonicalEngine._oracle_rows`).  For
    every i, v and assignment r of the other inputs: the helper's row at
    R_{-i} = r and the lift of (R_{-i}, O) under do(D_i = v), conditioned
    on R_{-i} = r, equal the model under the point mass on r (with any
    value at i) under the same intervention, and all are the kernel row of
    r with v at i; so is the engine's closed form under that point mass.
    Kernels with zero entries."""
    kernel = random_kernel(rng, n, dom_size, out_size)
    r_names = c.input_names(kernel)
    uniform = c.as_sem(kernel)
    engine = CanonicalEngine(c.CanonicalModel(kernel))

    def row(dist: Dist) -> dict:
        return {point[-1]: w for point, w in dist.marginal(("O",)).weights.items()}

    for i in range(1, n + 1):
        rest = r_names[: i - 1] + r_names[i:]
        for v in kernel.data_domain:
            forced = {c.d_name(i): v}
            scale, rows = engine._oracle_rows(kernel._uniform, forced, rest, 1)
            joint = uniform.do(forced).lift(rest + ("O",))
            for others in product(kernel.data_domain, repeat=n - 1):
                d = others[: i - 1] + (v,) + others[i - 1 :]
                anywhere = others[: i - 1] + (rng.choice(kernel.data_domain),) \
                    + others[i - 1 :]
                point_mass = Dist.point_mass(r_names, anywhere)
                helper = {o: F(w, scale) for o, w in rows[others].items()}
                sliced = row(joint.condition(dict(zip(rest, others))))
                alone = row(c.as_sem(kernel, (), point_mass).do(forced).lift(("O",)))
                mixed = CanonicalEngine(c.CanonicalModel(kernel, (), point_mass)) \
                    .output_given_point(i, v)
                assert helper == sliced == alone == mixed == kernel.row(d)


@given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(2, 3),
       st.integers(1, 3), st.data())
def test_whole_database_rows_are_slices_of_one_uniform_lift(rng, n, dom_size,
                                                            out_size, data):
    """The whole-database cross-check reads every database's oracle row off
    one integer lift of (R_1..R_n, O) under the uniform input
    (`CanonicalEngine._oracle_rows`).  For every db, that row equals the
    per-database query do(D_1..D_n = db) lifted to O in the model's own
    structural model, and both are db's kernel row: under a drawn
    population with zero-weight databases, and (for n >= 2) under the
    attribute equation R_n := R_1.  Kernels with zero entries."""
    kernel = random_kernel(rng, n, dom_size, out_size)
    inputs = c.input_names(kernel)
    models = [c.CanonicalModel(kernel, (), _population(data.draw, inputs, kernel))]
    if n > 1:
        tie = (c.copy_equation(inputs[-1], inputs[0], kernel.data_domain),)
        models.append(c.CanonicalModel(
            kernel, tie, _population(data.draw, inputs[:-1], kernel)))
    for model in models:
        engine = CanonicalEngine(model, cross_check=True)
        scale, slices = engine._oracle_rows(kernel._uniform, {}, inputs, 1)
        for db in kernel.databases():
            forced = model.psem.do(dict(zip(c.data_point_names(kernel), db)))
            old = {point[0]: w for point, w in forced.lift(("O",)).weights.items()}
            sliced = {o: F(w, scale) for o, w in slices[db].items()}
            assert sliced == old == kernel.row(db)


# --- exact rows and the file format ------------------------------------------------


@st.composite
def kernels_with_zero_entries(draw) -> tuple:
    """A kernel whose table spells out zero weights, and that table."""
    n, dom_size, out_size = (draw(st.integers(1, 2)), draw(st.integers(1, 3)),
                             draw(st.integers(1, 3)))
    dom = tuple(range(dom_size))
    outs = tuple(f"o{j}" for j in range(out_size))
    table = {db: dict(zip(outs, _weights(draw, out_size)))
             for db in product(dom, repeat=n)}
    return c.MechanismKernel.from_table(n, dom, dom[0], outs, table), table


@st.composite
def builtin_kernels(draw) -> c.MechanismKernel:
    """Randomized response at a bias in (1/2, 1) or a geometric count at a
    ratio in (0, 1), at n = 1..4."""
    n, den = draw(st.integers(1, 4)), draw(st.integers(3, 12))
    if draw(st.booleans()):
        return c.randomized_response_kernel(n, F(draw(st.integers(den // 2 + 1, den - 1)), den))
    return c.geometric_count_kernel(n, F(draw(st.integers(1, den - 1)), den))


@given(kernels_with_zero_entries(), small_psems())
def test_serialize_parse_serialize_is_byte_stable(kernel_and_table, psem):
    """Equation rows and input joints of the generated SEMs, like the kernel
    table, spell out zero weights before construction drops them."""
    kernel, table = kernel_and_table
    for obj in (kernel, psem.sem, psem.exogenous_dist):
        text = canonical_json(serialize_input(obj))
        back = parse_text(text)
        assert back == obj
        assert canonical_json(serialize_input(back)) == text
        assert input_digest(back) == input_digest(obj)
    spelled_out = serialize_input(kernel)
    spelled_out["table"] = [
        [list(db), [[o, format_rational(w)] for o, w in row.items()]]
        for db, row in table.items()
    ]
    assert input_digest(parse_text(json.dumps(spelled_out))) == input_digest(kernel)


@given(kernels_with_zero_entries())
def test_integer_table_is_the_table_over_one_denominator(kernel_and_table):
    """Cell by cell, the integer table is L times the kernel's weight (0
    where the row has no entry), L the lcm of the table's denominators, in
    database and output order; also on the parsed kernel, whose cells share
    one `Fraction` per distinct weight."""
    kernel, _ = kernel_and_table
    parsed = parse_text(canonical_json(serialize_input(kernel)))
    for k in (kernel, parsed):
        common, rows = k.integer_table
        weights = [w for row in kernel_table(k).values() for w in row.values()]
        assert common == math.lcm(*(w.denominator for w in weights))
        assert list(rows) == list(k.databases())
        for db, row in rows.items():
            assert row == tuple(common * k.row(db).get(o, F(0))
                                for o in k.output_domain)
            assert all(type(p) is int for p in row)
    assert parsed.integer_table == kernel.integer_table


@given(kernels_with_zero_entries(), builtin_kernels())
def test_a_row_reads_the_integer_table(kernel_and_table, builtin):
    """`kernel.row(db)` is a read-only view of db's integer row: equal to
    the table's row (a builtin's: its integer row over L), its outputs in
    report order and only those with an entry, an absent or unknown output
    missing from it."""
    kernel, table = kernel_and_table
    common, integer_rows = builtin.integer_table
    for k in (kernel, builtin):
        rows = {db: k.row(db) for db in k.databases()}
        for db, row in rows.items():
            entries = ({o: w for o, w in table[db].items() if w} if k is kernel else
                       {o: F(p, common) for o, p in zip(k.output_domain, integer_rows[db]) if p})
            assert row == entries and dict(row) == entries
            assert list(row) == [o for o in k.output_domain if o in entries]
            assert len(row) == len(entries)
            for o in k.output_domain + ("no such output",):
                assert row.get(o) == entries.get(o)
                assert (o in row) == (o in entries)
            with pytest.raises(TypeError):
                row[k.output_domain[0]] = F(1)
    with pytest.raises(c.ValueOutOfDomain):
        kernel.row(("no such database",))


@given(kernels_with_zero_entries(), builtin_kernels())
def test_the_oracle_reads_the_kernel_integer_table(kernel_and_table, builtin):
    """The canonical model's O equation is the kernel's integer table, zero
    numerators left out: its rows are the kernel's rows, one per database."""
    for kernel in (kernel_and_table[0], builtin):
        eq = kernel._canonical_sem.equations["O"]
        assert eq.integer_table[0] == kernel.integer_table[0]
        assert eq.rows == {(db,): dict(kernel.row(db)) for db in kernel.databases()}


@given(st.integers(0, 2), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.randoms(use_true_random=False), st.data())
def test_both_constructors_give_one_equation(width, keys, size, factor, rng, data):
    """`from_rows` on `Fraction` rows with zero entries and the integer
    constructor on the same table give equal equations, with each row's
    values listed in any order and the table over L or over a multiple of
    it; `rows` reads the positive entries back."""
    parents = tuple(f"P{i}" for i in range(width))
    rows = {tuple(range(j, j + width)): dict(zip(range(size), _weights(data.draw, size)))
            for j in range(keys)}

    def shuffled(row: dict) -> list:
        items = list(row.items())
        rng.shuffle(items)
        return items

    common = math.lcm(*(w.denominator for row in rows.values() for w in row.values()))
    table = {key: {v: int(w * common) * factor for v, w in shuffled(row) if w}
             for key, row in rows.items()}
    by_rows = StochasticEquation.from_rows("Y", parents,
                                           {key: dict(shuffled(row)) for key, row in rows.items()})
    assert StochasticEquation("Y", parents, (common * factor, table)) == by_rows
    assert by_rows.integer_table[0] == common
    assert by_rows.rows == {key: {v: w for v, w in row.items() if w}
                            for key, row in rows.items()}


@given(small_psems(_mixed_weights), st.randoms(use_true_random=False))
def test_a_shuffled_sem_round_trips(psem, rng):
    """A model whose equations list each row's values in a shuffled order
    equals the model, and serializes and parses back to an equal model."""
    equations = {}
    for name, eq in psem.sem.equations.items():
        rows = {}
        for key, row in eq.rows.items():
            items = list(row.items())
            rng.shuffle(items)
            rows[key] = dict(items)
        equations[name] = StochasticEquation.from_rows(name, eq.parents, rows)
    sem = Sem(psem.sem.names, psem.sem.domains, equations)
    assert sem == psem.sem
    assert parse_text(canonical_json(serialize_input(sem))) == sem


def test_validating_the_oracle_derives_no_fraction_rows():
    """Building and validating a kernel's uniform-input model reads the
    kernel's integer table straight into the O equation: neither derives a
    `Fraction` table."""
    kernel = c.randomized_response_kernel(4, F(3, 4))
    kernel._uniform
    assert "rows" not in vars(kernel._canonical_sem.equations["O"])
    assert "table" not in vars(kernel)


def _refusal(build) -> tuple:
    try:
        build()
    except (c.DomainMismatch, c.ValueOutOfDomain) as e:
        return type(e), str(e)
    raise AssertionError("population accepted")


@given(kernels_with_zero_entries(), st.data())
def test_engine_data_joint_is_the_lifted_population(kernel_and_table, data):
    """Without attribute equations D_i := R_i, so the engine's data joint is
    the population itself (defaulted, or renamed from R_1..R_n) and equals
    the oracle's lift; a population the model cannot take is refused with
    the same error by the engine and the oracle."""
    kernel, _ = kernel_and_table
    d_names, r_names = c.data_point_names(kernel), c.input_names(kernel)
    naming = data.draw(st.sampled_from(["none", "D", "R", "other", "outside"]))
    if naming == "none":
        pop = None
    elif naming in ("D", "R"):
        pop = _population(data.draw, d_names if naming == "D" else r_names, kernel)
    elif naming == "other":
        mixed = r_names[:-1] + d_names[-1:]  # one of each when n >= 2
        names = data.draw(st.sampled_from(
            [tuple(f"X_{i}" for i in range(1, kernel.n + 1)), d_names[::-1] + ("D_0",),
             d_names[:-1]] + ([mixed] if kernel.n > 1 else [])
        ))
        pop = Dist.point_mass(names, (kernel.data_domain[0],) * len(names))
    else:
        outside = len(kernel.data_domain)  # the domain is range(dom_size)
        names = data.draw(st.sampled_from([d_names, r_names]))
        where = data.draw(st.integers(0, kernel.n - 1))
        bad = tuple(outside if j == where else kernel.data_domain[0]
                    for j in range(kernel.n))
        pop = Dist.from_weights(names, {bad: F(1, 2), (kernel.data_domain[0],) * kernel.n: F(1, 2)})
    builds = (
        lambda: CanonicalEngine(c.CanonicalModel(kernel, (), pop)),
        lambda: c.as_sem(kernel, (), pop),
    )
    if naming in ("other", "outside"):
        refusals = {_refusal(build) for build in builds}
        assert len(refusals) == 1
        return
    joint = CanonicalEngine(c.CanonicalModel(kernel, (), pop)).base_joint()
    assert joint == c.as_sem(kernel, (), pop).lift(d_names)
    assert joint.variables == d_names


@given(st.integers(2, 4),
       st.sampled_from(("float", "negative", "sum", "excess", "int", "bool", "none")),
       st.data())
def test_constructors_reject_inexact_rows(size, fault, data):
    row = _weights(data.draw, size)
    i = data.draw(st.integers(0, size - 1))
    if fault == "float":
        row[i] = float(row[i])
    elif fault == "negative":
        row[i] -= 2  # still sums to 1
        row[(i + 1) % size] += 2
    elif fault == "sum":
        row[i] += F(1, 7)
    elif fault == "excess":
        row[i] += F(1, 2**61 - 1)
    elif fault == "int":
        row[i] = row[i].numerator // row[i].denominator  # 0 or 1: may sum to 1
    elif fault == "none":
        row[i] = None
    else:
        row[i] = True
    # the message reports the exact sum when only the sum is wrong
    match = None
    if fault in ("sum", "excess"):
        match = re.escape(f"weights sum to {sum(row)}, expected exactly 1")
    values = tuple(range(size))
    with pytest.raises(c.InvalidDistribution, match=match):
        Dist.from_weights(("A",), {(v,): w for v, w in zip(values, row)})
    with pytest.raises(c.DomainMismatch, match=match):
        StochasticEquation.from_rows("Y", (), {(): dict(zip(values, row))})
    with pytest.raises(c.DomainMismatch, match=match):
        c.MechanismKernel.from_table(1, (0,), 0, values, {(0,): dict(zip(values, row))})


def _positive_weights(draw, size: int) -> list[F]:
    raw = draw(st.lists(st.integers(1, 3), min_size=size, max_size=size))
    return [F(w, sum(raw)) for w in raw]


def _row_walk(table: dict):
    """The reference reading of a kernel table: `exact_row` on each row in
    `table.items()` order; the cleaned table, or the first error's class
    and message."""
    try:
        for db, row in table.items():
            exact_row(row, c.DomainMismatch, "kernel row", db)
    except c.DomainMismatch as e:
        return type(e), str(e)
    return {db: {o: w for o, w in row.items() if w} for db, row in table.items()}


_ROW_FAULTS = ("float", "exact float", "negative", "sum", "int", "bool", "none")


@pytest.mark.parametrize("fault", (None,) + _ROW_FAULTS)
@pytest.mark.parametrize("weights", (_weights, _positive_weights),
                         ids=("zeros", "positive"))
@given(st.integers(1, 3), st.integers(2, 3), st.integers(2, 3), st.data())
def test_kernel_errors_are_those_of_the_row_walk(weights, fault, n, dom_size,
                                                 out_size, data):
    """`from_table` validates through its integer table and walks rows
    with `exact_row` only to word an error.  On a multi-row table given in
    shuffled row order, with `fault` in one drawn row and maybe a second
    fault in another, the error's class and message are those of the row
    walk in `table.items()` order; a table without a fault loses its zero
    entries, and its derived table lists the rows in `databases()` order.
    Weights with zero entries and positive ones are both judged by the
    integer table."""
    dom = tuple(range(dom_size))
    outs = tuple(f"o{j}" for j in range(out_size))
    order = data.draw(st.permutations(list(product(dom, repeat=n))))
    table = {db: dict(zip(outs, weights(data.draw, out_size))) for db in order}
    more = data.draw(st.lists(st.sampled_from(_ROW_FAULTS), max_size=1))
    kinds = ([] if fault is None else [fault]) + more
    for kind, db in zip(kinds, data.draw(st.permutations(order))):
        row = table[db]
        o, other = data.draw(st.permutations(outs))[:2]
        if kind == "float":
            row[o] = float(row[o])
        elif kind == "exact float":  # the row sums to 1; a type is wrong
            rest = [key for key in outs if key != o]
            row.update(dict.fromkeys(rest, F(1, 2 * len(rest))))
            row[o] = 0.5
        elif kind == "negative":
            row[o] -= 2  # still sums to 1
            row[other] += 2
        elif kind == "sum":
            row[o] += F(1, 7)
        elif kind == "int":
            row[o] = row[o].numerator // row[o].denominator  # 0 or 1
        elif kind == "none":
            row[o] = None
        else:
            row[o] = True
    expected = _row_walk(table)
    build = lambda: c.MechanismKernel.from_table(n, dom, dom[0], outs, table)  # noqa: E731
    if isinstance(expected, tuple):
        with pytest.raises(Exception) as exc:
            build()
        assert (type(exc.value), str(exc.value)) == expected
        return
    kernel = build()
    table = kernel_table(kernel)
    assert table == expected and list(table) == list(kernel.databases())
    assert all(w > 0 for row in table.values() for w in row.values())


def _repeating_weights(draw, size: int) -> list[F]:
    """Weights drawn from at most two raw integers, so that at size 3 or
    more some weight string repeats."""
    pool = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    raw = [draw(st.sampled_from(pool)) for _ in range(size)]
    return [F(w, sum(raw)) for w in raw]


@st.composite
def tables_with_repeated_weights(draw):
    """A kernel (n = 1..2, |D| = 2..3, |O| = 3..4) or a distribution over
    two data points, weighted by `_repeating_weights`."""
    n, dom_size, out_size = (draw(st.integers(1, 2)), draw(st.integers(2, 3)),
                             draw(st.integers(3, 4)))
    dom = tuple(range(dom_size))
    if draw(st.booleans()):
        points = list(product(dom, repeat=2))
        return Dist.from_weights(("A", "B"), dict(zip(points, _repeating_weights(draw, len(points)))))
    outs = tuple(f"o{j}" for j in range(out_size))
    table = {db: dict(zip(outs, _repeating_weights(draw, out_size)))
             for db in product(dom, repeat=n)}
    return c.MechanismKernel.from_table(n, dom, dom[0], outs, table)


def _weight_cells(node: dict) -> list:
    """(holder, index, location) of every weight string in a serialized
    kernel or distribution."""
    if node["type"] == "distribution":
        return [(entry, 1, f"distribution.weights[{i}][1]")
                for i, entry in enumerate(node["weights"])]
    return [(cell, 1, f"kernel.table[{i}][1][{j}][1]")
            for i, (_, row) in enumerate(node["table"]) for j, cell in enumerate(row)]


@given(tables_with_repeated_weights(),
       st.sampled_from(["0.5", "1/0", "", "2/-3", "1/2 ", "x", 1, None, True, [1]]),
       st.data())
def test_a_corrupt_weight_is_reported_at_its_own_cell(obj, corrupt, data):
    """Each distinct weight string is parsed once per table into one shared
    Fraction, and a location is rendered only on error: a corrupted cell
    must still be named exactly, whichever earlier cell held its string."""
    text = canonical_json(serialize_input(obj))
    back = parse_text(text)
    assert back == obj
    rows = kernel_table(back).values() if isinstance(back, c.MechanismKernel) else [back.weights]
    weights = [w for row in rows for w in row.values()]
    assert len({id(w) for w in weights}) == len(set(weights))  # one object per value
    node = json.loads(text)
    holder, index, location = data.draw(st.sampled_from(_weight_cells(node)))
    holder[index] = corrupt
    with pytest.raises(c.ParseError) as exc:
        parse_text(json.dumps(node))
    assert exc.value.location == location


# Domain values a kernel file can hold: nested arrays, negative integers and
# strings the writer must escape (quotes, backslashes, control characters,
# newlines) or keep as non-ASCII text, or that hold format characters a
# template- or slot-based renderer could misread.
_awkward_values = st.recursive(
    st.integers(-5, 5)
    | st.text(alphabet=st.sampled_from('ab"\\\n\t\x00\x1féü€𝔘 /%{}'), max_size=4),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=4,
)


@st.composite
def kernels_over_awkward_values(draw) -> c.MechanismKernel:
    """A kernel over generated domain values, with zero entries that
    construction drops."""
    n = draw(st.integers(1, 2))
    dom = tuple(draw(st.lists(_awkward_values, min_size=1, max_size=3, unique=True)))
    outs = tuple(draw(st.lists(_awkward_values, min_size=1, max_size=3, unique=True)))
    table = {db: dict(zip(outs, _weights(draw, len(outs))))
             for db in product(dom, repeat=n)}
    return c.MechanismKernel.from_table(n, dom, draw(st.sampled_from(dom)), outs, table)


def _spelled(draw, w: F) -> str:
    """`w` as a file may write it: reduced, with both terms scaled alike
    (so "1/2" and "2/4" can meet in one table), or a zero as "0"."""
    if w == 0 and draw(st.booleans()):
        return "0"
    k = draw(st.integers(1, 3))
    return f"{w.numerator * k}/{w.denominator * k}"


@st.composite
def kernel_files(draw) -> dict:
    """A kernel file over generated domain values at n <= 3, written as a
    writer other than `serialize_kernel` may write it: rows maybe shuffled,
    a row's outputs maybe out of order, zero weights left out or spelled
    out, and each weight spelled by `_spelled`."""
    n = draw(st.integers(1, 3))
    dom = draw(st.lists(_awkward_values, min_size=1, max_size=3 if n < 3 else 2, unique=True))
    outs = draw(st.lists(_awkward_values, min_size=1, max_size=3, unique=True))
    databases = list(product(dom, repeat=n))
    if draw(st.booleans()):
        databases = draw(st.permutations(databases))
    sparse, reordered = draw(st.booleans()), draw(st.booleans())
    table = []
    for db in databases:
        cells = [[value_to_json(o), _spelled(draw, w)]
                 for o, w in zip(outs, _weights(draw, len(outs)))
                 if w or not sparse or draw(st.booleans())]
        if reordered and draw(st.booleans()):
            cells = draw(st.permutations(cells))
        table.append([value_to_json(db), cells])
    return {"type": "kernel", "n": n, "data_domain": [value_to_json(v) for v in dom],
            "null_value": value_to_json(draw(st.sampled_from(dom))),
            "output_domain": [value_to_json(o) for o in outs], "table": table}


# The kernel faults of `MALFORMED_TABLES` (tests/test_modelfile.py), each
# injected at a drawn entry and cell of a kernel file's table.
_TABLE_FAULTS = ("duplicate key", "non-array key", "duplicate value", "negative weight",
                 "wrong sum", "missing row", "value outside domain", "point of wrong width",
                 "non-rational weight", "row entry not a pair", "table entry not a pair",
                 "decimal weight", "boolean in key", "boolean value")


def _inject(fault: str, table: list, data) -> None:
    entry = table[data.draw(st.integers(0, len(table) - 1))]
    key, row = entry
    cell = row[data.draw(st.integers(0, len(row) - 1))]
    if fault == "duplicate key":
        table.insert(data.draw(st.integers(0, len(table))), json.loads(json.dumps(entry)))
    elif fault == "non-array key":
        entry[0] = key[0]
    elif fault == "duplicate value":
        row.insert(data.draw(st.integers(0, len(row))), list(cell))
    elif fault == "negative weight":
        cell[1] = "-" + cell[1]
    elif fault == "wrong sum":
        cell[1] = "1/7"
    elif fault == "missing row":
        table.remove(entry)
    elif fault == "value outside domain":
        cell[0] = "outside"  # longer than any generated string
    elif fault == "point of wrong width":
        key.append(key[0])
    elif fault == "non-rational weight":
        cell[1] = 1
    elif fault == "row entry not a pair":
        del cell[1]
    elif fault == "table entry not a pair":
        del entry[1]
    elif fault == "decimal weight":
        cell[1] = "0.5"
    elif fault == "boolean in key":
        key[data.draw(st.integers(0, len(key) - 1))] = True
    elif type(cell[0]) is list and cell[0] and data.draw(st.booleans()):
        cell[0][data.draw(st.integers(0, len(cell[0]) - 1))] = data.draw(st.booleans())
    else:
        cell[0] = data.draw(st.booleans())


def _outcome(text: str):
    """The kernel `parse_text` reads from `text`, or its error's class,
    message, location and cause class."""
    try:
        return parse_text(text)
    except c.CausalDpError as e:
        return type(e), str(e), e.location, type(e.__cause__)


def _dense(obj: dict) -> bool:
    """Every row of the file lists the whole output domain, in order."""
    return all([v for v, _ in row] == obj["output_domain"] for _, row in obj["table"])


@pytest.mark.parametrize("fault", (None,) + _TABLE_FAULTS)
@given(kernel_files(), st.data())
def test_the_table_reader_equals_the_walk(fault, obj, data):
    """`parse_kernel` reads a spelled-out table in whole-table passes
    (`_kernel_of_table`) and leaves every table it refuses to the walk
    (`_table`/`_row`, then `from_table`).  On generated files, sparse, out of
    order, with weights spelled several ways and with each fault of
    `MALFORMED_TABLES` injected, it gives the walk's kernel, with the same
    integer table, or the walk's error: class, message, location and cause.
    A valid table whose keys are arrays of strings and integers, and whose
    rows list the output domain in order with values that are strings,
    integers or such arrays, is never walked."""
    if fault is not None:
        _inject(fault, obj["table"], data)
    text = json.dumps(obj)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modelfile, "_kernel_of_table", lambda *args: None)
        walked = _outcome(text)
    read = _outcome(text)
    assert read == walked
    if isinstance(walked, tuple):
        return
    assert read.integer_table == walked.integer_table
    if _dense(obj) and all(type(v) is not tuple for v in walked.data_domain) and all(
            type(o) is not tuple or tuple not in map(type, o) for o in walked.output_domain):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(modelfile, "_row", None)  # a walk would call it
            assert parse_text(text).integer_table == walked.integer_table


@given(kernels_over_awkward_values())
def test_streamed_kernel_digest_equals_the_canonical_text(kernel):
    """The kernel digest is streamed row by row; it must hash exactly the
    bytes `canonical_json` writes for the serialized kernel."""
    text = canonical_json(serialize_kernel(kernel))
    assert input_digest(kernel) == digest_of_text(text)
    assert input_digest(parse_text(text)) == digest_of_text(text)


@st.composite
def canonical_models_over_awkward_values(draw) -> c.CanonicalModel:
    """A kernel over generated domain values in a canonical model, with or
    without a population and, at n = 2, with or without an attribute
    equation R_2 := F(R_1)."""
    kernel = draw(kernels_over_awkward_values())
    dom = kernel.data_domain
    inputs = c.input_names(kernel)
    attr = ()
    if kernel.n == 2 and draw(st.booleans()):
        rows = {(v,): dict(zip(dom, _weights(draw, len(dom)))) for v in dom}
        attr = (StochasticEquation.from_rows("R_2", ("R_1",), rows),)
        inputs = ("R_1",)
    population = None
    if draw(st.booleans()):
        points = list(product(dom, repeat=len(inputs)))
        population = Dist.from_weights(inputs, dict(zip(points, _weights(draw, len(points)))))
    return c.CanonicalModel(kernel, attr, population)


@given(canonical_models_over_awkward_values())
def test_streamed_model_digest_equals_the_canonical_text(model):
    """A canonical model's kernel is streamed like a bare kernel's, one
    level deeper; the digest must hash exactly the bytes `canonical_json`
    writes for the serialized model."""
    text = canonical_json(serialize_input(model))
    assert input_digest(model) == digest_of_text(text)
    assert input_digest(parse_text(text)) == digest_of_text(text)


@given(builtin_kernels(), st.booleans())
def test_builtin_kernel_digest_equals_the_canonical_text(kernel, in_model):
    """A builtin kernel's digest, rendered from its integer rows without its
    `Fraction` table, hashes exactly the bytes `canonical_json` writes for
    the serialized kernel, bare or inside a canonical model with a uniform
    population; and it equals the digest of the same kernel spelled out
    from its table."""
    names = c.data_point_names(kernel)
    obj = (c.CanonicalModel(kernel, (), Dist.uniform(names, kernel.databases()))
           if in_model else kernel)
    digest = input_digest(obj)
    assert "_fractions" not in vars(kernel)
    assert digest == digest_of_text(canonical_json(serialize_input(obj)))
    spelled = c.MechanismKernel.from_table(kernel.n, kernel.data_domain, kernel.null_value,
                                           kernel.output_domain, kernel_table(kernel))
    assert input_digest(spelled) == input_digest(kernel)


# --- the falsifier's search and product test, against their first versions -----


def _reference_grid_marginals(atoms, budget):
    """All distributions over `atoms` with denominator <= budget, deduplicated,
    in ascending-denominator, lexicographic-numerator order."""
    seen: set[tuple[F, ...]] = set()
    out: list[tuple[F, ...]] = []

    def compositions(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for tail in compositions(total - head, parts - 1):
                yield (head,) + tail

    for q in range(1, budget + 1):
        for comp in compositions(q, len(atoms)):
            key = tuple(F(k, q) for k in comp)
            if key not in seen:
                seen.add(key)
                out.append(key)
    return out


def _reference_falsify_bayesian0(kernel, target_ratio, search_budget=4):
    """The search as first written: both families filled cell by cell over
    every database, each candidate deduplicated by its sorted weights."""
    names = c.data_point_names(kernel)
    dom = kernel.data_domain
    n = kernel.n
    marginals = _reference_grid_marginals(dom, search_budget)
    tried = 0
    seen: set[tuple] = set()

    def try_population(weights):
        nonlocal tried
        pop = Dist.from_weights(names, weights)
        key = tuple(sorted(pop.weights.items(), key=lambda kv: value_sort_key(kv[0])))
        if key in seen:
            return None
        seen.add(key)
        tried += 1
        report = c.check_associative(
            DefinitionId.BAYESIAN0, c.CanonicalModel(kernel, (), pop), target_ratio
        )
        if not report.passed:
            return c.FalsificationOutcome(
                True, report, pop, tried, search_budget,
                "population found in the searched family",
            )
        return None

    for weights_on_diag in marginals:
        candidate = {
            (v,) * n: w for v, w in zip(dom, weights_on_diag) if w > 0
        }
        hit = try_population(candidate)
        if hit is not None:
            return hit
    for per_point in product(marginals, repeat=n):
        candidate = {}
        for db in product(dom, repeat=n):
            w = F(1)
            for coord, marg in zip(db, per_point):
                w *= marg[dom.index(coord)]
            if w > 0:
                candidate[db] = w
        hit = try_population(candidate)
        if hit is not None:
            return hit
    return c.FalsificationOutcome(
        False, None, None, tried, search_budget,
        "searched family exhausted without a violation; this is not a proof "
        "that none exists",
    )


def _reference_factors_as_product(joint: Dist) -> bool:
    singles = [joint.marginal((name,)) for name in joint.variables]
    for point, w in joint.weights.items():
        expected = F(1)
        for coord, single in zip(point, singles):
            expected *= single.weight_of((coord,))
        if w != expected:
            return False
    count = 1
    for single in singles:
        count *= len(single.weights)
    return count == len(joint.weights)


@pytest.mark.parametrize("atoms", [1, 2, 3, 4])
@pytest.mark.parametrize("budget", [1, 2, 3, 4, 5])
def test_grid_equals_the_reference_grid(atoms, budget):
    dom = tuple(range(atoms))
    grid = [tuple(F(k, q) for k in ks) for q, ks in _grid_marginals(dom, budget)]
    assert grid == _reference_grid_marginals(dom, budget)


@given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(2, 3),
       st.integers(2, 3), st.booleans(), st.data())
def test_falsifier_equals_the_reference_search(rng, n, dom_size, out_size,
                                               full_support, data):
    """Same candidates in the same order: the same outcome, count, population
    and report byte for byte, and the same in-process key order.  An infinite
    target always exhausts the family, and so does budget 1 (point masses
    only, so every comparison is skipped); small targets find violations.
    Three points over three values at budget 3 is 2,197 candidates per
    search, too slow to draw here."""
    kernel = random_kernel(rng, n, dom_size, out_size, full_support)
    budget = data.draw(st.sampled_from([2, 1] if n == 3 and dom_size == 3 else [3, 2, 1]))
    target = data.draw(st.sampled_from([F(1), F(2), F(4), F(9, 2), c.INF]))
    got = c.falsify_bayesian0(kernel, target, budget)
    want = _reference_falsify_bayesian0(kernel, target, budget)
    assert falsification_to_json(got) == falsification_to_json(want)
    if want.found:
        assert list(got.population.weights.items()) == list(want.population.weights.items())
        assert list(got.report.witness) == list(want.report.witness)
    else:
        g = len(_reference_grid_marginals(kernel.data_domain, budget))
        assert got.candidates_tried == (g + g**n - dom_size if n >= 2 else g)


def _random_row(rng, points: list) -> dict:
    """Weights 0..3 per point, some zero, not all."""
    raw = [rng.randint(0, 3) for _ in points]
    raw[rng.randrange(len(raw))] += 1
    return {p: F(w, sum(raw)) for p, w in zip(points, raw)}


@given(st.randoms(use_true_random=False),
       st.lists(st.integers(1, 3), min_size=1, max_size=3), st.booleans())
def test_factors_as_product_equals_the_reference_test(rng, sizes, as_product):
    """On products of drawn marginals and on drawn joints, which are mostly
    correlated; in both, values can carry zero weight."""
    names = tuple(f"X{j}" for j in range(len(sizes)))
    if as_product:
        joint = Dist.product(*(Dist.from_weights((name,), _random_row(rng, [(v,) for v in range(k)]))
                               for name, k in zip(names, sizes)))
        assert joint.factors_as_product()
    else:
        joint = Dist.from_weights(names, _random_row(rng, list(product(*map(range, sizes)))))
    assert joint.factors_as_product() == _reference_factors_as_product(joint)


def _product_definition(joint: Dist) -> bool:
    """`factors_as_product` as first written: the product of the 1-D
    marginals, built as a `Dist`, has the joint's weights."""
    marginals = (joint.marginal((name,)) for name in joint.variables)
    return Dist.product(*marginals).weights == joint.weights


@st.composite
def joints_near_products(draw) -> tuple[str, Dist, Dist | None]:
    """(kind, joint, the product it was made from) over 1-3 variables of 1-3
    values: a product of drawn marginals (zero weights allowed), a drawn
    joint, or a product with mass e moved around a rectangle of two values
    of its first two variables, which keeps every marginal; at the largest
    e two points leave the support."""
    kind = draw(st.sampled_from(["product", "drawn", "same marginals"]))
    moved = kind == "same marginals"
    sizes = draw(st.lists(st.integers(1 + moved, 3), min_size=1 + moved, max_size=3))
    names = tuple(f"X{j}" for j in range(len(sizes)))
    if kind == "drawn":
        points = list(product(*map(range, sizes)))
        return kind, Dist.from_weights(names, dict(zip(points, _weights(draw, len(points))))), None
    marginals = []
    for j, (name, k) in enumerate(zip(names, sizes)):
        # the moved variables keep their first two values in the support
        raw = [draw(st.integers(int(moved and j < 2 and v < 2), 3)) for v in range(k)]
        raw[0] += not sum(raw)
        marginals.append(Dist.from_weights((name,), {(v,): F(w, sum(raw)) for v, w in enumerate(raw)}))
    joint = Dist.product(*marginals)
    if not moved:
        return kind, joint, joint
    base = draw(st.sampled_from(sorted(joint.weights)))

    def at(x: int, y: int) -> tuple:
        return (x, y) + base[2:]

    weights = dict(joint.weights)
    e = min(weights[at(0, 1)], weights[at(1, 0)]) / draw(st.sampled_from([1, 2]))
    for point, sign in ((at(0, 0), 1), (at(1, 1), 1), (at(0, 1), -1), (at(1, 0), -1)):
        weights[point] += sign * e
    return kind, Dist.from_weights(names, weights), joint


@given(joints_near_products())
def test_factors_as_product_equals_the_product_definition(drawn):
    """The integer test agrees with building the product of the marginals:
    on products (every 1-D joint is one), on drawn joints and on joints
    with a product's marginals that are no product."""
    kind, joint, made_from = drawn
    assert joint.factors_as_product() == _product_definition(joint)
    if kind == "product":
        assert joint.factors_as_product()
    if kind == "same marginals":
        assert all(joint.marginal((name,)) == made_from.marginal((name,))
                   for name in joint.variables)
        assert not joint.factors_as_product()
