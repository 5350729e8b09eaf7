"""Generated-input properties of the enumeration oracle and the engine.

The seeded loops elsewhere stay; these add shrinking counterexamples on
small random models.  The hypothesis profile is set in conftest.py.
"""

from fractions import Fraction as F
from itertools import product

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
)
from causaldp.checkers import ASSOCIATIVE_GIVEN_P
from conftest import random_kernel


def _weights(draw, size: int) -> list[F]:
    raw = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    if sum(raw) == 0:
        raw[draw(st.integers(0, size - 1))] = 1
    return [F(w, sum(raw)) for w in raw]


@st.composite
def small_psems(draw) -> ProbabilisticSem:
    """2-5 variables on a random DAG, declared in a random order, with
    random rational rows and a random (possibly correlated) input joint."""
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
            rows[key] = dict(zip(domains[v], _weights(draw, len(domains[v]))))
        equations[v] = StochasticEquation(v, parents, rows)
    names = tuple(draw(st.permutations(topo)))
    sem = Sem(names, domains, equations)
    exo = sem.exogenous
    points = list(product(*(domains[n] for n in exo)))
    inputs = Dist(exo, dict(zip(points, _weights(draw, len(points)))))
    return ProbabilisticSem(sem, inputs)


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
        out.append(StochasticEquation(target, parents, rows))
    return tuple(out)


@given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(2, 3),
       st.integers(1, 3), st.data())
def test_cross_checked_engine_agrees_everywhere(rng, n, dom_size, out_size, data):
    kernel = random_kernel(rng, n, dom_size, out_size)
    attr = data.draw(attribute_equations(kernel))
    bound = {eq.target for eq in attr}
    exo = tuple(r for r in c.input_names(kernel) if r not in bound)
    points = list(product(kernel.data_domain, repeat=len(exo)))
    pop = Dist(exo, dict(zip(points, _weights(data.draw, len(points)))))
    engine = CanonicalEngine(kernel, pop, attr, cross_check=True)
    for db in kernel.databases():
        engine.output_given_db(db)  # raises RuntimeError on any mismatch
    for i in range(1, n + 1):
        for v in kernel.data_domain:
            engine.output_given_point(i, v)
    dbs = len(kernel.data_domain) ** n
    assert engine.cross_checks_done == dbs + n * len(kernel.data_domain)


def _population(draw, names: tuple, kernel: c.MechanismKernel) -> Dist:
    """A joint over `names` on the data domain; weights may be zero, so
    some databases (or values of a point) can have probability zero."""
    points = list(product(kernel.data_domain, repeat=len(names)))
    return Dist(names, dict(zip(points, _weights(draw, len(points)))))


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
    engine = CanonicalEngine(kernel, pop, attr)
    induced = c.induced_data_population(kernel, attr, pop)
    oracles = (
        engine.psem.lift(),
        c.as_sem(kernel, (), Dist(c.input_names(kernel), induced.weights)).lift(),
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
            report = c.run_check(definition, kernel, F(1), given_pop, attr)
        except NotAProductDistribution:
            # a product over the inputs can induce a correlated data joint
            assert definition is DefinitionId.INDEPENDENT_BAYESIAN0 and attr
            continue
        if definition in ASSOCIATIVE_GIVEN_P:
            induced = c.induced_data_population(kernel, attr, given_pop)
            assert c.check_associative(definition, kernel, given_pop, F(1), attr) \
                == c.check_associative(definition, kernel, induced, F(1))
        if report.witness is None:
            assert report.achieved == 1
            continue
        replayed = c.replay_witness(definition, kernel, report.witness, given_pop, attr)
        assert replayed == report.achieved, (definition, report.witness)


def test_one_dist_witness_keeps_database_first_order():
    # an i-first sweep would report d = (1, 1) -> (0, 1) for the same ratio
    rows = {
        (0, 0): (F(1, 3), F(2, 3)),
        (0, 1): (F(3, 4), F(1, 4)),
        (1, 0): (F(4, 9), F(5, 9)),
        (1, 1): (F(1, 3), F(2, 3)),
    }
    kernel = c.MechanismKernel(
        2, (0, 1), 0, ("o0", "o1"),
        {db: dict(zip(("o0", "o1"), row)) for db, row in rows.items()},
    )
    pop = Dist.uniform(c.data_point_names(kernel), kernel.databases())
    report = c.run_check(DefinitionId.STRONG_ADVERSARY_ONE_DIST, kernel, F(1), pop)
    assert report.achieved == F(8, 3)
    assert report.witness == {"d": (0, 0), "d_prime": (0, 1), "o": "o1"}
    assert list(report.witness) == ["d", "d_prime", "o"]
