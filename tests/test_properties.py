"""Generated-input properties of the enumeration oracle.

The seeded loops elsewhere stay; these add shrinking counterexamples on
small random models.  The hypothesis profile is set in conftest.py.
"""

from fractions import Fraction as F
from itertools import product

from hypothesis import given
from hypothesis import strategies as st

import causaldp as c
from causaldp import CanonicalEngine, Dist, ProbabilisticSem, Sem, StochasticEquation
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
