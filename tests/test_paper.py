"""The paper's propositions, one generated property each.

Tschantz, Sen & Datta, "Differential Privacy as a Causal Property", read
differential privacy two ways: associatively, by conditioning on data, and
causally, by intervening on it.  Each property states one relation between
a definition and classic differential privacy, on generated kernels with
zero entries (so some classic ratios are infinite) under generated
populations that may give some databases zero weight.  Each docstring names
its claim.
"""

from fractions import Fraction as F

from hypothesis import given
from hypothesis import strategies as st

import causaldp as c
from causaldp import DefinitionId, Dist
from conftest import _population, _weights, random_kernel


@given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(2, 3),
       st.integers(1, 3), st.data())
def test_whole_db_intervention_equals_classic(rng, n, dom_size, out_size, data):
    """`whole_db_intervention` equals classic in value and witness, key
    order included, under every population, zero-weight databases and
    point masses included, with the cross-check on: forcing every data
    point leaves the population no path to the output.  Kernels with zero
    entries, so some classic ratios are infinite."""
    kernel = random_kernel(rng, n, dom_size, out_size)
    classic = c.classic_epsilon(kernel)
    names = c.data_point_names(kernel)
    db = data.draw(st.sampled_from(list(kernel.databases())))
    for pop in (_population(data.draw, names, kernel), Dist.point_mass(names, db)):
        report = c.run_check(DefinitionId.WHOLE_DB_INTERVENTION, kernel, F(1), pop,
                             cross_check=True)
        assert (report.achieved, report.witness) == (classic.value, classic.witness)
        assert type(report.achieved) is type(classic.value)
        if classic.witness is not None:
            assert list(report.witness) == list(classic.witness)


@given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(2, 3),
       st.integers(1, 3), st.data())
def test_strong_adversary_one_dist_never_exceeds_classic(rng, n, dom_size,
                                                         out_size, data):
    """`strong_adversary_one_dist` is at most classic under every
    population, zero-weight databases and point masses included:
    conditioning on a whole database of positive probability reads its
    kernel row, so the definition compares some of classic's neighbouring
    rows and skips the pairs with a zero-probability side.  Kernels with
    zero entries, so some classic ratios are infinite."""
    kernel = random_kernel(rng, n, dom_size, out_size)
    classic = c.classic_epsilon(kernel).value
    names = c.data_point_names(kernel)
    db = data.draw(st.sampled_from(list(kernel.databases())))
    for pop in (_population(data.draw, names, kernel), Dist.point_mass(names, db)):
        report = c.run_check(DefinitionId.STRONG_ADVERSARY_ONE_DIST, kernel, F(1), pop)
        assert c.ratio_le(report.achieved, classic)


@given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(2, 3),
       st.integers(1, 3), st.data())
def test_bayesian0_never_exceeds_classic_to_the_n(rng, n, dom_size, out_size, data):
    """`bayesian0` is at most classic^n under every population, zero-weight
    databases and point masses included: conditioning on D_i = v mixes the
    rows of every database with v at i, and two databases differ in at most
    n points, so conditioning can compound row ratios over all n points, the
    group-privacy bound, but no further.  Generated kernels with and without
    zero entries, so some classic ratios are infinite, and randomized
    response, where the population that copies one value into every point
    attains the bound."""
    rr = data.draw(st.booleans())
    if rr:
        q = data.draw(st.sampled_from([F(2, 3), F(3, 4)]))
        kernel = c.randomized_response_kernel(n, q)
    else:
        kernel = random_kernel(rng, n, dom_size, out_size, data.draw(st.booleans()))
    bound = c.classic_epsilon(kernel).value ** n
    names = c.data_point_names(kernel)
    db = data.draw(st.sampled_from(list(kernel.databases())))
    copies = Dist.uniform(names, [(v,) * n for v in kernel.data_domain])
    drawn = _population(data.draw, names, kernel)
    for pop in (drawn, Dist.point_mass(names, db), copies):
        report = c.run_check(DefinitionId.BAYESIAN0, kernel, F(1), pop)
        assert c.ratio_le(report.achieved, bound)
    assert not rr or report.achieved == bound


@given(st.randoms(use_true_random=False), st.integers(1, 3), st.integers(2, 3),
       st.integers(1, 3), st.data())
def test_independent_bayesian0_never_exceeds_classic(rng, n, dom_size, out_size, data):
    """`independent_bayesian0` is at most classic under every product
    population, zero weights and point masses included: with the other
    points independent of D_i, conditioning on D_i = v mixes the rows of
    the databases with v at i by one weighting that is the same for every
    v, so each ratio is a mediant of neighbouring row ratios.  It equals
    classic on the product built from classic's witness (d, i, d'_i): point
    masses on d's other points and 1/2 each on d_i and d'_i at i, under
    which the two conditionals are the rows of d and of d with d'_i at i.
    Kernels with zero entries, so some classic ratios are infinite."""
    kernel = random_kernel(rng, n, dom_size, out_size)
    classic = c.classic_epsilon(kernel)
    names = c.data_point_names(kernel)
    dom = kernel.data_domain
    drawn = Dist.product(*(Dist.from_weights((name,), dict(zip([(v,) for v in dom],
                                                  _weights(data.draw, len(dom)))))
                           for name in names))
    report = c.run_check(DefinitionId.INDEPENDENT_BAYESIAN0, kernel, F(1), drawn)
    assert c.ratio_le(report.achieved, classic.value)
    if classic.witness is None:  # classic is 1, and so is every supremum
        assert report.achieved == classic.value
        return
    i, d = classic.witness["i"], classic.witness["d"]
    halves = {(d[i - 1],): F(1, 2), (classic.witness["d_prime_i"],): F(1, 2)}
    witness = Dist.product(*(Dist.from_weights((name,), halves) if j == i
                             else Dist.point_mass((name,), (d[j - 1],))
                             for j, name in enumerate(names, 1)))
    report = c.run_check(DefinitionId.INDEPENDENT_BAYESIAN0, kernel, F(1), witness)
    assert report.achieved == classic.value
    assert type(report.achieved) is type(classic.value)
