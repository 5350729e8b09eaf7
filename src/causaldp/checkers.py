"""Executable privacy definitions.

Every checker reports the exact supremum ratio achieved by its family of
comparisons, the first witness attaining it, and how any universal
quantifier over populations was discharged:

  * the universal strong-adversary definition needs only one full-support
    population (conditioning then reproduces kernel rows exactly);
  * full-database interventions do not depend on the population at all;
  * the universal single-point definition is discharged by point-mass
    populations on the other data points;
  * for bayesian0's quantifier the package has no exact check yet, so there
    is a per-population checker plus a budgeted falsifier whose NotFound
    outcome is a search report, never a proof.

Conditional and interventional output distributions both come from one
`CanonicalEngine` and differ only in the weights that mix kernel rows; every
family of comparisons is folded by one `sweep`.  Populations and attribute
equations pass straight through to `mechanisms.as_sem`, which alone turns
them into a model.  The generic model semantics (lift, condition, intervene)
are left to the oracle: cross-checks and `replay_witness`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

from .dist import Dist
from .errors import (
    DomainMismatch,
    MissingPopulation,
    NotAProductDistribution,
    UnexpectedPopulation,
)
from .exact import Ratio, Value, ratio_divide, value_sort_key
from .mechanisms import (
    OUTPUT_VAR,
    CanonicalEngine,
    MechanismKernel,
    as_sem,
    classic_epsilon,
    d_name,
    data_point_names,
    neighbours,
    value_pairs,
)
from .reports import (
    NEEDS_POPULATION,
    CheckReport,
    DefinitionId,
    finish_report,
    sweep,
)
from .sem import StochasticEquation

ASSOCIATIVE_GIVEN_P = frozenset(
    {
        DefinitionId.STRONG_ADVERSARY_ONE_DIST,
        DefinitionId.BAYESIAN0,
        DefinitionId.INDEPENDENT_BAYESIAN0,
    }
)
CAUSAL_GIVEN_P = frozenset(
    {DefinitionId.WHOLE_DB_INTERVENTION, DefinitionId.SINGLE_POINT_INTERVENTION}
)


def induced_data_population(
    kernel: MechanismKernel,
    attribute_equations: Iterable[StochasticEquation],
    population: Dist | None,
) -> Dist:
    """The joint over the data points that a population and any attribute
    equations induce.  Conditional definitions only see the data through it."""
    return as_sem(kernel, attribute_equations, population).lift(data_point_names(kernel))


# --- classic -----------------------------------------------------------------


def check_classic(kernel: MechanismKernel, target_ratio: Ratio) -> CheckReport:
    """Worst-case row ratio over single-point database changes."""
    return finish_report(
        DefinitionId.CLASSIC,
        target_ratio,
        classic_epsilon(kernel),
        skipped=0,
        reduction="direct supremum over kernel rows; no population involved",
    )


# --- associative (conditioning) checkers --------------------------------------


def check_associative(
    definition: DefinitionId,
    kernel: MechanismKernel,
    population: Dist,
    target_ratio: Ratio,
    attribute_equations: Iterable[StochasticEquation] = (),
) -> CheckReport:
    """Compare conditional output distributions under one fixed population.

    The conditionals come from the same engine as the interventional
    checkers: kernel rows mixed by the joint of the other data points given
    the conditioning event, so correlated populations (and attribute
    equations) show their real effect.  Comparisons whose conditioning event
    has probability zero are skipped and counted.
    """
    definition = DefinitionId(definition)
    if definition not in ASSOCIATIVE_GIVEN_P:
        raise DomainMismatch(f"{definition.value} is not a per-population "
                             f"conditional definition")
    engine = CanonicalEngine(kernel, population, attribute_equations)
    # the data joint the conditionals see, attribute equations included
    independent = definition is DefinitionId.INDEPENDENT_BAYESIAN0
    if independent and not engine.base_joint().factors_as_product():
        raise NotAProductDistribution(
            "this definition requires the population to factor as an exact "
            "product over the data points"
        )

    if definition is DefinitionId.STRONG_ADVERSARY_ONE_DIST:
        given = engine.output_conditioned_on_db

        def pairs():
            # database first, then the point changed: this family's own order
            for d in kernel.databases():
                left = given(d)
                for i in range(kernel.n):
                    for v_prime in kernel.data_domain:
                        d_prime = d[:i] + (v_prime,) + d[i + 1 :]
                        yield left, given(d_prime), {"d": d, "d_prime": d_prime}

        bound, skipped = sweep(kernel.output_domain, pairs())
        reduction = (
            "conditional on each realizable database, compared across "
            "databases at point distance at most one"
        )
    else:
        bound, skipped = sweep(
            kernel.output_domain,
            value_pairs(kernel, engine.output_conditioned_on_point),
        )
        reduction = (
            "conditional on each realizable value of each data point, "
            "compared across values"
            + ("; population verified to factor as a product" if independent else "")
        )
    return finish_report(definition, target_ratio, bound, skipped, reduction)


def check_strong_adversary_universal(
    kernel: MechanismKernel, target_ratio: Ratio
) -> CheckReport:
    """The for-all-populations strong adversary definition.

    One full-support population suffices: conditioning on the full database
    then yields exactly the kernel row, so the supremum over populations
    equals the classic supremum over neighbouring kernel rows.
    """
    return finish_report(
        DefinitionId.STRONG_ADVERSARY_UNIVERSAL,
        target_ratio,
        classic_epsilon(kernel),
        skipped=0,
        reduction=(
            "universal population quantifier discharged by one full-support "
            "(uniform) population; under it each full-database conditional is "
            "the kernel row"
        ),
    )


# --- causal (interventional) checkers -----------------------------------------


def check_causal(
    definition: DefinitionId,
    kernel: MechanismKernel,
    population: Dist,
    attribute_equations: Iterable[StochasticEquation] = (),
    target_ratio: Ratio = Fraction(1),
    cross_check: bool = True,
) -> CheckReport:
    """Compare interventional output distributions under one population.

    Interventions are defined for every domain value, including ones the
    population never produces, so no comparison is ever skipped.
    """
    definition = DefinitionId(definition)
    if definition not in CAUSAL_GIVEN_P:
        raise DomainMismatch(f"{definition.value} is not a per-population "
                             f"interventional definition")
    engine = CanonicalEngine(kernel, population, attribute_equations, cross_check)

    if definition is DefinitionId.WHOLE_DB_INTERVENTION:
        pairs = neighbours(kernel, engine.output_given_db)
        reduction = "full-database interventions read kernel rows directly " \
                    "(population cannot influence them)"
    else:
        pairs = value_pairs(kernel, engine.output_given_point)
        reduction = (
            "single-point interventions mix kernel rows by the undisturbed "
            "marginal of the other data points"
        )
    bound, _ = sweep(kernel.output_domain, pairs)
    if cross_check:
        reduction += "; every distribution cross-checked by enumerating the " \
                     "intervened model"
    return finish_report(definition, target_ratio, bound, 0, reduction)


def check_universal_causal(
    definition: DefinitionId,
    kernel: MechanismKernel,
    target_ratio: Ratio,
    cross_check: bool = True,
) -> CheckReport:
    """The for-all-populations interventional definitions."""
    definition = DefinitionId(definition)
    if definition is DefinitionId.WHOLE_DB_UNIVERSAL:
        # evaluated under the uniform population; the rows ignore it anyway
        engine = CanonicalEngine(kernel, cross_check=cross_check)
        bound, _ = sweep(kernel.output_domain, neighbours(kernel, engine.output_given_db))
        return finish_report(
            definition,
            target_ratio,
            bound,
            skipped=0,
            reduction=(
                "universal quantifier vacuous: full-database interventions do "
                "not depend on the population (evaluated once)"
            )
            + ("; cross-checked by enumeration" if cross_check else ""),
        )
    if definition is not DefinitionId.SINGLE_POINT_UNIVERSAL:
        raise DomainMismatch(f"{definition.value} is not a universal "
                             f"interventional definition")

    n = kernel.n
    dom = kernel.data_domain

    def pairs():
        for i in range(1, n + 1):
            for others in product(dom, repeat=n - 1):
                dbs = {v: others[: i - 1] + (v,) + others[i - 1 :] for v in dom}
                if cross_check:
                    # under the point mass on the other coordinates, the
                    # single-point intervention must reproduce the kernel row
                    pop = Dist.point_mass(data_point_names(kernel), dbs[dom[0]])
                    engine = CanonicalEngine(kernel, pop, (), cross_check=True)
                    for v in dom:
                        if engine.output_given_point(i, v) != kernel.table[dbs[v]]:
                            raise RuntimeError(
                                f"point-mass reduction failed at i={i}, "
                                f"others={others!r}, v={v!r}"
                            )
                for v in dom:
                    for v_prime in dom:
                        yield kernel.table[dbs[v]], kernel.table[dbs[v_prime]], {
                            "i": i, "others": others, "v": v, "v_prime": v_prime,
                        }

    bound, _ = sweep(kernel.output_domain, pairs())
    return finish_report(
        definition,
        target_ratio,
        bound,
        skipped=0,
        reduction=(
            "universal quantifier discharged by point-mass populations on the "
            "other data points; each reduces to a kernel-row comparison"
        )
        + ("; reductions verified by enumeration" if cross_check else ""),
    )


# --- dispatcher ----------------------------------------------------------------


def run_check(
    definition: DefinitionId,
    kernel: MechanismKernel,
    target_ratio: Ratio,
    population: Dist | None = None,
    attribute_equations: Iterable[StochasticEquation] = (),
    cross_check: bool = True,
) -> CheckReport:
    """Route to the right checker; enforce population expectations."""
    definition = DefinitionId(definition)
    if definition in NEEDS_POPULATION and population is None:
        raise MissingPopulation(
            f"{definition.value} needs a population distribution"
        )
    if definition not in NEEDS_POPULATION and population is not None:
        raise UnexpectedPopulation(
            f"{definition.value} quantifies over populations; do not fix one"
        )
    if definition is DefinitionId.CLASSIC:
        return check_classic(kernel, target_ratio)
    if definition is DefinitionId.STRONG_ADVERSARY_UNIVERSAL:
        return check_strong_adversary_universal(kernel, target_ratio)
    if definition in ASSOCIATIVE_GIVEN_P:
        return check_associative(
            definition, kernel, population, target_ratio, attribute_equations
        )
    if definition in CAUSAL_GIVEN_P:
        return check_causal(
            definition, kernel, population, attribute_equations, target_ratio,
            cross_check,
        )
    return check_universal_causal(definition, kernel, target_ratio, cross_check)


# --- falsification of the universal bayesian0 claim ----------------------------


@dataclass(frozen=True)
class FalsificationOutcome:
    """Result of a budgeted search for a population breaking bayesian0.

    `found=False` means the searched family is exhausted, nothing more: the
    universal claim is not thereby proven.
    """

    found: bool
    report: CheckReport | None
    population: Dist | None
    candidates_tried: int
    search_budget: int
    note: str


def _grid_marginals(atoms: Sequence[Value], budget: int) -> list[tuple[Fraction, ...]]:
    """All distributions over `atoms` with denominator <= budget, deduplicated,
    in ascending-denominator, lexicographic-numerator order."""
    seen: set[tuple[Fraction, ...]] = set()
    out: list[tuple[Fraction, ...]] = []

    def compositions(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for tail in compositions(total - head, parts - 1):
                yield (head,) + tail

    for q in range(1, budget + 1):
        for comp in compositions(q, len(atoms)):
            key = tuple(Fraction(k, q) for k in comp)
            if key not in seen:
                seen.add(key)
                out.append(key)
    return out


def falsify_bayesian0(
    kernel: MechanismKernel,
    target_ratio: Ratio,
    search_budget: int = 4,
) -> FalsificationOutcome:
    """Search two population families for a bayesian0 violation.

    Family one: perfectly correlated populations (all data points equal),
    mixed over the diagonal with grid weights of denominator <= budget.
    Family two: product populations whose per-point marginals use the same
    grid.  Candidates are tried in a fixed order and the first failing
    population is returned with its report.
    """
    names = data_point_names(kernel)
    dom = kernel.data_domain
    n = kernel.n
    marginals = _grid_marginals(dom, search_budget)
    tried = 0
    seen: set[tuple] = set()

    def try_population(weights: dict[tuple, Fraction]) -> FalsificationOutcome | None:
        nonlocal tried
        pop = Dist(names, weights)
        key = tuple(sorted(pop.weights.items(), key=lambda kv: value_sort_key(kv[0])))
        if key in seen:
            return None
        seen.add(key)
        tried += 1
        report = check_associative(DefinitionId.BAYESIAN0, kernel, pop, target_ratio)
        if not report.passed:
            return FalsificationOutcome(
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
            w = Fraction(1)
            for coord, marg in zip(db, per_point):
                w *= marg[dom.index(coord)]
            if w > 0:
                candidate[db] = w
        hit = try_population(candidate)
        if hit is not None:
            return hit
    return FalsificationOutcome(
        False, None, None, tried, search_budget,
        "searched family exhausted without a violation; this is not a proof "
        "that none exists",
    )


# --- independent replay of witnesses -------------------------------------------


def replay_witness(
    definition: DefinitionId,
    kernel: MechanismKernel,
    witness: dict,
    population: Dist | None = None,
    attribute_equations: Iterable[StochasticEquation] = (),
) -> Ratio | None:
    """Recompute a witness ratio through the generic model-semantics path.

    Uses only intervene/lift/condition on the canonical model (never the
    engine), so a replayed ratio independently confirms the report.  Both
    databases of a neighbouring pair become assignments to every data point:
    intervened on for the causal definitions, conditioned on otherwise.
    """
    definition = DefinitionId(definition)
    if definition is DefinitionId.SINGLE_POINT_UNIVERSAL:
        i, others = witness["i"], tuple(witness["others"])
        seed = others[: i - 1] + (kernel.data_domain[0],) + others[i - 1 :]
        psem = as_sem(kernel, (), Dist.point_mass(data_point_names(kernel), seed))
    elif definition in NEEDS_POPULATION:
        psem = as_sem(kernel, attribute_equations, population)
    else:  # the other definitions quantify over populations: the uniform one
        psem = as_sem(kernel)

    if "v" in witness:  # two values of data point i
        events = [{d_name(witness["i"]): x} for x in (witness["v"], witness["v_prime"])]
    else:  # two databases, each an assignment to every data point
        d = tuple(witness["d"])
        if "d_prime" in witness:
            d_prime = tuple(witness["d_prime"])
        else:
            i = witness["i"]
            d_prime = d[: i - 1] + (witness["d_prime_i"],) + d[i:]
        events = [dict(zip(data_point_names(kernel), db)) for db in (d, d_prime)]
    conditional = definition in ASSOCIATIVE_GIVEN_P | {
        DefinitionId.STRONG_ADVERSARY_UNIVERSAL
    }
    target = {OUTPUT_VAR: witness["o"]}
    num, den = (
        psem.query(target, (), event) if conditional else psem.query(target, event)
        for event in events
    )
    return ratio_divide(num, den)
