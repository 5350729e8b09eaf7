"""Executable privacy definitions.

Every checker reports the exact supremum ratio achieved by its family of
comparisons, the first witness attaining it, and how any universal
quantifier over populations was discharged:

  * the universal strong-adversary definition needs only one full-support
    population (conditioning then reproduces kernel rows exactly);
  * full-database interventions do not depend on the population at all;
  * the universal single-point definition is discharged by point-mass
    populations on the other data points;
  * the engine cross-checks these two reductions: each database and each
    point mass is a row of an integer oracle lift from one helper,
    `CanonicalEngine._oracle_rows`, one lift per engine for the databases
    and n*|D| for the point masses;
  * for bayesian0's quantifier the package has no exact check yet, so there
    is a per-population checker plus a budgeted falsifier whose NotFound
    outcome is a search report, never a proof.

The per-population checkers take one `CanonicalModel`: the kernel, its
attribute equations and its population, with the data joint and the
structural model each built once on the model and shared by every check on
it; the population-free ones read only its kernel.  `run_check` is the one
place that decides which population a definition sees.
Conditional and interventional output distributions both come from one
`CanonicalEngine` and differ only in the weights that mix kernel rows, as
integer rows that one fold, `reports.group_sweep`, compares by groups: the
database family through `neighbour_sweep` and the value family through
`value_sweep`.  The engine reads the model's data joint, and the structural
model is built only for cross-checks, attribute equations and replay.  The
generic model semantics (lift, condition, intervene) are left to that
oracle: cross-checks and `replay_witness`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, product
from typing import Iterable, Sequence

from .dist import Dist
from .errors import (
    DomainMismatch,
    MissingPopulation,
    NotAProductDistribution,
    UnexpectedPopulation,
)
from .exact import Ratio, Value, ratio_divide
from .mechanisms import (
    OUTPUT_VAR,
    CanonicalEngine,
    CanonicalModel,
    MechanismKernel,
    as_sem,
    classic_epsilon,
    d_name,
    data_point_names,
    neighbour_sweep,
    value_sweep,
)
from .reports import NEEDS_POPULATION, CheckReport, DefinitionId, finish_report
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
    definition: DefinitionId, model: CanonicalModel, target_ratio: Ratio
) -> CheckReport:
    """Compare conditional output distributions under the model's population.

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
    kernel = model.kernel
    engine = CanonicalEngine(model)
    # the data joint the conditionals see, attribute equations included
    independent = definition is DefinitionId.INDEPENDENT_BAYESIAN0
    if independent and not engine.base_joint().factors_as_product():
        raise NotAProductDistribution(
            "this definition requires the population to factor as an exact "
            "product over the data points"
        )

    if definition is DefinitionId.STRONG_ADVERSARY_ONE_DIST:
        bound, skipped = neighbour_sweep(kernel, engine.output_conditioned_on_db)
        reduction = (
            "conditional on each realizable database, compared across "
            "databases at point distance at most one"
        )
    else:
        bound, skipped = value_sweep(kernel, engine.output_conditioned_on_point)
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
    model: CanonicalModel,
    target_ratio: Ratio,
    cross_check: bool = True,
) -> CheckReport:
    """Compare interventional output distributions under the model's population.

    Interventions are defined for every domain value, including ones the
    population never produces, so no comparison is ever skipped.
    """
    definition = DefinitionId(definition)
    if definition not in CAUSAL_GIVEN_P:
        raise DomainMismatch(f"{definition.value} is not a per-population "
                             f"interventional definition")
    kernel = model.kernel
    engine = CanonicalEngine(model, cross_check)

    if definition is DefinitionId.WHOLE_DB_INTERVENTION:
        bound, _ = neighbour_sweep(kernel, engine.output_given_db)
        reduction = "full-database interventions read kernel rows directly " \
                    "(population cannot influence them)"
    else:
        bound, _ = value_sweep(kernel, engine.output_given_point)
        reduction = (
            "single-point interventions mix kernel rows by the undisturbed "
            "marginal of the other data points"
        )
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
    """The for-all-populations interventional definitions, on one engine
    under the uniform population."""
    definition = DefinitionId(definition)
    engine = CanonicalEngine(CanonicalModel(kernel), cross_check)
    if definition is DefinitionId.WHOLE_DB_UNIVERSAL:
        # the rows ignore the population anyway
        bound, _ = neighbour_sweep(kernel, engine.output_given_db)
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

    if cross_check:
        engine.verify_point_masses()
    return finish_report(
        definition,
        target_ratio,
        classic_epsilon(kernel),
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
    model: MechanismKernel | CanonicalModel,
    target_ratio: Ratio,
    population: Dist | None = None,
    cross_check: bool = True,
) -> CheckReport:
    """Route to the right checker; the one place the population rules live.

    A definition that quantifies over populations refuses `population` and
    ignores one the model embeds; the others run on
    `model.given(population)`, which must then have a population."""
    definition = DefinitionId(definition)
    if isinstance(model, MechanismKernel):
        model = CanonicalModel(model)
    if definition in NEEDS_POPULATION:
        model = model.given(population)
        if model.population is None:
            raise MissingPopulation(f"{definition.value} needs a population distribution")
        if definition in ASSOCIATIVE_GIVEN_P:
            return check_associative(definition, model, target_ratio)
        return check_causal(definition, model, target_ratio, cross_check)
    if population is not None:
        raise UnexpectedPopulation(
            f"{definition.value} quantifies over populations; do not fix one"
        )
    if definition is DefinitionId.CLASSIC:
        return check_classic(model.kernel, target_ratio)
    if definition is DefinitionId.STRONG_ADVERSARY_UNIVERSAL:
        return check_strong_adversary_universal(model.kernel, target_ratio)
    return check_universal_causal(definition, model.kernel, target_ratio, cross_check)


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


def _grid_marginals(atoms: Sequence[Value], budget: int) -> list[tuple[int, tuple]]:
    """All distributions over `atoms` with denominator <= budget, as (q,
    numerators) over the least q, each once, in ascending-denominator,
    lexicographic-numerator order."""
    grid = []
    for q in range(1, budget + 1):
        for head in product(range(q + 1), repeat=len(atoms) - 1):
            if sum(head) <= q and math.gcd(q, *head) == 1:
                grid.append((q, (*head, q - sum(head))))
    return grid


def falsify_bayesian0(
    kernel: MechanismKernel,
    target_ratio: Ratio,
    search_budget: int = 4,
) -> FalsificationOutcome:
    """Search two population families for a bayesian0 violation.

    Family one: perfectly correlated populations (all data points equal),
    mixed over the diagonal with grid weights of denominator <= budget.
    Family two: product populations whose per-point marginals use the same
    grid.  Candidates are tried in a fixed order, each distinct population
    once, and the first failing population is returned with its report.
    """
    names = data_point_names(kernel)
    dom = kernel.data_domain
    grid = _grid_marginals(dom, search_budget)
    diagonal = (Dist(names, (q, {(v,) * kernel.n: k for v, k in zip(dom, ks) if k}))
                for q, ks in grid)
    products = (
        Dist.product(*(Dist((name,), (q, {(v,): k for v, k in zip(dom, ks) if k}))
                       for name, (q, ks) in zip(names, per_point)))
        for per_point in product(grid, repeat=kernel.n)
    )
    seen: set[tuple] = set()
    for pop in chain(diagonal, products):
        common, table = pop.integer_table
        key = (common, frozenset(table.items()))
        if key in seen:
            continue
        seen.add(key)
        report = check_associative(
            DefinitionId.BAYESIAN0, CanonicalModel(kernel, (), pop), target_ratio
        )
        if not report.passed:
            return FalsificationOutcome(
                True, report, pop, len(seen), search_budget,
                "population found in the searched family",
            )
    return FalsificationOutcome(
        False, None, None, len(seen), search_budget,
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
    `single_point_universal` intervenes on D_i alone, under the point mass on d.
    """
    definition = DefinitionId(definition)
    if definition is DefinitionId.SINGLE_POINT_UNIVERSAL:
        psem = as_sem(kernel, (), Dist.point_mass(data_point_names(kernel),
                                                  tuple(witness["d"])))
    elif definition in NEEDS_POPULATION:
        psem = as_sem(kernel, attribute_equations, population)
    else:  # the other definitions quantify over populations: the uniform one
        psem = as_sem(kernel)

    i = witness["i"]
    if "v" in witness:  # two values of data point i
        events = [{d_name(i): x} for x in (witness["v"], witness["v_prime"])]
    elif definition is DefinitionId.SINGLE_POINT_UNIVERSAL:
        events = [{d_name(i): x} for x in (witness["d"][i - 1], witness["d_prime_i"])]
    else:  # two databases, each an assignment to every data point
        d = tuple(witness["d"])
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
