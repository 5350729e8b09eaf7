"""Curated, fully reproducible demonstration scenarios.

Each scenario bundles a model, a set of checks with explicit target ratios,
and a deterministic report.  Running a scenario twice produces byte-identical
canonical JSON, and every input object round-trips through the file dialect.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

from .brp import check_composition, compose_sequential
from .checkers import falsify_bayesian0, run_check
from .dist import Dist
from .mechanisms import (
    NEG,
    POS,
    CanonicalModel,
    geometric_count_kernel,
    hidden_pair_kernel,
    hidden_value_kernel,
    randomized_response_kernel,
)
from .modelfile import (
    CompositionSpec,
    falsification_to_json,
    input_digest,
    report_header,
    report_to_json,
    serialize_input,
)
from .reports import DefinitionId
from .sem import Sem, StochasticEquation, copy_equation, deterministic_equation

TWO = Fraction(2)
ONE = Fraction(1)


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    build: Callable[[], object]
    reports: Callable[[object], list[dict]]

    def run(self) -> dict:
        model = self.build()
        return {
            "type": "scenario_report",
            "scenario": self.name,
            "description": self.description,
            **report_header(input_digest(model)),
            "input": serialize_input(model),
            "reports": self.reports(model),
        }


def _checks(*definitions: DefinitionId, target: Fraction) -> Callable:
    """Reports of `definitions` in order, each run on the model by
    `run_check`."""

    def reports(model) -> list[dict]:
        return [report_to_json(run_check(d, model, target)) for d in definitions]

    return reports


_POPULATION_FREE_CHECKS = (
    DefinitionId.CLASSIC,
    DefinitionId.STRONG_ADVERSARY_UNIVERSAL,
    DefinitionId.WHOLE_DB_UNIVERSAL,
    DefinitionId.SINGLE_POINT_UNIVERSAL,
)
# classic, then the two conditional and the two interventional comparisons of
# databases and of data points under the given population
_HIDDEN_CHECKS = (
    DefinitionId.CLASSIC,
    DefinitionId.STRONG_ADVERSARY_ONE_DIST,
    DefinitionId.BAYESIAN0,
    DefinitionId.SINGLE_POINT_INTERVENTION,
    DefinitionId.WHOLE_DB_INTERVENTION,
)


# --- two attributes that are secretly the same -------------------------------


def _ada_byron_model() -> CanonicalModel:
    kernel = geometric_count_kernel(2, Fraction(1, 2))
    attr = (copy_equation("R_2", "R_1", kernel.data_domain),)
    population = Dist.from_weights(
        ("R_1",), {(POS,): Fraction(1, 2), (NEG,): Fraction(1, 2)}
    )
    return CanonicalModel(kernel, attr, population)


# --- randomized response -------------------------------------------------------


def _rr_model():
    return randomized_response_kernel(2, Fraction(2, 3))


def _rr_reports(kernel) -> list[dict]:
    return _checks(*_POPULATION_FREE_CHECKS, target=TWO)(kernel) + [
        falsification_to_json(falsify_bayesian0(kernel, TWO, search_budget=2))
    ]


# --- noisy count over three data points ----------------------------------------


def _geometric3_model() -> CanonicalModel:
    kernel = geometric_count_kernel(3, Fraction(1, 2))
    population = Dist.uniform(
        ("D_1", "D_2", "D_3"), product(kernel.data_domain, repeat=3)
    )
    return CanonicalModel(kernel, (), population)


# --- a pair revealed only when both points take the hidden value ----------------


def _hidden_pair_model() -> CanonicalModel:
    kernel = hidden_pair_kernel()
    population = Dist.uniform(("D_1", "D_2"), product((0, 1), repeat=2))
    return CanonicalModel(kernel, (), population)


# --- a single point revealed only at the hidden value ---------------------------


def _hidden_value_model() -> CanonicalModel:
    kernel = hidden_value_kernel()
    population = Dist.from_weights(
        ("D_1",), {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}
    )
    return CanonicalModel(kernel, (), population)


# --- two noisy stages composed ---------------------------------------------------


def _flip_rows() -> dict[tuple, dict[int, Fraction]]:
    return {
        (0,): {0: Fraction(2, 3), 1: Fraction(1, 3)},
        (1,): {0: Fraction(1, 3), 1: Fraction(2, 3)},
    }


def _composition_model() -> CompositionSpec:
    first = Sem(
        ("X", "Y1"),
        {"X": (0, 1), "Y1": (0, 1)},
        {"Y1": StochasticEquation.from_rows("Y1", ("X",), _flip_rows())},
    )
    second = Sem(
        ("X", "Y1", "Z", "Y2"),
        {"X": (0, 1), "Y1": (0, 1), "Z": (0, 1), "Y2": (0, 1, 2)},
        {
            "Z": StochasticEquation.from_rows("Z", ("X",), _flip_rows()),
            "Y2": deterministic_equation(
                "Y2", ("Y1", "Z"), [(0, 1), (0, 1)], lambda y1, z: y1 + z
            ),
        },
    )
    return CompositionSpec(first, second, "X", "Y1", "Y2", TWO, TWO)


def _composition_reports(spec: CompositionSpec) -> list[dict]:
    wired = compose_sequential(spec.first, spec.second, spec.x, spec.y1, spec.y2)
    return [report_to_json(check_composition(wired, spec.ratio1, spec.ratio2))]


SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            "ada_byron",
            "two data points that are secretly the same attribute: the "
            "noisy count passes every interventional check at ratio 2 but "
            "the conditional (associative) check blows up to 4",
            _ada_byron_model,
            _checks(
                DefinitionId.CLASSIC,
                DefinitionId.BAYESIAN0,
                DefinitionId.SINGLE_POINT_INTERVENTION,
                DefinitionId.WHOLE_DB_INTERVENTION,
                target=TWO,
            ),
        ),
        Scenario(
            "randomized_response",
            "two respondents flipping biased coins: ratio exactly 2 under "
            "the population-free checks, plus a budgeted search that finds "
            "a correlated population breaking the conditional check",
            _rr_model,
            _rr_reports,
        ),
        Scenario(
            "geometric_count_n3",
            "a three-point count with two-sided geometric noise, clamped "
            "to the valid range: ratio exactly 2 under every check, "
            "including the conditional ones under the uniform population",
            _geometric3_model,
            _checks(
                *_POPULATION_FREE_CHECKS,
                DefinitionId.BAYESIAN0,
                DefinitionId.INDEPENDENT_BAYESIAN0,
                target=TWO,
            ),
        ),
        Scenario(
            "hidden_pair",
            "an output that identifies the database only when both points "
            "take a value the population never produces: conditional "
            "checks are perfect, full-database intervention is not, and "
            "the single-point intervention stays perfect",
            _hidden_pair_model,
            _checks(*_HIDDEN_CHECKS, target=ONE),
        ),
        Scenario(
            "hidden_value",
            "the one-point version: conditional checks are perfect while "
            "every interventional check fails, separating the two notions "
            "in the other direction from hidden_pair",
            _hidden_value_model,
            _checks(*_HIDDEN_CHECKS, target=ONE),
        ),
        Scenario(
            "composition_demo",
            "a noisy bit flip followed by an input-dependent additive "
            "stage, each with ratio bound 2: the released pair meets the "
            "product bound 4 exactly",
            _composition_model,
            _composition_reports,
        ),
    )
}


def run_all() -> dict[str, dict]:
    return {name: scenario.run() for name, scenario in SCENARIOS.items()}
