"""Shared test fixtures: seeded random model generators and the acceptance
summary hook that prints one line per acceptance criterion at the end of the
run."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import settings
from hypothesis import strategies as st

import causaldp as c

# Properties run the same examples on every run and stay inside the suite's
# time budget; the exact oracle has no timing-dependent behaviour to catch.
settings.register_profile(
    "causaldp", derandomize=True, deadline=None, max_examples=60, database=None
)
settings.load_profile("causaldp")

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def acceptance():
    """Record one pass/fail line for an acceptance criterion, then assert it."""

    def record(criterion: str, passed: bool, detail: str = ""):
        status = "PASS" if passed else "FAIL"
        line = f"[{status}] {criterion}"
        if detail:
            line += f" :: {detail}"
        _ACCEPTANCE_LINES.append(line)
        assert passed, line

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# --- seeded generators ----------------------------------------------------------


def random_kernel(
    rng: random.Random,
    n: int,
    dom_size: int,
    out_size: int,
    full_support: bool = False,
) -> c.MechanismKernel:
    """A random extensional kernel with exact rational rows."""
    dom = tuple(range(dom_size))
    outs = tuple(f"o{j}" for j in range(out_size))
    table = {}
    for db in product(dom, repeat=n):
        lo = 1 if full_support else 0
        weights = [rng.randint(lo, 5) for _ in range(out_size)]
        if sum(weights) == 0:
            weights[rng.randrange(out_size)] = 1
        total = sum(weights)
        table[db] = {o: Fraction(w, total) for o, w in zip(outs, weights) if w}
    return c.MechanismKernel.from_table(n, dom, dom[0], outs, table)


def kernel_table(kernel: c.MechanismKernel) -> dict:
    """database -> {output: positive weight}: every row of the kernel as a
    `Fraction` row, in `databases()` order."""
    return {db: dict(kernel.row(db)) for db in kernel.databases()}


def unchecked_dist(variables: tuple, integer_table: tuple) -> c.Dist:
    """A `Dist` holding `integer_table` as given, past the constructor's
    checks: the lift of a broken oracle, whose cells need not sum to their
    scale."""
    dist = object.__new__(c.Dist)
    object.__setattr__(dist, "variables", tuple(variables))
    object.__setattr__(dist, "integer_table", integer_table)
    return dist


def random_population(
    rng: random.Random,
    kernel: c.MechanismKernel,
    full_support: bool = True,
) -> c.Dist:
    """A random joint population over the kernel's data points."""
    names = c.data_point_names(kernel)
    atoms = list(product(kernel.data_domain, repeat=kernel.n))
    lo = 1 if full_support else 0
    weights = [rng.randint(lo, 5) for _ in atoms]
    if sum(weights) == 0:
        weights[rng.randrange(len(atoms))] = 1
    total = sum(weights)
    return c.Dist.from_weights(
        names,
        {a: Fraction(w, total) for a, w in zip(atoms, weights) if w},
    )


def random_stage_rows(
    rng: random.Random,
    parent_doms: list[tuple],
    out_dom: tuple,
    full_support: bool = False,
) -> dict:
    rows = {}
    for key in product(*parent_doms):
        lo = 1 if full_support else 0
        weights = [rng.randint(lo, 4) for _ in out_dom]
        if sum(weights) == 0:
            weights[rng.randrange(len(out_dom))] = 1
        total = sum(weights)
        rows[key] = {
            v: Fraction(w, total) for v, w in zip(out_dom, weights) if w
        }
    return rows


def random_two_stage(rng: random.Random, postprocessing: bool = False,
                     full_support: bool = False):
    """A random two-stage pipeline glued on X and interface Y1."""
    x_dom = (0, 1)
    y1_dom = tuple(range(rng.choice((2, 3))))
    y2_dom = tuple(range(rng.choice((2, 3))))
    first = c.Sem(
        ("X", "Y1"),
        {"X": x_dom, "Y1": y1_dom},
        {
            "Y1": c.StochasticEquation.from_rows(
                "Y1", ("X",), random_stage_rows(rng, [x_dom], y1_dom, full_support)
            )
        },
    )
    if postprocessing:
        eq = c.StochasticEquation.from_rows(
            "Y2", ("Y1",), random_stage_rows(rng, [y1_dom], y2_dom, full_support)
        )
    else:
        eq = c.StochasticEquation.from_rows(
            "Y2",
            ("X", "Y1"),
            random_stage_rows(rng, [x_dom, y1_dom], y2_dom, full_support),
        )
    second = c.Sem(
        ("X", "Y1", "Y2"),
        {"X": x_dom, "Y1": y1_dom, "Y2": y2_dom},
        {"Y2": eq},
    )
    return first, second


# --- hypothesis draws -------------------------------------------------------------


def _weights(draw, size: int) -> list[Fraction]:
    raw = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    if sum(raw) == 0:
        raw[draw(st.integers(0, size - 1))] = 1
    return [Fraction(w, sum(raw)) for w in raw]


def _population(draw, names: tuple, kernel: c.MechanismKernel) -> c.Dist:
    """A joint over `names` on the data domain; weights may be zero, so
    some databases (or values of a point) can have probability zero."""
    points = list(product(kernel.data_domain, repeat=len(names)))
    return c.Dist.from_weights(names, dict(zip(points, _weights(draw, len(points)))))
