"""Bounded relative probability: interventional effect ratios.

The relative probability of an outcome with respect to a variable compares
Fr[outcome | do(var = a)] against Fr[outcome | do(var = b)].  Bounding the
worst case over outcomes and value pairs gives a privacy-style guarantee
about that variable specifically, and the bound composes multiplicatively
across a two-stage pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Union

from .dist import Dist
from .errors import InvalidEffectQuery, NotInSequence, PremiseViolated
from .exact import Ratio, Value, is_infinite, ratio_divide, ratio_le, ratio_mul
from .reports import CheckReport, RatioBound, finish_report, group_sweep
from .sem import ProbabilisticSem, Sem

Sink = Union[str, tuple]

SEQUENTIAL_COMPOSITION = "sequential_composition"


def _sink_names(model: Sem, sink: Sink, source: str) -> tuple[str, ...]:
    """The sink's variables, checked against the model and the source."""
    names = (sink,) if isinstance(sink, str) else tuple(sink)
    for name in names:
        model.domain_of(name)  # raises UnknownVariable
    if len(set(names)) != len(names):
        raise InvalidEffectQuery(f"sink {names!r} repeats a variable")
    if source in names:
        raise InvalidEffectQuery(f"source {source!r} is part of the sink")
    return names


def relative_probability(
    psem: ProbabilisticSem,
    sink: Sink,
    y: Value | tuple,
    source: str,
    x_num: Value,
    x_den: Value,
) -> tuple[Ratio, bool]:
    """One effect ratio, plus a flag marking the vacuous 0/0 case.

    A comparison where the outcome is impossible under both interventions
    constrains nothing; it counts as the neutral ratio 1 and the flag is
    True so callers can tell it apart from a genuine ratio of 1.
    """
    names = _sink_names(psem.sem, sink, source)
    event = dict(zip(names, (y,) if isinstance(sink, str) else tuple(y)))
    ratio = ratio_divide(
        *(psem.do({source: x}).lift(names).prob(event) for x in (x_num, x_den))
    )
    if ratio is None:
        return Fraction(1), True
    return ratio, False


def max_relative_probability(
    psem: ProbabilisticSem, sink: Sink, source: str
) -> RatioBound:
    """Worst-case effect ratio over all outcomes and intervention pairs.

    Interventions go through the model surgery, so the source may be any
    variable, including an input; vacuous 0/0 comparisons are neutral.  Order:
    pairs (x_num, x_den) in domain order, then y; a one-name sink's y is bare.
    The effect rows are one `group_sweep` group: each intervention's lift,
    its integer table put over the lcm of their scales.
    """
    names = _sink_names(psem.sem, sink, source)
    dom = psem.sem.domain_of(source)
    ys = list(product(*(psem.sem.domain_of(n) for n in names)))
    lifts = [psem.do({source: x}).lift(names).integer_table for x in dom]
    common = math.lcm(*(scale for scale, _ in lifts))
    rows = [[cells.get(y, 0) * (common // scale) for y in ys] for scale, cells in lifts]
    if isinstance(sink, str):
        ys = [y for (y,) in ys]
    return group_sweep(ys, [rows], ((0, a) for a in range(len(dom))),
                       lambda _, a, b: {"x_num": dom[a], "x_den": dom[b]}, "y")[0]


def brp_bound(model: Sem | ProbabilisticSem, sink: Sink, source: str) -> RatioBound:
    """Effect-ratio bound valid under every input distribution.

    Both probabilities in an effect ratio are linear in the weights of the
    joint input distribution, and a ratio of linear functionals over the
    simplex attains its supremum at a vertex, so checking the point-mass
    input distributions is exhaustive.  The first vertex whose bound is
    strictly greater, in input-domain order, gives the witness; nothing
    beats an infinite bound, so the search stops at the first.
    """
    sem = model.sem if isinstance(model, ProbabilisticSem) else model
    sem.validate()
    exo = sem.exogenous
    best = RatioBound(Fraction(1))
    for assignment in product(*(sem.domains[n] for n in exo)):
        vertex = ProbabilisticSem(sem, Dist.point_mass(exo, assignment))
        inner = max_relative_probability(vertex, sink, source)
        if not ratio_le(inner.value, best.value):
            best = RatioBound(
                inner.value, {"inputs": dict(zip(exo, assignment)), **inner.witness}
            )
            if is_infinite(best.value):
                break
    return best


@dataclass(frozen=True)
class SequentialComposition:
    """Two stage models glued along a shared input and an interface variable."""

    first: Sem
    second: Sem
    combined: Sem
    x: str
    y1: str
    y2: str


def compose_sequential(
    first: Sem, second: Sem, x: str, y1: str, y2: str
) -> SequentialComposition:
    """Glue stage one's output into stage two as its interface input.

    Requirements: both stages treat `x` as an input; `y1` is computed by the
    first stage and consumed as an input by the second; `y2` is computed by
    the second stage; apart from `x` and `y1` the stages share no names, and
    the shared variables carry identical domains.
    """
    for name, where in ((x, first), (y1, first), (x, second), (y1, second),
                        (y2, second)):
        if name not in where.names:
            raise NotInSequence(f"{name!r} missing from a stage model")
    if x not in first.exogenous or x not in second.exogenous:
        raise NotInSequence(f"{x!r} must be an input of both stages")
    if y1 not in first.endogenous:
        raise NotInSequence(f"{y1!r} must be computed by the first stage")
    if y1 not in second.exogenous:
        raise NotInSequence(f"{y1!r} must be an input of the second stage")
    if y2 not in second.endogenous:
        raise NotInSequence(f"{y2!r} must be computed by the second stage")
    shared = set(first.names) & set(second.names)
    if shared != {x, y1}:
        raise NotInSequence(
            f"stages may share only the input and the interface, got "
            f"{sorted(shared)}"
        )
    for name in (x, y1):
        if first.domain_of(name) != second.domain_of(name):
            raise NotInSequence(f"domains of {name!r} disagree across stages")
    names = first.names + tuple(n for n in second.names if n not in (x, y1))
    domains = {**first.domains,
               **{n: second.domains[n] for n in second.names if n not in (x, y1)}}
    equations = {**first.equations, **second.equations}
    combined = Sem(names, domains, equations)
    combined.validate()
    return SequentialComposition(first, second, combined, x, y1, y2)


def check_composition(
    composition: SequentialComposition, ratio1: Ratio, ratio2: Ratio
) -> CheckReport:
    """Verify both stage bounds, then the multiplicative bound on the pair.

    The claim covers the joint release of the interface value and the final
    output: its effect ratio with respect to the shared input is at most the
    product of the stage bounds.  A second stage that ignores the input
    entirely (bound 1) is pure postprocessing and adds nothing.
    """
    stage1 = brp_bound(composition.first, composition.y1, composition.x)
    if not ratio_le(stage1.value, ratio1):
        raise PremiseViolated(
            f"first stage achieves {stage1.value}, above the claimed {ratio1}"
        )
    stage2 = brp_bound(composition.second, composition.y2, composition.x)
    if not ratio_le(stage2.value, ratio2):
        raise PremiseViolated(
            f"second stage achieves {stage2.value}, above the claimed {ratio2}"
        )
    bound = brp_bound(
        composition.combined, (composition.y1, composition.y2), composition.x
    )
    return finish_report(
        SEQUENTIAL_COMPOSITION,
        ratio_mul(ratio1, ratio2),
        bound,
        skipped=0,
        reduction=(
            "stage bounds verified over all point-mass inputs, then the pair "
            "release bounded the same way against the product of the claims"
        ),
    )
