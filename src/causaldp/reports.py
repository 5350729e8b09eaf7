"""Check results: ratio bounds, reports, and the definition registry."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from .exact import INF, Ratio, Value, is_infinite, ratio_le


class DefinitionId(str, Enum):
    """The privacy definitions this package can check.

    The first five compare conditional (associative) output distributions;
    the last four compare interventional ones.  `*_universal` variants
    quantify over every population distribution, the others take one as
    input.  `classic` quantifies over nothing but the mechanism itself.
    """

    CLASSIC = "classic"
    STRONG_ADVERSARY_UNIVERSAL = "strong_adversary_universal"
    STRONG_ADVERSARY_ONE_DIST = "strong_adversary_one_dist"
    BAYESIAN0 = "bayesian0"
    INDEPENDENT_BAYESIAN0 = "independent_bayesian0"
    WHOLE_DB_INTERVENTION = "whole_db_intervention"
    WHOLE_DB_UNIVERSAL = "whole_db_universal"
    SINGLE_POINT_INTERVENTION = "single_point_intervention"
    SINGLE_POINT_UNIVERSAL = "single_point_universal"


#: definitions that take a fixed population distribution as input
NEEDS_POPULATION = frozenset(
    {
        DefinitionId.STRONG_ADVERSARY_ONE_DIST,
        DefinitionId.BAYESIAN0,
        DefinitionId.INDEPENDENT_BAYESIAN0,
        DefinitionId.WHOLE_DB_INTERVENTION,
        DefinitionId.SINGLE_POINT_INTERVENTION,
    }
)

#: definitions whose population quantifier is discharged internally
POPULATION_FREE = frozenset(DefinitionId) - NEEDS_POPULATION


@dataclass(frozen=True)
class RatioBound:
    """A supremum of probability ratios: exact rational or infinity.

    `witness` is the first index tuple (in the documented enumeration order)
    attaining the supremum, or None when the supremum is the neutral 1.
    """

    value: Ratio
    witness: dict | None = None


@dataclass(frozen=True)
class CheckReport:
    """Outcome of checking one definition at one target ratio.

    Attributes:
      definition: which definition was checked.
      target_ratio: e^epsilon as an exact rational (or inf for trivial targets).
      achieved: the supremum ratio actually found.
      passed: achieved <= target_ratio.
      witness: first maximizer when achieved > 1, else None.
      skipped_comparisons: how many comparison instances were skipped because
        a positivity side condition failed (conditioning on a zero-probability
        event); always 0 under a full-support population.
      reduction: human-readable note naming how any universal quantifier was
        discharged or which closed form computed the distributions.
    """

    definition: DefinitionId
    target_ratio: Ratio
    achieved: Ratio
    passed: bool
    witness: dict | None
    skipped_comparisons: int
    reduction: str


def finish_report(
    definition: DefinitionId,
    target_ratio: Ratio,
    bound: RatioBound,
    skipped: int,
    reduction: str,
) -> CheckReport:
    return CheckReport(
        definition=definition,
        target_ratio=target_ratio,
        achieved=bound.value,
        passed=ratio_le(bound.value, target_ratio),
        witness=bound.witness,
        skipped_comparisons=skipped,
        reduction=reduction,
    )


class SupTracker:
    """Running supremum of ratios with a deterministic first witness: the
    reference fold `test_sweep_equals_the_reference_fold` checks `sweep`
    against.  No package code builds one; the benchmark traces its `offer`.

    Suprema start at the neutral 1 (every checked family compares each pair
    in both orders, so the true supremum is never below 1 when any comparison
    exists, and 1 is the correct vacuous value otherwise).
    """

    def __init__(self):
        self.value: Ratio = Fraction(1)
        self.witness: dict | None = None

    def offer(self, ratio: Ratio | None, witness: dict) -> None:
        """Fold one comparison in; None (a 0/0 comparison) is vacuous."""
        if ratio is None or is_infinite(self.value):
            return
        if is_infinite(ratio) or ratio > self.value:
            self.value = ratio
            self.witness = witness

    def bound(self) -> RatioBound:
        return RatioBound(self.value, self.witness)


def sweep(
    outputs: Sequence[Value],
    pairs: Iterable[tuple[dict | None, dict | None, dict]],
    axis: str = "o",
) -> tuple[RatioBound, int]:
    """Fold a family of comparisons into its supremum and a skipped count.

    `pairs` yields (left, right, where): two rows (value -> weight, missing
    is 0) and the comparison's index.  Every output o, in `outputs` order,
    compares left(o)/right(o) with witness {**where, axis: o}; `axis` names
    the swept values ("o" outputs, "y" sink values, "d" databases).  0/0 is
    vacuous and p/0 infinite (`ratio_divide`), the supremum starts at 1, the
    first strict maximizer wins and nothing beats infinity.  A None side (a
    conditional on a zero-probability event) skips the comparison at every
    output instead, also once the supremum is infinite.

    The running supremum is an integer pair num/den (den == 0: infinity),
    and l/r > num/den is tested as l.num*r.den*den > num*l.den*r.num, so a
    `Fraction` and a witness dict are built only for a new maximum.
    """
    # id -> (distribution, its (num, den) per output); holding the object
    # keeps its id from being reused while the sweep runs
    seen: dict[int, tuple[dict, list[tuple[int, int]]]] = {}

    def terms(dist: dict) -> list[tuple[int, int]]:
        hit = seen.get(id(dist))
        if hit is None:
            hit = seen[id(dist)] = dist, [
                dist.get(o, 0).as_integer_ratio() for o in outputs
            ]
        return hit[1]

    num, den, witness = 1, 1, None
    skipped = 0
    for left, right, where in pairs:
        if left is None or right is None:
            skipped += len(outputs)
            continue
        if left is right or den == 0:  # ratios of 1 or 0/0, or nothing beats inf
            continue
        for (ln, ld), (rn, rd), o in zip(terms(left), terms(right), outputs):
            if not rn:
                if ln:
                    num, den, witness = 1, 0, {**where, axis: o}
                    break
            elif ln * rd * den > num * ld * rn:
                num, den, witness = ln * rd, ld * rn, {**where, axis: o}
    value = Fraction(num, den) if den else INF
    return RatioBound(value, witness), skipped
