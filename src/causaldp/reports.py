"""Check results: ratio bounds, reports, and the definition registry."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

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
    pair-by-pair reference fold the property tests check `group_sweep`
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


def group_sweep(
    outputs: Sequence[Value],
    groups: Iterable[Sequence[Sequence[int] | None]],
    walk: Iterable[tuple[int, int]],
    witness: Callable[[int, int, int], dict],
    axis: str,
) -> tuple[RatioBound, int]:
    """Fold a family of comparisons that falls into groups into its supremum
    and a skipped count.

    `groups` yields lists of rows: a row holds a distribution's numerators
    in `outputs` order over a denominator its group shares, or is None (a
    conditional on a zero-probability event).  Each ordered pair (left,
    right) of a group's rows compares left[j]/right[j] at each column j, in
    the order `walk` gives as (group index, left index), then right in group
    order, then j.  0/0 is vacuous and p/0 infinite, the supremum starts at
    1, the first strict maximizer wins and its witness is `witness(group,
    left, right)` plus {axis: outputs[j]}; `axis` names the swept values
    ("o" outputs, "y" sink values, "d" databases).  A group of m rows, k of
    them not None, skips |outputs| * (m^2 - k^2) comparisons.

    A group's largest ratio at j is its column maximum over its column
    minimum.  So the first pass reads every group, in order, and takes the
    supremum from the columns until it is infinite; the second walks the
    comparisons, tests only the columns where a group attains the supremum
    and builds the witness at the first that does: the comparison a
    strict-improvement fold ends on.
    """
    def extremes(present: list) -> Iterator[tuple[int, int]]:
        """(maximum, minimum) of each column of two or more rows."""
        return zip(map(max, *present), map(min, *present))

    width = len(outputs)
    groups = list(groups)
    num, den, skipped = 1, 1, 0  # the supremum num/den, den == 0 for infinity
    for rows in groups:
        present = [row for row in rows if row is not None]
        skipped += width * (len(rows) ** 2 - len(present) ** 2)
        if not den or len(present) < 2:
            continue
        for hi, lo in extremes(present):
            if not lo:
                if hi:
                    num, den = 1, 0
                    break
            elif hi * den > num * lo:
                num, den = hi, lo
    if (num, den) == (1, 1):
        return RatioBound(Fraction(1)), skipped

    def attains(left: int, right: int) -> bool:
        """Whether left/right is the supremum."""
        return bool(left and not right if not den else right and left * den == num * right)

    hot: dict[int, list[int]] = {}  # group -> the columns where it attains it
    for g, a in walk:
        rows = groups[g]
        columns = hot.get(g)
        if columns is None:
            present = [row for row in rows if row is not None]
            columns = hot[g] = [] if len(present) < 2 else [
                j for j, pair in enumerate(extremes(present)) if attains(*pair)]
        left = rows[a]
        if left is None or not columns:
            continue
        for b, right in enumerate(rows):
            for j in columns if right is not None else ():
                if attains(left[j], right[j]):
                    return RatioBound(Fraction(num, den) if den else INF,
                                      {**witness(g, a, b), axis: outputs[j]}), skipped
    raise AssertionError("a supremum above 1 is attained by some comparison")
