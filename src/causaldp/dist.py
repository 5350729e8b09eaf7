"""Exact finite joint distributions.

A `Dist` maps assignments (tuples of values, aligned with a fixed variable
list) to positive rational weights summing to exactly one.  Zero-weight
entries are dropped at construction so equality compares supports, and all
arithmetic is exact: `fractions.Fraction`, or integers over a common
denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Union

from .errors import (
    DomainMismatch,
    InvalidDistribution,
    UnknownVariable,
    ValueOutOfDomain,
    ZeroProbabilityEvent,
    preview,
)
from .exact import Value, memoized, value_sort_key

# An event is either a {variable: value} conjunction or a predicate over
# full assignment mappings.
Event = Union[Mapping[str, Value], Callable[[Mapping[str, Value]], bool]]


def exact_row(weights: Mapping, error: type[Exception], where: str, row=None) -> dict:
    """The positive entries of an exact row.

    Every weight must be a nonnegative `Fraction` and the weights must sum to
    exactly 1; otherwise `error` is raised, its message starting with `where`
    and then, for a table row, a preview of the row's key `row`, rendered only
    on failure.  Distributions, equation rows and kernel rows all pass this
    one rule.  The sum is tested in integers: the numerators are summed per
    denominator, and over the lcm L of the distinct denominators the scaled
    sums must add up to L.
    """
    kept = {}
    sums: dict[int, int] = {}  # denominator -> sum of the numerators over it
    for key, w in weights.items():
        # one call reads both terms (the properties are two calls); anything
        # but a Fraction reads as negative and is rejected
        num, den = w.as_integer_ratio() if isinstance(w, Fraction) else (-1, 1)
        if num < 0:
            raise _row_error(error, where, row, f"weight {preview(w)} at "
                             f"{preview(key)} is not a nonnegative rational")
        if num:
            kept[key] = w
            sums[den] = sums.get(den, 0) + num
    common = math.lcm(*sums)
    if sum(total * (common // den) for den, total in sums.items()) != common:
        total = sum(weights.values(), Fraction(0))
        raise _row_error(error, where, row, f"weights sum to {total}, expected exactly 1")
    return kept


def _row_error(error: type[Exception], where: str, row, problem: str) -> Exception:
    label = where if row is None else f"{where} {preview(row)}"
    return error(f"{label}: {problem}")


def integer_weights(weights: list) -> tuple[int, list[int]] | None:
    """(L, the numerators of `weights` over L, in order), L the lcm of their
    denominators; None unless every weight is a nonnegative `Fraction`.
    Each distinct weight object is tested and converted once."""
    ids = list(map(id, weights))  # unique while `weights` holds every weight
    terms = {}
    for key, w in dict(zip(ids, weights)).items():
        if not isinstance(w, Fraction):
            return None
        num, den = terms[key] = w.as_integer_ratio()
        if num < 0:
            return None
    common = math.lcm(*{den for _, den in terms.values()})
    scaled = {key: num * (common // den) for key, (num, den) in terms.items()}
    return common, list(map(scaled.__getitem__, ids))


def check_table(table: Mapping, keys: Iterable, domain: Iterable, where: str) -> None:
    """One row per expected key, and every row value inside the domain; raises
    DomainMismatch or ValueOutOfDomain, the message starting with `where`."""
    expected = set(keys)
    if set(table) != expected:
        raise DomainMismatch(
            f"{where} must have one row per key ({len(expected)} expected, "
            f"{len(table)} given)"
        )
    allowed = set(domain)
    for key, row in table.items():
        if not allowed.issuperset(row):
            value = next(v for v in row if v not in allowed)
            raise ValueOutOfDomain(
                f"{where}, row {preview(key)}: value {preview(value)} outside domain"
            )


@dataclass(frozen=True)
class Dist:
    """A finite joint distribution with exact rational weights.

    Attributes:
      variables: the coordinate names, in declared order.
      weights: assignment tuple -> positive Fraction; sums to exactly 1.
    """

    variables: tuple[str, ...]
    weights: dict[tuple, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        width = len(self.variables)
        for point in self.weights:
            if not isinstance(point, tuple) or len(point) != width:
                raise InvalidDistribution(
                    f"assignment {preview(point)} does not match variables "
                    f"{preview(self.variables)}"
                )
        weights = exact_row(self.weights, InvalidDistribution, "distribution")
        object.__setattr__(self, "weights", weights)

    # --- constructors -----------------------------------------------------

    @staticmethod
    def point_mass(variables: Iterable[str], point: tuple) -> Dist:
        return Dist(tuple(variables), {tuple(point): Fraction(1)})

    @staticmethod
    def uniform(variables: Iterable[str], points: Iterable[tuple]) -> Dist:
        pts = [tuple(p) for p in points]
        w = Fraction(1, len(pts))
        return Dist(tuple(variables), {p: w for p in pts})

    @staticmethod
    def product(*parts: Dist) -> Dist:
        """Independent product of distributions over disjoint variables."""
        variables: tuple[str, ...] = ()
        weights: dict[tuple, Fraction] = {(): Fraction(1)}
        for part in parts:
            if set(variables) & set(part.variables):
                raise InvalidDistribution(
                    f"product factors share variables: {variables} / {part.variables}"
                )
            variables = variables + part.variables
            weights = {
                left + right: wl * wr
                for left, wl in weights.items()
                for right, wr in part.weights.items()
            }
        return Dist(variables, weights)

    # --- primitives --------------------------------------------------------

    def _index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise UnknownVariable(f"{name!r} not among {self.variables}") from None

    def _matcher(self, event: Event) -> Callable[[tuple], bool]:
        """A test on assignment tuples; a mapping's names resolve once."""
        if callable(event):
            names = self.variables
            return lambda point: bool(event(dict(zip(names, point))))
        wanted = tuple((self._index(name), want) for name, want in event.items())
        return lambda point: all(point[i] == want for i, want in wanted)

    def prob(self, event: Event) -> Fraction:
        matches = self._matcher(event)
        return sum(
            (w for point, w in self.weights.items() if matches(point)),
            Fraction(0),
        )

    def condition(self, event: Event) -> Dist:
        """Renormalize onto an event; exact; raises on probability zero."""
        matches = self._matcher(event)
        kept = {p: w for p, w in self.weights.items() if matches(p)}
        total = sum(kept.values(), Fraction(0))
        if total == 0:
            raise ZeroProbabilityEvent(f"event {event!r} has probability zero")
        return Dist(self.variables, {p: w / total for p, w in kept.items()})

    def marginal(self, names: Iterable[str]) -> Dist:
        names = tuple(names)
        idx = [self._index(n) for n in names]
        out: dict[tuple, Fraction] = {}
        for point, w in self.weights.items():
            key = tuple(point[i] for i in idx)
            out[key] = out.get(key, Fraction(0)) + w
        return Dist(names, out)

    @memoized
    def integer_marginal(self, names: tuple[str, ...]) -> tuple[int, tuple]:
        """The marginal on `names` over the weights' common denominator L:
        (L, ((point, numerator), ...)) in first-seen order.  Memoized per
        distribution and `names`, so models sharing this input distribution
        (a model and its intervened sub-models) sum it onto one set of
        coordinates once."""
        idx = [self._index(n) for n in names]
        terms = [w.as_integer_ratio() for w in self.weights.values()]
        scale = math.lcm(*{den for _, den in terms})
        out: dict[tuple, int] = {}
        for point, (num, den) in zip(self.weights, terms):
            key = tuple(point[i] for i in idx)
            out[key] = out.get(key, 0) + num * (scale // den)
        return scale, tuple(out.items())

    # --- conveniences -------------------------------------------------------

    def weight_of(self, point: tuple) -> Fraction:
        return self.weights.get(tuple(point), Fraction(0))

    def entries_sorted(self) -> list[tuple[tuple, Fraction]]:
        return sorted(
            self.weights.items(), key=lambda kv: tuple(value_sort_key(v) for v in kv[0])
        )

    def factors_as_product(self) -> bool:
        """True iff the joint equals the product of its 1-D marginals exactly:
        the same support, each point weighted by its marginals' product.

        Tested in integers over the joint's common denominator L: with J_p
        the numerator of point p and M_i those of the marginals, every
        support point must have J_p * L^n == L * prod_i M_i(p_i).  Then the
        product's mass on the joint's support is 1, so it has no mass
        elsewhere and the supports are equal.
        """
        names = self.variables
        for j, name in enumerate(names):
            if name in names[:j]:
                raise InvalidDistribution(
                    f"product factors share variables: {names[:j]} / {(name,)}")
        scale, joint = self.integer_marginal(names)
        marginals: list[dict] = [{} for _ in names]
        for point, w in joint:
            for marginal, x in zip(marginals, point):
                marginal[x] = marginal.get(x, 0) + w
        power = scale ** len(names)
        return all(
            w * power == scale * math.prod(map(dict.__getitem__, marginals, point))
            for point, w in joint
        )
