"""Exact finite joint distributions.

A `Dist` maps assignments (tuples of values, aligned with a fixed variable
list) to positive rational weights summing to exactly one, stored as one
integer table: positive numerators over their least common denominator L.
Every operation runs in those integers; a `Fraction` is built only where a
probability leaves (`prob`, `weight_of`, the derived `weights`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
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


def exact_row(weights: Mapping, error: type[Exception], where: str, row=None) -> None:
    """Raise `error` at the first weight that is not a nonnegative `Fraction`,
    else if the weights do not sum to exactly 1, the message starting with
    `where` and, for a table row, a preview of its key `row`: the wording of
    a distribution, equation row or kernel row that failed in integers."""
    for key, w in weights.items():
        if not isinstance(w, Fraction) or w < 0:
            raise _row_error(error, where, row, f"weight {preview(w)} at "
                             f"{preview(key)} is not a nonnegative rational")
    total = sum(weights.values(), Fraction(0))
    if total != 1:
        raise _row_error(error, where, row, f"weights sum to {total}, expected exactly 1")


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


def least_rows(common, rows: list[Mapping]) -> tuple[int, list[dict]] | None:
    """(L, a new dict per row) with `rows` of numerators over `common` put
    over their least L; None unless `common` is an int >= 1 and each row
    holds positive ints summing to it.  A distribution is one such row."""
    numerators = list(chain.from_iterable(row.values() for row in rows))
    if (type(common) is not int or common < 1 or not set(map(type, numerators)) <= {int}
            or min(numerators, default=1) < 1
            or any(sum(row.values()) != common for row in rows)):
        return None
    factor = math.gcd(common, *rows[0].values()) if rows else common
    if factor > 1 and len(rows) > 1:  # a row sums to L: its gcd bounds the table's
        factor = math.gcd(factor, *numerators)
    if factor > 1:
        return common // factor, [{key: p // factor for key, p in row.items()}
                                  for row in rows]
    return common, list(map(dict, rows))


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


def integer_row_error(error: type[Exception], where: str, key, row: Mapping,
                      common: int) -> None:
    """Raise the first error of a row of numerators over `common`: one that
    is not a positive int, then `exact_row`'s."""
    for value, p in row.items():
        if type(p) is not int or p < 1:
            raise _row_error(error, where, key, f"numerator {preview(p)} at "
                             f"{preview(value)} is not a positive int")
    exact_row({value: Fraction(p, common) for value, p in row.items()}, error, where, key)


def _check_points(variables: tuple[str, ...], points: Iterable) -> None:
    width = len(variables)
    if set(map(type, points)) <= {tuple} and set(map(len, points)) <= {width}:
        return
    for point in points:
        if not isinstance(point, tuple) or len(point) != width:
            raise InvalidDistribution(f"assignment {preview(point)} does not match "
                                      f"variables {preview(variables)}")


@dataclass(frozen=True)
class Dist:
    """A finite joint distribution with exact rational weights.

    Attributes:
      variables: the coordinate names, in declared order.
      integer_table: the distribution itself, (L, assignment tuple ->
        positive numerator), summing to L and stored over the least L in a
        dict of its own, so equal distributions have equal tables.  `Fraction`
        weights come in through `from_weights`.
    """

    variables: tuple[str, ...]
    integer_table: tuple[int, dict[tuple, int]]

    def __post_init__(self):
        """Check the assignments and, in integers, the table (`least_rows`);
        only a table that fails is walked, in order, to word the error."""
        common, table = self.integer_table
        _check_points(self.variables, table)
        least = least_rows(common, [table])
        if least is None:
            if type(common) is not int or common < 1:
                raise InvalidDistribution(
                    f"distribution: denominator {preview(common)} is not a positive int")
            integer_row_error(InvalidDistribution, "distribution", None, table, common)
        common, (table,) = least
        object.__setattr__(self, "integer_table", (common, table))

    # --- constructors -----------------------------------------------------

    @staticmethod
    def from_weights(variables: tuple[str, ...], weights: Mapping[tuple, Fraction]) -> Dist:
        """The distribution of `Fraction` weights, zero entries dropped, each
        distinct weight object converted once (`integer_weights`).  A bad
        assignment is reported first, then a bad weight (`exact_row`), then
        a wrong sum (the constructor)."""
        _check_points(variables, weights)
        converted = integer_weights(list(weights.values()))
        if converted is None:
            exact_row(weights, InvalidDistribution, "distribution")
        common, numerators = converted
        return Dist(variables, (common, {pt: p for pt, p in zip(weights, numerators) if p}))

    @staticmethod
    def point_mass(variables: Iterable[str], point: tuple) -> Dist:
        return Dist(tuple(variables), (1, {tuple(point): 1}))

    @staticmethod
    def uniform(variables: Iterable[str], points: Iterable[tuple]) -> Dist:
        pts = [tuple(p) for p in points]
        return Dist(tuple(variables), (len(pts), dict.fromkeys(pts, 1)))

    @staticmethod
    def product(*parts: Dist) -> Dist:
        """Independent product of distributions over disjoint variables."""
        variables: tuple[str, ...] = ()
        common, table = 1, {(): 1}
        for part in parts:
            if set(variables) & set(part.variables):
                raise InvalidDistribution(
                    f"product factors share variables: {variables} / {part.variables}")
            variables = variables + part.variables
            scale, cells = part.integer_table
            common *= scale
            table = {left + right: wl * wr
                     for left, wl in table.items() for right, wr in cells.items()}
        return Dist(variables, (common, table))

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
        common, table = self.integer_table
        return Fraction(sum(p for point, p in table.items() if matches(point)), common)

    def condition(self, event: Event) -> Dist:
        """Renormalize onto an event; exact; raises on probability zero."""
        matches = self._matcher(event)
        kept = {point: p for point, p in self.integer_table[1].items() if matches(point)}
        if not kept:
            raise ZeroProbabilityEvent(f"event {event!r} has probability zero")
        return Dist(self.variables, (sum(kept.values()), kept))

    @memoized
    def marginal(self, names: tuple[str, ...]) -> Dist:
        """The marginal on `names`, in that order, assignments in first-seen
        order.  Memoized, so a model and its sub-models sum their shared
        input distribution onto one set of coordinates once."""
        idx = [self._index(n) for n in names]
        common, table = self.integer_table
        out: dict[tuple, int] = {}
        for point, p in table.items():
            key = tuple(point[i] for i in idx)
            out[key] = out.get(key, 0) + p
        return Dist(names, (common, out))

    # --- conveniences -------------------------------------------------------

    @property
    def weights(self) -> dict[tuple, Fraction]:
        """assignment -> weight, derived on read: a `Fraction` per numerator."""
        common, table = self.integer_table
        fractions = {p: Fraction(p, common) for p in set(table.values())}
        return dict(zip(table, map(fractions.__getitem__, table.values())))

    def weight_of(self, point: tuple) -> Fraction:
        common, table = self.integer_table
        return Fraction(table.get(tuple(point), 0), common)

    def entries_sorted(self) -> list[tuple[tuple, Fraction]]:
        return sorted(
            self.weights.items(), key=lambda kv: tuple(value_sort_key(v) for v in kv[0])
        )

    def factors_as_product(self) -> bool:
        """True iff the joint equals the product of its 1-D marginals exactly:
        the same support, each point weighted by its marginals' product.

        Tested in integers over the joint's denominator L: with J_p the
        numerator of point p and M_i those of the marginals, every support
        point must have J_p * L^n == L * prod_i M_i(p_i).  Then the
        product's mass on the joint's support is 1, so it has no mass
        elsewhere and the supports are equal.
        """
        names = self.variables
        for j, name in enumerate(names):
            if name in names[:j]:
                raise InvalidDistribution(
                    f"product factors share variables: {names[:j]} / {(name,)}")
        scale, joint = self.integer_table
        marginals: list[dict] = [{} for _ in names]
        for point, w in joint.items():
            for marginal, x in zip(marginals, point):
                marginal[x] = marginal.get(x, 0) + w
        power = scale ** len(names)
        return all(
            w * power == scale * math.prod(map(dict.__getitem__, marginals, point))
            for point, w in joint.items()
        )
