"""Release mechanisms as extensional kernels, and the canonical release model.

A mechanism over n data points with finite data domain D and finite output
domain O is given extensionally: one exact output distribution per database
in D^n.  The canonical release model wires a kernel into a structural model

    R_i -> D_i -> D -> O

where R_i are the true inputs (exogenous unless an attribute equation ties
one to others), D_i := R_i are the data points handed to the mechanism,
D := (D_1, ..., D_n) collects them, and O applies the kernel.  Data points
never influence one another; correlations between them can only come from
the R side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, wraps
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Iterator, Sequence

from .dist import Dist
from .errors import (
    BiasOutOfRange,
    DomainMismatch,
    RatioOutOfRange,
    UnknownVariable,
    ValueOutOfDomain,
)
from .exact import Value
from .reports import RatioBound, sweep
from .sem import (
    ProbabilisticSem,
    Sem,
    StochasticEquation,
    copy_equation,
    deterministic_equation,
)

POS, NEG, NULL = "pos", "neg", "null"
RESPONDENT_DOMAIN: tuple[str, ...] = (POS, NEG, NULL)

DB_VAR = "D"
OUTPUT_VAR = "O"


def r_name(i: int) -> str:
    """Name of the i-th true input (1-based)."""
    return f"R_{i}"


def d_name(i: int) -> str:
    """Name of the i-th data point (1-based)."""
    return f"D_{i}"


def data_point_names(kernel: MechanismKernel) -> tuple[str, ...]:
    return tuple(d_name(i) for i in range(1, kernel.n + 1))


def input_names(kernel: MechanismKernel) -> tuple[str, ...]:
    return tuple(r_name(i) for i in range(1, kernel.n + 1))


@dataclass(frozen=True)
class MechanismKernel:
    """An extensional release mechanism.

    Attributes:
      n: number of data points.
      data_domain: the per-point domain, including the designated null value.
      null_value: the domain member standing for a missing/absent point; each
        mechanism defines how it treats nulls.
      output_domain: the mechanism's output values, in report order.
      table: database tuple -> {output: positive weight}; one row per database
        in data_domain^n, each summing to exactly 1 (zero entries dropped).
    """

    n: int
    data_domain: tuple[Value, ...]
    null_value: Value
    output_domain: tuple[Value, ...]
    table: dict[tuple, dict[Value, Fraction]]

    def __post_init__(self):
        if self.n < 1:
            raise DomainMismatch("a mechanism needs at least one data point")
        if len(set(self.data_domain)) != len(self.data_domain) or not self.data_domain:
            raise DomainMismatch("data domain must be nonempty without duplicates")
        if self.null_value not in self.data_domain:
            raise ValueOutOfDomain(
                f"null value {self.null_value!r} missing from data domain"
            )
        if len(set(self.output_domain)) != len(self.output_domain) or not self.output_domain:
            raise DomainMismatch("output domain must be nonempty without duplicates")
        expected = set(product(self.data_domain, repeat=self.n))
        if set(self.table) != expected:
            raise DomainMismatch(
                f"kernel table must have one row per database "
                f"({len(expected)} expected, {len(self.table)} given)"
            )
        outs = set(self.output_domain)
        cleaned: dict[tuple, dict[Value, Fraction]] = {}
        for db, row in self.table.items():
            total = Fraction(0)
            kept: dict[Value, Fraction] = {}
            for o, w in row.items():
                if o not in outs:
                    raise ValueOutOfDomain(f"row {db!r} mentions unknown output {o!r}")
                if not isinstance(w, Fraction) or w < 0:
                    raise DomainMismatch(
                        f"row {db!r}: weight {w!r} is not a nonnegative rational"
                    )
                total += w
                if w > 0:
                    kept[o] = w
            if total != 1:
                raise DomainMismatch(f"row {db!r} sums to {total}, expected 1")
            cleaned[db] = kept
        object.__setattr__(self, "table", cleaned)

    def databases(self) -> Iterator[tuple]:
        """All databases in lexicographic (domain declaration) order."""
        return product(self.data_domain, repeat=self.n)

    def row(self, db: tuple) -> dict[Value, Fraction]:
        try:
            return self.table[tuple(db)]
        except KeyError:
            raise ValueOutOfDomain(f"{db!r} is not a database over the domain") from None

    @cached_property
    def _canonical_sem(self) -> Sem:
        """The canonical release model without attribute equations, built and
        validated once: it does not depend on the population."""
        sem = _build_canonical_sem(self)
        sem.validate()
        return sem


# --- concrete mechanisms ----------------------------------------------------


def randomized_response_kernel(n: int, truth_bias: Fraction) -> MechanismKernel:
    """Per-respondent randomized response over {pos, neg, null}.

    Each respondent with a pos/neg truth reports it with probability
    `truth_bias` and the opposite value otherwise.  A null truth carries no
    signal: the respondent answers with a fair coin, so every report vector
    is possible for every database and the worst-case ratio stays at
    truth_bias/(1-truth_bias).  The kernel output is the full report vector.
    """
    q = Fraction(truth_bias)
    if not Fraction(1, 2) < q < 1:
        raise BiasOutOfRange(f"truth bias must satisfy 1/2 < q < 1, got {q}")
    channel = {
        POS: {POS: q, NEG: 1 - q},
        NEG: {POS: 1 - q, NEG: q},
        NULL: {POS: Fraction(1, 2), NEG: Fraction(1, 2)},
    }
    outputs = tuple(product((POS, NEG), repeat=n))
    table: dict[tuple, dict[Value, Fraction]] = {}
    for db in product(RESPONDENT_DOMAIN, repeat=n):
        row: dict[Value, Fraction] = {}
        for report in outputs:
            w = Fraction(1)
            for truth, rep in zip(db, report):
                w *= channel[truth][rep]
            row[report] = w
        table[db] = row
    return MechanismKernel(n, RESPONDENT_DOMAIN, NULL, outputs, table)


def geometric_count_kernel(n: int, noise_ratio: Fraction) -> MechanismKernel:
    """Noisy count of positive entries with two-sided geometric noise.

    The true count c is the number of `pos` entries (nulls count as absent).
    Noise Z has P(Z = k) proportional to noise_ratio^|k|; the reported value
    is c + Z with all mass below 0 collected on 0 and all mass above n on n,
    so the output domain is {0, ..., n}.  Boundary cells absorb the exact
    geometric tails:

        P(O = 0 | c) = r^c / (1+r)            (c >= 1;  1/(1+r) when c = 0)
        P(O = o | c) = (1-r)/(1+r) * r^|o-c|  (0 < o < n)
        P(O = n | c) = r^(n-c) / (1+r)        (c <= n-1; 1/(1+r) when c = n)

    Neighboring databases change the count by at most one, so the worst-case
    output ratio is exactly 1/noise_ratio.
    """
    r = Fraction(noise_ratio)
    if not 0 < r < 1:
        raise RatioOutOfRange(f"noise ratio must satisfy 0 < r < 1, got {r}")
    rows: dict[int, dict[Value, Fraction]] = {}
    for c in range(n + 1):
        row: dict[Value, Fraction] = {}
        for o in range(n + 1):
            if o == 0:
                row[o] = (r**c if c > 0 else Fraction(1)) / (1 + r)
            elif o == n:
                row[o] = (r ** (n - c) if c < n else Fraction(1)) / (1 + r)
            else:
                row[o] = (1 - r) / (1 + r) * r ** abs(o - c)
        rows[c] = row
    table: dict[tuple, dict[Value, Fraction]] = {}
    for db in product(RESPONDENT_DOMAIN, repeat=n):
        c = sum(1 for x in db if x == POS)
        table[db] = dict(rows[c])
    return MechanismKernel(n, RESPONDENT_DOMAIN, NULL, tuple(range(n + 1)), table)


def hidden_pair_kernel() -> MechanismKernel:
    """Two data points over {0, 1, 2}; the database (2, 2) answers 0 for sure,
    every other database answers a fair coin over {0, 1}.

    Under any population that never produces the value 2, every single-point
    intervention leaves the output a fair coin, yet the mechanism has no
    finite worst-case ratio: the counterexample separating per-point
    interventional privacy from the classic definition.
    """
    dom = (0, 1, 2)
    fair = {0: Fraction(1, 2), 1: Fraction(1, 2)}
    table = {
        db: ({0: Fraction(1)} if db == (2, 2) else dict(fair))
        for db in product(dom, repeat=2)
    }
    return MechanismKernel(2, dom, 0, (0, 1), table)


def hidden_value_kernel() -> MechanismKernel:
    """One data point over {0, 1, 2}; inputs 0 and 1 answer a fair coin,
    input 2 answers 0 for sure.

    Under a population that never takes the value 2, all comparisons between
    realizable databases are exactly 1, yet the classic ratio is infinite:
    the counterexample separating the fixed-population adversary definition
    from the classic one.
    """
    dom = (0, 1, 2)
    fair = {0: Fraction(1, 2), 1: Fraction(1, 2)}
    table = {(0,): dict(fair), (1,): dict(fair), (2,): {0: Fraction(1)}}
    return MechanismKernel(1, dom, 0, (0, 1), table)


def constant_kernel(
    n: int,
    data_domain: Sequence[Value],
    null_value: Value,
    output_domain: Sequence[Value],
    row: dict[Value, Fraction],
) -> MechanismKernel:
    """A mechanism that ignores its input: every database gets `row`."""
    table = {db: dict(row) for db in product(tuple(data_domain), repeat=n)}
    return MechanismKernel(
        n, tuple(data_domain), null_value, tuple(output_domain), table
    )


# --- comparison families ------------------------------------------------------

Row = dict[Value, Fraction]


def neighbours(kernel: MechanismKernel, output_of: Callable) -> Iterator[tuple]:
    """Comparisons of databases d, d' differing at most at one point, for
    `sweep`: coordinate i ascending, database d lexicographic, replacement
    value in domain order.  Both orders of every pair are enumerated."""
    for i in range(kernel.n):
        for d in kernel.databases():
            left = output_of(d)
            for v_prime in kernel.data_domain:
                d_prime = d[:i] + (v_prime,) + d[i + 1 :]
                yield left, output_of(d_prime), {"i": i + 1, "d": d, "d_prime_i": v_prime}


def value_pairs(kernel: MechanismKernel, output_of: Callable) -> Iterator[tuple]:
    """Comparisons of two values v, v' of one data point i (1-based), for
    `sweep`: i ascending, then v and v' in domain order."""
    for i in range(1, kernel.n + 1):
        dists = {v: output_of(i, v) for v in kernel.data_domain}
        for v in kernel.data_domain:
            for v_prime in kernel.data_domain:
                yield dists[v], dists[v_prime], {"i": i, "v": v, "v_prime": v_prime}


def classic_epsilon(kernel: MechanismKernel) -> RatioBound:
    """Supremum of row(d)(o) / row(d')(o) over single-point changes d -> d'.

    Conventions: 0/0 comparisons are vacuous; positive/0 is infinite.  The
    witness is the first maximizer in `neighbours` order, output in report
    order; the supremum is symmetric and at least 1.
    """
    return sweep(kernel.output_domain, neighbours(kernel, kernel.table.__getitem__))[0]


# --- the canonical release model ---------------------------------------------


@dataclass(frozen=True)
class CanonicalModel:
    """A kernel wired into the release graph R_i -> D_i -> D -> O.

    Attributes:
      kernel: the release mechanism.
      attribute_equations: equations among the true inputs R_i (for example,
        one person's attribute being a deterministic copy of another's);
        their targets become endogenous.
      population: distribution over the remaining (exogenous) R_i.
    """

    kernel: MechanismKernel
    attribute_equations: tuple[StochasticEquation, ...] = ()
    population: Dist | None = None


def as_sem(
    kernel: MechanismKernel,
    attribute_equations: Iterable[StochasticEquation] = (),
    exogenous_dist: Dist | None = None,
) -> ProbabilisticSem:
    """Build the canonical release model for a kernel.

    `attribute_equations` may only relate R variables to R variables; the
    data points keep their identity equations D_i := R_i, so no data point
    ever influences another.  `exogenous_dist` must cover exactly the R
    variables left without an equation, in index order (with no attribute
    equations a joint over D_1..D_n names the same inputs); it defaults to
    the uniform one.  This is the one place a population is renamed or
    defaulted.  The population-free part of the model is built once per
    kernel and shared by every call.
    """
    attr = tuple(attribute_equations)
    r_names = [r_name(i) for i in range(1, kernel.n + 1)]
    allowed = set(r_names)
    for eq in attr:
        if eq.target not in allowed:
            raise UnknownVariable(
                f"attribute equation targets {eq.target!r}; only true inputs "
                f"{r_names} may be constrained"
            )
        bad = [p for p in eq.parents if p not in allowed]
        if bad:
            raise UnknownVariable(
                f"attribute equation for {eq.target!r} uses non-input parents {bad}"
            )
    targets = [eq.target for eq in attr]
    if len(set(targets)) != len(targets):
        raise DomainMismatch(f"duplicate attribute equations for {targets}")

    sem = kernel._canonical_sem
    if attr:
        equations = {eq.target: eq for eq in attr}
        equations.update(sem.equations)
        sem = Sem(sem.names, sem.domains, equations)
    exo = sem.exogenous
    if exogenous_dist is None:
        exogenous_dist = Dist.uniform(exo, product(kernel.data_domain, repeat=len(exo)))
    elif not attr and exogenous_dist.variables == data_point_names(kernel):
        exogenous_dist = Dist(exo, exogenous_dist.weights)
    psem = ProbabilisticSem(sem, exogenous_dist)
    psem.validate()
    return psem


def _build_canonical_sem(kernel: MechanismKernel) -> Sem:
    n = kernel.n
    r_names = [r_name(i) for i in range(1, n + 1)]
    d_names = [d_name(i) for i in range(1, n + 1)]
    names = tuple(r_names + d_names + [DB_VAR, OUTPUT_VAR])
    db_domain = tuple(product(kernel.data_domain, repeat=n))
    domains: dict[str, tuple[Value, ...]] = {}
    for v in r_names + d_names:
        domains[v] = kernel.data_domain
    domains[DB_VAR] = db_domain
    domains[OUTPUT_VAR] = kernel.output_domain

    equations: dict[str, StochasticEquation] = {}
    for i in range(1, n + 1):
        equations[d_name(i)] = copy_equation(d_name(i), r_name(i), kernel.data_domain)
    equations[DB_VAR] = deterministic_equation(
        DB_VAR, d_names, [kernel.data_domain] * n, lambda *vals: tuple(vals)
    )
    equations[OUTPUT_VAR] = StochasticEquation(
        OUTPUT_VAR, (DB_VAR,), {(db,): dict(kernel.table[db]) for db in db_domain}
    )
    return Sem(names, domains, equations)


def _memoized(query):
    """Memoize an engine query per engine, keyed by its name and arguments."""

    @wraps(query)
    def memo(self, *args):
        key = (query.__name__, *args)
        if key not in self._memo:
            self._memo[key] = query(self, *args)
        return self._memo[key]

    return memo


class CanonicalEngine:
    """Conditional and interventional output distributions of a canonical model.

    O depends on the data only through D, so every answer mixes kernel rows,
    and the associative and causal readings differ only in the mixing
    weights.  Given the whole database, both read its kernel row (the
    conditional only where the database has positive probability).  Given
    one point D_i = v, conditioning weighs the other points by their joint
    given D_i = v, while intervening weighs them by their undisturbed
    marginal.  The weights come from `base_joint`, the joint of the data
    points that the population and attribute equations induce.

    With `cross_check` every interventional answer is also recomputed by the
    `sem` oracle, which enumerates the output's ancestors in the intervened
    model and never calls a closed form, and must match exactly.  Conditional
    answers meet the oracle in the property tests and in witness replay.

    Externally pure: caches only memoize exact results.
    """

    def __init__(
        self,
        kernel: MechanismKernel,
        population: Dist | None = None,
        attribute_equations: Iterable[StochasticEquation] = (),
        cross_check: bool = False,
    ):
        self.kernel = kernel
        self.psem = as_sem(kernel, attribute_equations, population)
        self.cross_check = cross_check
        self.cross_checks_done = 0
        self._memo: dict[tuple, object] = {}

    @_memoized
    def base_joint(self) -> Dist:
        """The joint of D_1..D_n; lifts only the data points."""
        return self.psem.lift(data_point_names(self.kernel))

    def _enumerated(self, interventions: list[tuple[str, Value]]) -> Row:
        model = self.psem
        for name, value in interventions:
            model = model.intervene(name, value)
        out = model.lift((OUTPUT_VAR,))
        return {point[0]: w for point, w in out.weights.items()}

    def _verify(self, fast: Row, interventions) -> None:
        if not self.cross_check:
            return
        slow = self._enumerated(interventions)
        for o in self.kernel.output_domain:
            if fast.get(o, Fraction(0)) != slow.get(o, Fraction(0)):
                raise RuntimeError(
                    f"closed form disagrees with enumeration under "
                    f"do({interventions}) at output {o!r}: "
                    f"{fast.get(o)} vs {slow.get(o)}"
                )
        self.cross_checks_done += 1

    def _check_point(self, i: int, v: Value) -> None:
        if not 1 <= i <= self.kernel.n:
            raise ValueOutOfDomain(f"point index {i} out of range 1..{self.kernel.n}")
        if v not in self.kernel.data_domain:
            raise ValueOutOfDomain(f"{v!r} not in the data domain")

    @_memoized
    def _point_weights(self, i: int) -> tuple[dict, dict]:
        """The other points' marginal, and their joint grouped by D_i's value."""
        others: dict[tuple, Fraction] = {}
        by_value: dict[Value, dict[tuple, Fraction]] = {}
        for db, w in self.base_joint().weights.items():
            rest = db[: i - 1] + db[i:]
            others[rest] = others.get(rest, Fraction(0)) + w
            by_value.setdefault(db[i - 1], {})[rest] = w
        return others, by_value

    def _mix(self, i: int, v: Value, weights: dict[tuple, Fraction]) -> Row:
        """Kernel rows of the databases with D_i = v, mixed by weights on the
        other points."""
        out: Row = {}
        for rest, w in weights.items():
            for o, p in self.kernel.table[rest[: i - 1] + (v,) + rest[i - 1 :]].items():
                out[o] = out.get(o, Fraction(0)) + w * p
        return out

    @_memoized
    def output_given_db(self, db: tuple) -> Row:
        """Fr[O | do(D_1 = db_1, ..., D_n = db_n)]: the kernel row itself,
        for every population and every attribute equation."""
        fast = dict(self.kernel.row(db))
        self._verify(fast, [(d_name(k + 1), db[k]) for k in range(self.kernel.n)])
        return fast

    @_memoized
    def output_conditioned_on_db(self, db: tuple) -> Row | None:
        """Fr[O | D = db]: the kernel row, or None when P(D = db) = 0."""
        row = self.kernel.row(db)
        return row if self.base_joint().weight_of(db) > 0 else None

    @_memoized
    def output_given_point(self, i: int, v: Value) -> Row:
        """Fr[O | do(D_i = v)] (i is 1-based): kernel rows mixed by the
        marginal of the other data points, which the intervention does not
        disturb."""
        self._check_point(i, v)
        fast = self._mix(i, v, self._point_weights(i)[0])
        self._verify(fast, [(d_name(i), v)])
        return fast

    @_memoized
    def output_conditioned_on_point(self, i: int, v: Value) -> Row | None:
        """Fr[O | D_i = v]: kernel rows mixed by the joint of the other data
        points given D_i = v, or None when P(D_i = v) = 0."""
        self._check_point(i, v)
        given = self._point_weights(i)[1].get(v)
        if given is None:
            return None
        total = sum(given.values())
        return self._mix(i, v, {rest: w / total for rest, w in given.items()})
