"""Release mechanisms as extensional kernels, and the canonical release model.

A mechanism over n data points with finite data domain D and finite output
domain O is given extensionally: one exact output distribution per database
in D^n.  The canonical release model wires a kernel into a structural model

    R_i -> D_i -> O

where R_i are the true inputs (exogenous unless an attribute equation ties
one to others), D_i := R_i are the data points handed to the mechanism, and
O applies the kernel to the database (D_1, ..., D_n).  Data points never
influence one another; correlations between them can only come from the R
side.

A kernel is its integer table: every row over one common denominator L, as
the row's numerators in output order.  The builtins build those integers
directly; a `Fraction` table comes in through `MechanismKernel.from_table`,
which converts each distinct weight object once (`dist.integer_weights`).
Either way the constructor checks the integers.  `MechanismKernel.row`
reads a row as `Fraction` weights, and the canonical model's O equation is
the integer table itself, keyed by the same databases.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain, compress, product
from operator import add
from typing import Callable, Iterable, Iterator, Sequence

from .dist import Dist, check_table, exact_row, integer_weights
from .errors import (
    BiasOutOfRange,
    CrossCheckMismatch,
    DomainMismatch,
    RatioOutOfRange,
    UnknownVariable,
    ValidationError,
    ValueOutOfDomain,
    preview,
)
from .exact import Value, memoized
from .reports import RatioBound, group_sweep
from .sem import (
    ProbabilisticSem,
    Sem,
    StochasticEquation,
    copy_equation,
)

POS, NEG, NULL = "pos", "neg", "null"
RESPONDENT_DOMAIN: tuple[str, ...] = (POS, NEG, NULL)

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


def _require_points(n: int) -> None:
    if n < 1:
        raise DomainMismatch("a mechanism needs at least one data point")


def _check_domains(n: int, data_domain: tuple, null_value: Value,
                   output_domain: tuple) -> None:
    _require_points(n)
    if len(set(data_domain)) != len(data_domain) or not data_domain:
        raise DomainMismatch("data domain must be nonempty without duplicates")
    if null_value not in data_domain:
        raise ValueOutOfDomain(f"null value {preview(null_value)} missing from data domain")
    if len(set(output_domain)) != len(output_domain) or not output_domain:
        raise DomainMismatch("output domain must be nonempty without duplicates")


@dataclass(frozen=True)
class MechanismKernel:
    """An extensional release mechanism.

    Attributes:
      n: number of data points.
      data_domain: the per-point domain, including the designated null value.
      null_value: the domain member standing for a missing/absent point; each
        mechanism defines how it treats nulls.
      output_domain: the mechanism's output values, in report order.
      integer_table: the kernel itself, (L, database -> the row's numerators
        over L in `output_domain` order, 0 for no entry), one tuple of ints
        per database in data_domain^n.  Stored in `databases()` order with L
        the lcm of the reduced weights' denominators, so equal kernels have
        equal tables.  A `Fraction` table comes in through `from_table`.
    """

    n: int
    data_domain: tuple[Value, ...]
    null_value: Value
    output_domain: tuple[Value, ...]
    integer_table: tuple[int, dict[tuple, tuple[int, ...]]]

    def __post_init__(self):
        """Check the domains, then the table in integers: one row per
        database, each a tuple of |O| nonnegative ints summing to L >= 1.
        Only a table that fails is walked row by row, in its given order, to
        word the first error."""
        _check_domains(self.n, self.data_domain, self.null_value, self.output_domain)
        common, rows = self.integer_table
        databases = list(self.databases())
        ordered = list(rows) == databases
        if not ordered:  # the key check alone, on rows without values
            check_table(dict.fromkeys(rows, ()), databases, (), "kernel table")
        if type(common) is not int or common < 1:
            raise DomainMismatch(
                f"kernel table: denominator {preview(common)} is not a positive int")
        outputs, width = self.output_domain, len(self.output_domain)
        if (set(map(type, rows.values())) != {tuple} or set(map(len, rows.values())) != {width}
                or set(map(type, chain.from_iterable(rows.values()))) != {int}
                or min(chain.from_iterable(rows.values())) < 0
                or not all(map(common.__eq__, map(sum, rows.values())))):
            for db, row in rows.items():  # the first error: a shape, a sign or a sum
                if type(row) is not tuple or len(row) != width or set(map(type, row)) != {int}:
                    raise DomainMismatch(f"kernel row {preview(db)}: expected {width} int "
                                         f"numerators, got {preview(row)}")
                exact_row({o: Fraction(p, common) for o, p in zip(outputs, row)},
                          DomainMismatch, "kernel row", db)
        factor = math.gcd(*next(iter(rows.values())))  # a row sums to L, so g | L
        if factor > 1:
            factor = math.gcd(factor, *chain.from_iterable(rows.values()))
        rows = ({db: tuple(p // factor for p in rows[db]) for db in databases}
                if factor > 1 or not ordered else dict(rows))  # never the caller's dict
        object.__setattr__(self, "integer_table", (common // factor, rows))

    @staticmethod
    def from_table(n: int, data_domain: tuple, null_value: Value, output_domain: tuple,
                   table: dict[tuple, dict[Value, Fraction]]) -> MechanismKernel:
        """The kernel of a `Fraction` table, database -> {output: weight},
        each row summing to exactly 1 (no entry weighs 0).  After the domain
        checks and `check_table`, one walk converts each distinct weight
        object once into dense rows; a weight of another type or sign is
        worded by `exact_row`, a wrong sum by the constructor, in `table`
        order."""
        _check_domains(n, data_domain, null_value, output_domain)
        check_table(table, product(data_domain, repeat=n), output_domain, "kernel table")
        blank = dict.fromkeys(output_domain, Fraction(0))
        converted = integer_weights(list(chain.from_iterable(
            {**blank, **row}.values() for row in table.values())))
        if converted is None:
            for db, row in table.items():
                exact_row(row, DomainMismatch, "kernel row", db)
        common, numerators = converted
        rows = dict(zip(table, zip(*[iter(numerators)] * len(output_domain))))
        return MechanismKernel(n, data_domain, null_value, output_domain, (common, rows))

    @cached_property
    def _fractions(self) -> dict[int, Fraction]:
        """numerator -> its weight over L, one object per distinct numerator."""
        common, rows = self.integer_table
        return {p: Fraction(p, common) for p in set(chain.from_iterable(rows.values()))}

    @cached_property
    def _output_index(self) -> dict[Value, int]:
        return {o: j for j, o in enumerate(self.output_domain)}

    def databases(self) -> Iterator[tuple]:
        """All databases in lexicographic (domain declaration) order."""
        return product(self.data_domain, repeat=self.n)

    def row(self, db: tuple) -> KernelRow:
        """The row of `db`, read from `integer_table`: output -> positive
        weight, in report order."""
        common, rows = self.integer_table
        try:
            return KernelRow(self, rows[tuple(db)], common)
        except KeyError:
            raise ValueOutOfDomain(
                f"{preview(db)} is not a database over the domain"
            ) from None

    @cached_property
    def _canonical_sem(self) -> Sem:
        """The canonical release model without attribute equations, built and
        validated once: it does not depend on the population."""
        sem = _build_canonical_sem(self)
        sem.validate()
        return sem

    @cached_property
    def _uniform(self) -> ProbabilisticSem:
        """The canonical release model under the uniform input, validated
        once per kernel before any intervention, so its sub-models inherit
        the checked order; every cross-checking engine on the kernel shares
        it."""
        return CanonicalModel(self).psem


class KernelRow(Mapping):
    """A kernel row over L (its `integer_table` row), or a mix of rows over
    its own denominator, as a read-only mapping, output -> positive weight
    in report order; a weight over L is the kernel's one `Fraction` for its
    numerator.  A fold reads `numerators` and `denominator` and builds no
    weight; the view equals the row's dict."""

    __slots__ = ("kernel", "numerators", "denominator")

    def __init__(self, kernel: MechanismKernel, numerators: Sequence[int],
                 denominator: int):
        self.kernel, self.numerators, self.denominator = kernel, numerators, denominator

    def __getitem__(self, o: Value) -> Fraction:
        p = self.numerators[self.kernel._output_index[o]]
        if not p:
            raise KeyError(o)
        if self.denominator == self.kernel.integer_table[0]:
            return self.kernel._fractions[p]
        return Fraction(p, self.denominator)

    def __iter__(self) -> Iterator[Value]:
        return compress(self.kernel.output_domain, self.numerators)

    def __len__(self) -> int:
        return len(self.numerators) - self.numerators.count(0)

    def __repr__(self) -> str:
        return repr(dict(self))


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
    _require_points(n)
    # A cell is q^a (1-q)^b (1/2)^c for a agreeing, b disagreeing and c null
    # coordinates, so each distinct value is built once, then put over the
    # lcm L of their denominators: cell[c][a] is its numerator over L.
    weights = [
        [q**a * (1 - q) ** (n - c - a) / 2**c for a in range(n - c + 1)]
        for c in range(n + 1)
    ]
    common = math.lcm(*(w.denominator for w in chain.from_iterable(weights)))
    cell = [[w.numerator * (common // w.denominator) for w in ws] for ws in weights]
    outputs = tuple(product((POS, NEG), repeat=n))
    # Databases and reports both vary their last coordinate fastest, so a
    # database's agreement counts with every report extend its prefix's by
    # one coordinate: (counts in report order, nulls) per prefix.
    agrees = {POS: (1, 0), NEG: (0, 1), NULL: (0, 0)}
    prefixes: dict[tuple, tuple[list[int], int]] = {(): ([0], 0)}
    for _ in range(n):
        prefixes = {
            prefix + (x,): ([a + b for a in counts for b in agrees[x]],
                            nulls + (x == NULL))
            for prefix, (counts, nulls) in prefixes.items()
            for x in RESPONDENT_DOMAIN
        }
    rows = {db: tuple(map(cell[nulls].__getitem__, counts))
            for db, (counts, nulls) in prefixes.items()}
    return MechanismKernel(n, RESPONDENT_DOMAIN, NULL, outputs, (common, rows))


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
    _require_points(n)
    weights = []  # by true count c, outputs 0..n
    for c in range(n + 1):
        row = []
        for o in range(n + 1):
            if o == 0:
                row.append((r**c if c > 0 else Fraction(1)) / (1 + r))
            elif o == n:
                row.append((r ** (n - c) if c < n else Fraction(1)) / (1 + r))
            else:
                row.append((1 - r) / (1 + r) * r ** abs(o - c))
        weights.append(row)
    common = math.lcm(*(w.denominator for w in chain.from_iterable(weights)))
    by_count = [tuple(w.numerator * (common // w.denominator) for w in row)
                for row in weights]
    rows = {db: by_count[db.count(POS)] for db in product(RESPONDENT_DOMAIN, repeat=n)}
    return MechanismKernel(n, RESPONDENT_DOMAIN, NULL, tuple(range(n + 1)), (common, rows))


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
    return MechanismKernel.from_table(2, dom, 0, (0, 1), table)


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
    return MechanismKernel.from_table(1, dom, 0, (0, 1), table)


def constant_kernel(
    n: int,
    data_domain: Sequence[Value],
    null_value: Value,
    output_domain: Sequence[Value],
    row: dict[Value, Fraction],
) -> MechanismKernel:
    """A mechanism that ignores its input: every database gets `row`."""
    table = {db: dict(row) for db in product(tuple(data_domain), repeat=n)}
    return MechanismKernel.from_table(
        n, tuple(data_domain), null_value, tuple(output_domain), table
    )


# --- comparison families ------------------------------------------------------

def neighbour_sweep(kernel: MechanismKernel,
                    output_of: Callable) -> tuple[RatioBound, int]:
    """The comparisons of databases d, d' differing at most at one point,
    folded by `group_sweep`: (supremum, skipped).  `output_of(d)` returns
    None to skip every comparison of d, and anything else (d's row, in any
    form) to keep them; only that test is read, and the rows compared are
    the kernel's `integer_table`.  The comparisons run in the order
    coordinate i ascending, database d lexicographic, replacement value v'
    in domain order, output o in report order, both orders of every pair
    included, with witness {"i", "d", "d_prime_i", "o"}; `output_of` is
    called once per database, in the order those comparisons first read it.

    At coordinate i the |D| databases that agree off it form a group.  With
    s = |D|^(n-1-i), the table falls into blocks of |D| runs of s rows, and
    group b*s + t of the coordinate holds rows (b*|D| + k)*s + t, k < |D|.
    """
    n, dom = kernel.n, kernel.data_domain
    size = len(dom)
    table = kernel.integer_table[1]
    kept = {(v,) + rest: output_of((v,) + rest) is not None
            for rest in product(dom, repeat=n - 1) for v in dom}
    rows = [row if kept[db] else None for db, row in table.items()]
    count, per = len(rows), len(rows) // size  # per: groups per coordinate
    strides = [size ** (n - 1 - i) for i in range(n)]

    def coordinate(s: int) -> Iterator[tuple]:
        """The groups at stride s: each block's runs, zipped."""
        runs = zip(*[iter(rows)] * s)
        return chain.from_iterable(zip(*block) for block in zip(*[runs] * size))

    groups = chain.from_iterable(map(coordinate, strides))
    walk = ((i * per + x // (s * size) * s + x % s, x // s % size)
            for i, s in enumerate(strides) for x in range(count))

    def witness(g: int, a: int, b: int) -> dict:
        i, r = divmod(g, per)
        block, t = divmod(r, strides[i])
        d = list(table)[(block * size + a) * strides[i] + t]
        return {"i": i + 1, "d": d, "d_prime_i": dom[b]}

    return group_sweep(kernel.output_domain, groups, walk, witness, "o")


def value_sweep(kernel: MechanismKernel,
                output_of: Callable) -> tuple[RatioBound, int]:
    """The comparisons of two values v, v' of one data point i (1-based),
    folded by `group_sweep`: (supremum, skipped).  `output_of(i, v)` returns
    the output distribution given D_i = v as a `KernelRow`, or None to skip
    its comparisons; it is called for i ascending, then v in domain order.
    The comparisons run in the order i, v, v' in domain order, output o in
    report order, with witness {"i", "v", "v_prime", "o"}.  Each i is one
    group, its rows put over the lcm of their denominators."""
    dom = kernel.data_domain

    def group(i: int) -> list:
        rows = [output_of(i, v) for v in dom]
        common = math.lcm(*(row.denominator for row in rows if row is not None))
        return [None if row is None
                else [p * (common // row.denominator) for p in row.numerators]
                for row in rows]

    return group_sweep(
        kernel.output_domain, map(group, range(1, kernel.n + 1)),
        ((i, a) for i in range(kernel.n) for a in range(len(dom))),
        lambda i, a, b: {"i": i + 1, "v": dom[a], "v_prime": dom[b]}, "o")


def classic_epsilon(kernel: MechanismKernel) -> RatioBound:
    """Supremum of row(d)(o) / row(d')(o) over single-point changes d -> d'.

    Conventions: 0/0 comparisons are vacuous; positive/0 is infinite.  The
    witness is the first maximizer in `neighbour_sweep` order, output in
    report order; the supremum is symmetric and at least 1.
    """
    return neighbour_sweep(kernel, kernel.integer_table[1].__getitem__)[0]


# --- the canonical release model ---------------------------------------------


@dataclass(frozen=True)
class CanonicalModel:
    """A kernel wired into the release graph R_i -> D_i -> O, and the
    one owner of what its inputs become, each built once per model, when
    first read, and shared by every engine and check on it.

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

    @cached_property
    def sem(self) -> Sem:
        """The validated release graph, the one place attribute equations
        are checked: they may only relate R variables to R variables, so no
        data point ever influences another.  It does not depend on the
        population; without equations it is the kernel's `_canonical_sem`."""
        attr = self.attribute_equations
        r_names = list(input_names(self.kernel))
        allowed = set(r_names)
        for eq in attr:
            if eq.target not in allowed:
                raise UnknownVariable(f"attribute equation targets {preview(eq.target)}; "
                                      f"only true inputs {r_names} may be constrained")
            bad = [p for p in eq.parents if p not in allowed]
            if bad:
                raise UnknownVariable(f"attribute equation for {preview(eq.target)} uses "
                                      f"non-input parents {preview(bad)}")
        targets = [eq.target for eq in attr]
        if len(set(targets)) != len(targets):
            raise DomainMismatch(f"duplicate attribute equations for {preview(targets)}")
        sem = self.kernel._canonical_sem
        if attr:
            equations = {**{eq.target: eq for eq in attr}, **sem.equations}
            sem = Sem(sem.names, sem.domains, equations)
            sem.validate()
        return sem

    @cached_property
    def data_joint(self) -> Dist:
        """The joint of D_1..D_n, lifted through `psem` under attribute
        equations.  Without them D_i := R_i, and this is the one place a
        population is defaulted (uniform for None), renamed (from R_1..R_n)
        and domain-checked: DomainMismatch for other variables,
        ValueOutOfDomain for a value outside the data domain."""
        kernel, population = self.kernel, self.population
        names = data_point_names(kernel)
        if self.attribute_equations:
            return self.psem.lift(names)
        if population is None:
            return Dist.uniform(names, kernel.databases())
        inputs = input_names(kernel)
        if population.variables not in (names, inputs):
            raise DomainMismatch(f"input distribution is over {preview(population.variables)}"
                                 f", model's exogenous variables are {inputs}")
        domain = set(kernel.data_domain)
        for point in population.integer_table[1]:
            for name, value in zip(inputs, point):
                if value not in domain:
                    raise ValueOutOfDomain(f"input distribution uses {preview(value)} "
                                           f"outside domain of {name!r}")
        if population.variables == names:
            return population
        return Dist(names, population.integer_table)

    @cached_property
    def psem(self) -> ProbabilisticSem:
        """`sem` under its exogenous input, validated: `data_joint` put over
        R_1..R_n, or under attribute equations the population or else the
        uniform input."""
        sem, inputs = self.sem, self.population
        exo = sem.exogenous
        if not self.attribute_equations:
            inputs = Dist(exo, self.data_joint.integer_table)
        elif inputs is None:
            inputs = Dist.uniform(exo, product(self.kernel.data_domain, repeat=len(exo)))
        psem = ProbabilisticSem(sem, inputs)
        psem.validate()
        return psem

    def validate(self) -> None:
        """Check the attribute equations and the population against the
        kernel, building only what a check would build anyway: under
        attribute equations and no population only `sem`, which the uniform
        input always fits."""
        if not self.attribute_equations:
            if self.population is not None:
                self.data_joint
        elif self.population is None:
            self.sem
        else:
            self.psem

    def given(self, population: Dist | None) -> CanonicalModel:
        """This model under `population`: itself for None; an input that
        already embeds a population takes no other.  The new model keeps a
        validated `sem`, which does not depend on the population."""
        if population is None:
            return self
        if self.population is not None:
            raise ValidationError("input already embeds a population; do not pass another")
        model = CanonicalModel(self.kernel, self.attribute_equations, population)
        if "sem" in self.__dict__:
            model.__dict__["sem"] = self.sem
        return model


def as_sem(
    kernel: MechanismKernel,
    attribute_equations: Iterable[StochasticEquation] = (),
    exogenous_dist: Dist | None = None,
) -> ProbabilisticSem:
    """The validated canonical release model of a kernel: the `psem` of its
    `CanonicalModel`, which says what the equations and population become."""
    return CanonicalModel(kernel, tuple(attribute_equations), exogenous_dist).psem


def _build_canonical_sem(kernel: MechanismKernel) -> Sem:
    """R_i -> D_i -> O, whose O equation is the kernel's integer table,
    keyed by its own databases, with zero numerators left out."""
    r_names, d_names = list(input_names(kernel)), list(data_point_names(kernel))
    common, rows = kernel.integer_table
    outputs = kernel.output_domain
    domains = {**dict.fromkeys(r_names + d_names, kernel.data_domain), OUTPUT_VAR: outputs}
    equations = {d: copy_equation(d, r, kernel.data_domain) for r, d in zip(r_names, d_names)}
    equations[OUTPUT_VAR] = StochasticEquation(OUTPUT_VAR, tuple(d_names), (common, {
        db: {o: p for o, p in zip(outputs, row) if p} for db, row in rows.items()}))
    return Sem(tuple(r_names + d_names + [OUTPUT_VAR]), domains, equations)


def _disagreement(points: Iterable[tuple[int, Value]]) -> Callable:
    """A closed form's mismatch message under do(D_j = x), (j, x) in `points`."""
    return lambda o, fast, slow: (
        f"closed form disagrees with enumeration under "
        f"do({[(d_name(j), x) for j, x in points]}) at output {o!r}: {fast} vs {slow}")


class CanonicalEngine:
    """Conditional and interventional output distributions of a canonical model.

    O's parents are D_1..D_n, so every answer mixes kernel rows, and the
    associative and causal readings differ only in the mixing weights.
    Given the whole database, both read its kernel row (the
    conditional only where the database has positive probability).  Given
    one point D_i = v, conditioning weighs the other points by their joint
    given D_i = v, while intervening weighs them by their undisturbed
    marginal.  The weights come from `base_joint`, the model's `data_joint`.

    The engine builds nothing the model owns: the structural model
    (`CanonicalModel.psem`) is built once per model, by attribute equations
    and by single-point cross-checks, and every engine on that model shares
    it.  With `cross_check` every interventional answer is also recomputed
    by the `sem` oracle, which enumerates the output's ancestors and never
    calls a closed form, and must match exactly.  Every cross-check, and
    each point mass of `verify_point_masses`, is a row of one lift
    (`_oracle_rows`); all whole-database rows come from one lift per engine.
    Conditional answers meet the oracle in the property tests and in
    witness replay.  The model is validated on construction.

    Externally pure: caches only memoize exact results.
    """

    def __init__(self, model: CanonicalModel, cross_check: bool = False):
        model.validate()
        self.model = model
        self.kernel = model.kernel
        self.cross_check = cross_check
        self.cross_checks_done = 0

    def base_joint(self) -> Dist:
        """The joint of D_1..D_n the conditionals and the mixes read."""
        return self.model.data_joint

    def _oracle_rows(self, psem: ProbabilisticSem, forced: dict,
                     sliced: tuple[str, ...], common: int) -> tuple[int, dict]:
        """One lift of (`sliced`, O) under do(`forced`), its integer table
        split into rows keyed by the `sliced` values: (scale, key -> output
        -> numerator), each row scaled by |D|^len(sliced) and put over
        scale * `common`, the denominator of the rows `_verify` compares.

        Inputs are sliced only under the uniform input, where the R_i are
        independent full-support roots and D_i := R_i, so the row at R = r
        is the model under the point mass on r (any value at an input whose
        data point is forced) under the same intervention.  Forcing
        D_1..D_n leaves O with no exogenous ancestor, so the row at
        R_1..R_n = db is what do(D_1..D_n = db) lifts to under every
        population and attribute equation.
        """
        scale, cells = psem.do(forced).lift(sliced + (OUTPUT_VAR,)).integer_table
        factor = len(self.kernel.data_domain) ** len(sliced) * common
        rows: dict[tuple, dict] = {}
        for point, w in cells.items():
            rows.setdefault(point[:-1], {})[point[-1]] = w * factor
        return scale, rows

    @cached_property
    def _db_rows(self) -> tuple[int, dict[tuple, dict]]:
        return self._oracle_rows(self.kernel._uniform, {}, input_names(self.kernel),
                                 self.kernel.integer_table[0])

    def _verify(self, common: int, fast, oracle, key, mismatch: Callable) -> None:
        """`fast`, numerators over `common` in output order (zero cells are
        no entry), must be the oracle's row at `key`, both over scale *
        `common`, else `mismatch` words the first differing output and both
        its values."""
        scale, rows = oracle
        slow = rows.get(key, {})
        outputs = self.kernel.output_domain
        if slow != {o: p * scale for o, p in zip(outputs, fast) if p}:
            ours = {o: Fraction(p, common) for o, p in zip(outputs, fast) if p}
            theirs = {o: Fraction(w, scale * common) for o, w in slow.items()}
            o = next(o for o in outputs if ours.get(o) != theirs.get(o))
            raise CrossCheckMismatch(mismatch(o, ours.get(o), theirs.get(o)))
        self.cross_checks_done += 1

    def verify_point_masses(self) -> None:
        """Check through the oracle that under the point mass on any
        database, intervening D_i = v outputs the kernel row of that
        database with v at i: every point mass is a row of the lift of
        (R_{-i}, O) under do(D_i = v), so n*|D| lifts.  Each (i, others, v)
        is compared with the kernel's integer row, in that order."""
        kernel = self.kernel
        n, dom, inputs = kernel.n, kernel.data_domain, input_names(kernel)
        common, rows = kernel.integer_table
        for i in range(1, n + 1):
            rest = inputs[: i - 1] + inputs[i:]
            lifts = {v: self._oracle_rows(kernel._uniform, {d_name(i): v}, rest, common)
                     for v in dom}
            for others in product(dom, repeat=n - 1):
                for v in dom:
                    self._verify(common, rows[others[: i - 1] + (v,) + others[i - 1 :]],
                                 lifts[v], others,
                                 lambda *_: f"point-mass reduction failed at i={i}, "
                                            f"others={others!r}, v={v!r}")

    def _check_point(self, i: int, v: Value) -> None:
        if not 1 <= i <= self.kernel.n:
            raise ValueOutOfDomain(f"point index {i} out of range 1..{self.kernel.n}")
        if v not in self.kernel.data_domain:
            raise ValueOutOfDomain(f"{preview(v)} not in the data domain")

    @memoized
    def _point_weights(self, i: int) -> tuple[dict, dict]:
        """The other points' marginal, and their joint grouped by D_i's
        value, as numerators over the data joint's common denominator."""
        joint = self.base_joint()
        others: dict[tuple, int] = {}
        by_value: dict[Value, dict[tuple, int]] = {}
        for db, w in joint.integer_table[1].items():
            rest = db[: i - 1] + db[i:]
            others[rest] = others.get(rest, 0) + w
            by_value.setdefault(db[i - 1], {})[rest] = w
        return others, by_value

    def _mix(self, i: int, v: Value, weights: dict[tuple, int]) -> KernelRow:
        """Kernel rows of the databases with D_i = v, mixed by positive
        integer weights on the other points and normalized by their total,
        as a `KernelRow` over the table's denominator times that total.  The
        sums run in integers."""
        common, rows = self.kernel.integer_table
        acc = [0] * len(self.kernel.output_domain)
        for rest, w in weights.items():
            row = rows[rest[: i - 1] + (v,) + rest[i - 1 :]]
            acc = list(map(add, acc, map(w.__mul__, row)))
        return KernelRow(self.kernel, acc, common * sum(weights.values()))

    @memoized
    def output_given_db(self, db: tuple) -> KernelRow:
        """Fr[O | do(D_1 = db_1, ..., D_n = db_n)]: the kernel row itself,
        for every population and every attribute equation."""
        fast = self.kernel.row(db)
        if self.cross_check:
            common, rows = self.kernel.integer_table
            self._verify(common, rows[db], self._db_rows, db,
                         _disagreement(enumerate(db, 1)))
        return fast

    @memoized
    def output_conditioned_on_db(self, db: tuple) -> KernelRow | None:
        """Fr[O | D_1..D_n = db]: the kernel row, or None when its
        probability is 0."""
        row = self.kernel.row(db)
        return row if db in self.base_joint().integer_table[1] else None

    @memoized
    def output_given_point(self, i: int, v: Value) -> KernelRow:
        """Fr[O | do(D_i = v)] (i is 1-based): kernel rows mixed by the
        marginal of the other data points, which the intervention does not
        disturb."""
        self._check_point(i, v)
        fast = self._mix(i, v, self._point_weights(i)[0])
        if self.cross_check:
            common = fast.denominator
            oracle = self._oracle_rows(self.model.psem, {d_name(i): v}, (), common)
            self._verify(common, fast.numerators, oracle, (), _disagreement([(i, v)]))
        return fast

    @memoized
    def output_conditioned_on_point(self, i: int, v: Value) -> KernelRow | None:
        """Fr[O | D_i = v]: kernel rows mixed by the joint of the other data
        points given D_i = v, or None when P(D_i = v) = 0."""
        self._check_point(i, v)
        given = self._point_weights(i)[1].get(v)
        return None if given is None else self._mix(i, v, given)
