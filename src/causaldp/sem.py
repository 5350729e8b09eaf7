"""Finite-domain probabilistic structural equation models.

A model is a set of variables with finite domains.  Exogenous variables have
no equation; every endogenous variable has a stochastic structural equation
given extensionally as a kernel table: each combination of parent values maps
to an exact distribution over the variable's own domain.  Randomness is drawn
independently per equation and per evaluation; correlations between variables
exist only through shared ancestors in the graph.

The semantics of a model under a fixed exogenous assignment is the joint
distribution over the endogenous variables obtained bottom-up along a
topological order.  A model paired with a distribution over its exogenous
variables lifts to a joint by mixing these semantics, and interventions
replace an equation with a constant, yielding a sub-model that is defined
even for assignments the current input distribution gives probability zero.

This module is the independent enumeration oracle the closed forms elsewhere
are checked against: it knows nothing of mechanisms or checkers and never
calls a closed form.  A query enumerates only the queried variables and
their ancestors in the current, possibly intervened, graph; every other
variable is barren for the query and summing it out contributes exactly one.
The enumeration runs in integers over a running common denominator, from
each equation's integer table.  The enumeration is the oracle's own; its
input is not: the canonical release model's O equation, over the parents
D_1..D_n, is the kernel's integer table keyed by the kernel's own
databases, checked again by the equation's constructor and by
`Sem.validate`.
`ProbabilisticSem.lift` returns its cells as the integer table of a `Dist`,
whose constructor checks in integers that they sum to that denominator.

Models are immutable, so three pieces of structure are memoized on the
object that owns them: a model keeps each intervened sub-model per
(variable, value), so chained interventions share a trie of sub-models; a
model keeps each query's plan (the exogenous variables and equations it
enumerates); and an input `Dist` keeps its marginal per exogenous set, so a
model and all its sub-models sum their shared population onto one set of
coordinates once.  A query that needs no exogenous variable thus costs its
own enumeration and no scan of the population; a caller asking one such
question per assignment of some inputs can instead ask once for the joint
of those inputs and the answer, and read each answer as a slice.  Every
call still checks its arguments, and every lift sums to one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import product
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .dist import (Dist, Event, check_table, exact_row, integer_row_error, integer_weights,
                   least_rows)
from .errors import (
    CyclicModel,
    DomainMismatch,
    ExogenousTarget,
    MissingEquation,
    UnknownVariable,
    ValueOutOfDomain,
    preview,
)
from .exact import Value, memoized


def _check_key(target: str, parents: tuple, key) -> None:
    if not isinstance(key, tuple) or len(key) != len(parents):
        raise DomainMismatch(f"equation for {preview(target)}, row {preview(key)}: key "
                             f"does not match parents {preview(parents)}")


@dataclass(frozen=True)
class StochasticEquation:
    """An extensional stochastic equation: target := F(parents).

    Attributes:
      target: the variable being assigned.
      parents: parent variable names, in the order the row keys use.
      integer_table: the equation itself, (L, parent key -> {target value:
        positive numerator over L}), every row summing to L.  Stored with L
        the lcm of the reduced weights' denominators, so equal equations have
        equal tables; a deterministic or constant equation has L = 1.  A
        table of `Fraction` rows comes in through `from_rows`.  The oracle
        shares this input (the canonical O equation is the kernel's integer
        table), never its enumeration.
    """

    target: str
    parents: tuple[str, ...]
    integer_table: tuple[int, dict[tuple, dict[Value, int]]]

    def __post_init__(self):
        """Check the table in integers (`dist.least_rows`) and its keys; only
        a table that fails is walked, in its given order, to word the first
        error.  A valid one is stored over its least L, in dicts of its own."""
        common, rows = self.integer_table
        if type(common) is not int or common < 1:
            raise DomainMismatch(f"equation for {preview(self.target)}: denominator "
                                 f"{preview(common)} is not a positive int")
        width = len(self.parents)
        least = least_rows(common, list(rows.values()))
        if least is None or not all(isinstance(key, tuple) and len(key) == width
                                    for key in rows):
            for key, row in rows.items():  # the first error: a key, a numerator or a sum
                _check_key(self.target, self.parents, key)
                integer_row_error(DomainMismatch, f"equation for {preview(self.target)}, row",
                                  key, row, common)
        common, reduced = least
        object.__setattr__(self, "integer_table", (common, dict(zip(rows, reduced))))

    @staticmethod
    def from_rows(target: str, parents: tuple[str, ...],
                  rows: Mapping[tuple, Mapping[Value, Fraction]]) -> StochasticEquation:
        """The equation of `Fraction` rows, zero entries dropped, each
        distinct weight object converted once (`dist.integer_weights`).  A bad
        weight is worded by `exact_row`, a key or a wrong sum by the
        constructor."""
        converted = integer_weights([w for row in rows.values() for w in row.values()])
        if converted is None:
            for key, row in rows.items():
                _check_key(target, parents, key)
                exact_row(row, DomainMismatch, f"equation for {preview(target)}, row", key)
        common, numerators = converted
        cells = iter(numerators)
        table = {key: {value: p for value, p in zip(row, cells) if p}
                 for key, row in rows.items()}
        return StochasticEquation(target, parents, (common, table))

    @cached_property
    def rows(self) -> dict[tuple, dict[Value, Fraction]]:
        """parent key -> {target value: positive weight}, derived from
        `integer_table` on first read."""
        common, rows = self.integer_table
        return {key: {value: Fraction(p, common) for value, p in row.items()}
                for key, row in rows.items()}


def constant_equation(target: str, value: Value) -> StochasticEquation:
    """target := value, the form interventions install."""
    return StochasticEquation(target, (), (1, {(): {value: 1}}))


def copy_equation(target: str, source: str, domain: Iterable[Value]) -> StochasticEquation:
    """target := source (deterministic identity over the given domain)."""
    return StochasticEquation(target, (source,), (1, {(v,): {v: 1} for v in domain}))


def deterministic_equation(
    target: str,
    parents: Sequence[str],
    parent_domains: Sequence[Sequence[Value]],
    fn,
) -> StochasticEquation:
    """target := fn(parent values), tabulated over the parent domains."""
    rows = {key: {fn(*key): 1} for key in product(*map(tuple, parent_domains))}
    return StochasticEquation(target, tuple(parents), (1, rows))


def _picker(idx: list[int]):
    """point -> tuple(point[i] for i in idx), in one call."""
    if len(idx) == 1:
        i = idx[0]
        return lambda point: (point[i],)
    return itemgetter(*idx) if idx else (lambda point: ())


@dataclass(frozen=True)
class Sem:
    """A structural model: declared variables, domains, and equations.

    Variables without an equation are exogenous.  `names` fixes the declared
    order, which drives enumeration order everywhere (reports, witnesses,
    serialization).
    """

    names: tuple[str, ...]
    domains: dict[str, tuple[Value, ...]]
    equations: dict[str, StochasticEquation]

    @property
    def exogenous(self) -> tuple[str, ...]:
        return tuple(n for n in self.names if n not in self.equations)

    @property
    def endogenous(self) -> tuple[str, ...]:
        return tuple(n for n in self.names if n in self.equations)

    def domain_of(self, name: str) -> tuple[Value, ...]:
        try:
            return self.domains[name]
        except KeyError:
            raise UnknownVariable(f"variable {name!r} is not declared") from None

    def parents_of(self, name: str) -> tuple[str, ...]:
        eq = self.equations.get(name)
        return eq.parents if eq is not None else ()

    def ancestors_of(self, name: str) -> frozenset[str]:
        """All proper ancestors of `name` (parents, transitively)."""
        self.domain_of(name)
        seen: set[str] = set()
        frontier = list(self.parents_of(name))
        while frontier:
            p = frontier.pop()
            if p in seen:
                continue
            seen.add(p)
            frontier.extend(self.parents_of(p))
        return frozenset(seen)

    def validate(self) -> tuple[str, ...]:
        """Check structural well-formedness; return a topological order.

        The returned order lists all exogenous variables first (declared
        order), then endogenous variables, breaking ties by declared order.
        A model that passes is frozen, so the order is memoized on it; a
        model that fails is not, and raises again on every call.

        Raises:
          UnknownVariable, DomainMismatch, MissingEquation, CyclicModel.
        """
        return self._order

    @cached_property
    def _order(self) -> tuple[str, ...]:
        self._check_equations()
        return self._topological_order()

    def _check_equations(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise DomainMismatch(f"duplicate variable names in {preview(self.names)}")
        for name in self.names:
            dom = self.domains.get(name)
            if dom is None:
                raise MissingEquation(f"variable {preview(name)} has no declared domain")
            if len(dom) == 0 or len(set(dom)) != len(dom):
                raise DomainMismatch(f"domain of {preview(name)} must be nonempty, unique")
        for extra in set(self.domains) - set(self.names):
            raise UnknownVariable(
                f"domain declared for undeclared variable {preview(extra)}"
            )
        for target, eq in self.equations.items():
            if target not in self.domains:
                raise UnknownVariable(f"equation targets undeclared {preview(target)}")
            if eq.target != target:
                raise DomainMismatch(
                    f"equation keyed {preview(target)} targets {preview(eq.target)}"
                )
            if target in eq.parents:
                raise CyclicModel(f"{preview(target)} is its own parent")
            for p in eq.parents:
                if p not in self.domains:
                    raise UnknownVariable(
                        f"equation for {preview(target)} uses undeclared parent "
                        f"{preview(p)}"
                    )
            keys = product(*(self.domains[p] for p in eq.parents))
            check_table(eq.integer_table[1], keys, self.domains[target],
                        f"equation for {preview(target)}")

    def _topological_order(self) -> tuple[str, ...]:
        order = list(self.exogenous)
        placed = set(order)
        pending = [n for n in self.names if n in self.equations]
        while pending:
            progressed = False
            for n in list(pending):
                if all(p in placed for p in self.equations[n].parents):
                    order.append(n)
                    placed.add(n)
                    pending.remove(n)
                    progressed = True
                    break
            if not progressed:
                raise CyclicModel(f"no topological order: stuck at {pending}")
        return tuple(order)

    def intervene(self, name: str, value: Value) -> Sem:
        """The sub-model where `name` is forced to `value`.

        Defined regardless of how likely `value` is under any input
        distribution.  Only endogenous variables can be targeted; exogenous
        what-ifs go through ProbabilisticSem.pin_exogenous.  Every call checks
        its target and value; the sub-model is then built once per model and
        (name, value) and shared, so chained interventions form a trie.
        """
        dom = self.domain_of(name)
        if value not in dom:
            raise ValueOutOfDomain(f"{value!r} not in domain of {name!r}")
        if name not in self.equations:
            raise ExogenousTarget(
                f"{name!r} is exogenous; replace the input distribution instead"
            )
        return self._intervened(name, value)

    @memoized
    def _intervened(self, name: str, value: Value) -> Sem:
        equations = dict(self.equations)
        equations[name] = constant_equation(name, value)
        child = Sem(self.names, self.domains, equations)
        if "_order" in self.__dict__:
            # a domain-checked constant equation only deletes edges, so every
            # check the parent passed still holds; deleted edges can let
            # `name` move earlier, so only the order is recomputed
            child.__dict__["_order"] = child._topological_order()
        return child

    @memoized
    def _plan(self, variables: tuple[str, ...]) -> tuple[tuple, tuple]:
        """What a query over `variables` enumerates: the exogenous variables
        among them and their ancestors, in declared order, and the equations
        of the endogenous ones, in topological order.  Memoized per model and
        query; reads the memoized order, so the model must be valid."""
        needed = set(variables).union(*map(self.ancestors_of, variables))
        plan = [n for n in self._order if n in needed]
        exo = tuple(n for n in plan if n not in self.equations)
        return exo, tuple(n for n in plan if n in self.equations)

    def semantics_given_exogenous(self, assignment: Mapping[str, Value]) -> Dist:
        """Joint distribution over the endogenous variables, bottom-up.

        `assignment` must give a value for every exogenous variable and for
        nothing else.
        """
        self.validate()
        exo = self.exogenous
        if set(assignment) != set(exo):
            raise DomainMismatch(
                f"exogenous assignment must cover exactly {exo}, got "
                f"{tuple(assignment)}"
            )
        point = tuple(assignment[n] for n in exo)
        return ProbabilisticSem(self, Dist.point_mass(exo, point)).lift(self.endogenous)

    def _enumerate(
        self,
        inputs: Dist,
        exo: tuple[str, ...],
        steps: tuple[str, ...],
        variables: tuple[str, ...],
    ) -> tuple[int, dict[tuple, int]]:
        """The one enumeration loop: sum the input distribution onto its `exo`
        coordinates, extend those weighted assignments by the equations of
        `steps`, in order, then sum onto `variables`.  Returns (scale, point
        -> numerator over scale), in first-seen order.

        The loop runs in integers over a running common denominator: the
        inputs' marginal comes over its own (`Dist.marginal`, memoized on the
        distribution), and each step multiplies it by its equation's
        (`integer_table`, the input the oracle shares with the kernel; the
        loop and its arithmetic are the oracle's alone).  A step extends
        each assignment by distinct values, so its assignments stay distinct
        and a list of pairs holds them.  `steps` must be topologically
        ordered and closed under parents given `exo`.
        """
        scale, marginal = inputs.marginal(exo).integer_table
        support = marginal.items()
        positions = {name: i for i, name in enumerate(exo)}
        for name in steps:
            eq = self.equations[name]
            common, rows = eq.integer_table
            parents = _picker([positions[p] for p in eq.parents])
            positions[name] = len(positions)
            support = [(point + (value,), w * p)
                       for point, w in support
                       for value, p in rows[parents(point)].items()]
            scale *= common

        pick = _picker([positions[n] for n in variables])
        out: dict[tuple, int] = {}
        for point, w in support:
            key = pick(point)
            out[key] = out.get(key, 0) + w
        return scale, out


@dataclass(frozen=True)
class ProbabilisticSem:
    """A structural model paired with a distribution over its exogenous inputs."""

    sem: Sem
    exogenous_dist: Dist

    def validate(self) -> tuple[str, ...]:
        """The model's topological order, once the input distribution is
        checked against it; memoized like `Sem.validate`, so a model that
        fails raises again on every call."""
        return self._order

    @cached_property
    def _order(self) -> tuple[str, ...]:
        order = self.sem.validate()
        exo = self.sem.exogenous
        if self.exogenous_dist.variables != exo:
            raise DomainMismatch(
                f"input distribution is over "
                f"{preview(self.exogenous_dist.variables)}, model's exogenous "
                f"variables are {preview(exo)}"
            )
        for point in self.exogenous_dist.integer_table[1]:
            for name, value in zip(exo, point):
                if value not in self.sem.domains[name]:
                    raise ValueOutOfDomain(
                        f"input distribution uses {preview(value)} outside domain "
                        f"of {name!r}"
                    )
        return order

    def lift(self, variables: Iterable[str] | None = None) -> Dist:
        """The joint over `variables`, in the order given; by default the
        full joint over all declared variables, in declared order.

        Only `variables` and their ancestors in the current, possibly
        intervened, graph are enumerated, from the input distribution's
        marginal on the exogenous ones among them, so `lift(T) ==
        lift().marginal(T)` exactly.  The enumeration's integers are the
        `Dist`'s integer table, whose constructor checks their sum.

        Raises:
          UnknownVariable for an undeclared name in `variables`;
          InvalidDistribution if the cells do not sum to one.
        """
        variables = self.sem.names if variables is None else tuple(variables)
        self.validate()
        exo, steps = self.sem._plan(variables)
        return Dist(variables, self.sem._enumerate(self.exogenous_dist, exo, steps, variables))

    def intervene(self, name: str, value: Value) -> ProbabilisticSem:
        child = ProbabilisticSem(self.sem.intervene(name, value), self.exogenous_dist)
        if "_order" in self.__dict__:
            # same exogenous variables and domains: the checked input
            # distribution still fits, and `Sem.intervene` handed down the order
            child.__dict__["_order"] = child.sem._order
        return child

    def pin_exogenous(self, name: str, value: Value) -> ProbabilisticSem:
        """Force an exogenous input to a value.

        The replacement distribution is the marginal over the other exogenous
        variables times a point mass: an intervention, not conditioning, so
        it is defined even for zero-probability values and never imports
        correlations with the pinned variable.
        """
        exo = self.sem.exogenous
        if name not in self.sem.names:
            raise UnknownVariable(f"variable {name!r} is not declared")
        if name not in exo:
            raise DomainMismatch(f"{name!r} is endogenous; use intervene")
        if value not in self.sem.domains[name]:
            raise ValueOutOfDomain(f"{value!r} not in domain of {name!r}")
        others = tuple(n for n in exo if n != name)
        rest = self.exogenous_dist.marginal(others)
        pinned = Dist.point_mass((name,), (value,))
        combined = Dist.product(rest, pinned)
        reordered = combined.marginal(exo)
        return ProbabilisticSem(self.sem, reordered)

    def do(self, assignments: Mapping[str, Value]) -> ProbabilisticSem:
        """Apply interventions; endogenous targets replace equations, exogenous
        targets replace their input distribution coordinate."""
        model = self
        for name, value in assignments.items():
            if name in self.sem.equations:
                model = model.intervene(name, value)
            else:
                model = model.pin_exogenous(name, value)
        return model

    def query(
        self,
        target: Event,
        interventions: Mapping[str, Value] | Sequence[tuple[str, Value]] = (),
        conditions: Event | None = None,
    ) -> Fraction:
        """Fr[target | do(interventions), conditions], exactly.

        Interventions are applied first (endogenous targets only, matching
        `Sem.intervene`); conditioning then happens in the intervened model
        and must have positive probability there.  Mapping events lift only
        the variables they name; a callable event sees the full joint.
        """
        pairs = (
            list(interventions.items())
            if isinstance(interventions, Mapping)
            else list(interventions)
        )
        model = self
        for name, value in pairs:
            model = model.intervene(name, value)
        events = (target,) if conditions is None else (target, conditions)
        if all(isinstance(event, Mapping) for event in events):
            joint = model.lift(dict.fromkeys(n for event in events for n in event))
        else:
            joint = model.lift()
        if conditions is not None:
            joint = joint.condition(conditions)
        return joint.prob(target)
