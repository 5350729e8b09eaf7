"""Bayesian adversaries: posteriors over databases and the semantic gap.

An adversary with a prior over whole databases updates on the mechanism
output.  Comparing the ordinary posterior with the posterior computed as if
one data point had been forced to a chosen value measures how much the
mechanism lets participation itself matter.
"""

from __future__ import annotations

from fractions import Fraction

from .dist import Dist
from .errors import DomainMismatch, ValueOutOfDomain, ZeroEvidence, preview
from .mechanisms import MechanismKernel, data_population
from .reports import RatioBound, sweep


def _check_observation(kernel: MechanismKernel, observation) -> None:
    if observation not in kernel.output_domain:
        raise ValueOutOfDomain(
            f"{preview(observation)} is not a possible output of this mechanism"
        )


def _bayes(prior: Dist, likelihood, zero_evidence: str) -> Dist:
    """Posterior over databases given each database's likelihood of the
    observation; raises ZeroEvidence with the given message on total zero."""
    unnormalized: dict[tuple, Fraction] = {}
    for db, w in prior.weights.items():
        joint = w * likelihood(db)
        if joint > 0:
            unnormalized[db] = joint
    total = sum(unnormalized.values(), Fraction(0))
    if total == 0:
        raise ZeroEvidence(zero_evidence)
    return Dist(prior.variables, {db: w / total for db, w in unnormalized.items()})


def _plain(kernel: MechanismKernel, prior: Dist, observation) -> Dist:
    _check_observation(kernel, observation)
    return _bayes(
        prior,
        lambda db: kernel.row(db).get(observation, Fraction(0)),
        f"output {preview(observation)} has probability zero under this prior",
    )


def _forced(
    kernel: MechanismKernel, prior: Dist, point_index: int, value, observation
) -> Dist:
    _check_observation(kernel, observation)
    if not 1 <= point_index <= kernel.n:
        raise DomainMismatch(
            f"point index {point_index} out of range 1..{kernel.n}"
        )
    if value not in kernel.data_domain:
        raise ValueOutOfDomain(f"{preview(value)} not a data value")
    return _bayes(
        prior,
        lambda db: kernel.row(
            db[: point_index - 1] + (value,) + db[point_index:]
        ).get(observation, Fraction(0)),
        f"output {preview(observation)} has probability zero under this prior "
        f"once point {point_index} is forced to {preview(value)}",
    )


def posterior(kernel: MechanismKernel, prior: Dist, observation) -> Dist:
    """Belief over databases after seeing the output, by Bayes' rule.  The
    prior is over the data points D_1..D_n or the true inputs R_1..R_n."""
    return _plain(kernel, data_population(kernel, prior), observation)


def posterior_under_intervention(
    kernel: MechanismKernel,
    prior: Dist,
    point_index: int,
    value,
    observation,
) -> Dist:
    """Belief over the original databases, had one point been forced.

    The likelihood of database d becomes the kernel row of d with coordinate
    `point_index` overwritten by `value`: the adversary reasons about what
    the output reveals when that point's true value was cut out of the
    mechanism.  The belief is still about the original, unforced data.
    """
    return _forced(kernel, data_population(kernel, prior), point_index, value, observation)


def semantic_gap(
    kernel: MechanismKernel, prior: Dist, point_index: int, value
) -> RatioBound:
    """Worst-case discrepancy between the two posteriors.

    Supremum over outputs realizable in both worlds and databases in the
    prior's support of the posterior ratio, taken in both directions.  A gap
    of 1 means forcing the point teaches the adversary nothing extra.  Order:
    outputs, then forced over plain before plain over forced, then databases.
    """
    prior = data_population(kernel, prior)

    def posterior_pairs():
        for o in kernel.output_domain:
            try:
                plain = _plain(kernel, prior, o).weights
                forced = _forced(kernel, prior, point_index, value, o).weights
            except ZeroEvidence:
                continue
            yield forced, plain, {"o": o, "direction": "forced_over_plain"}
            yield plain, forced, {"o": o, "direction": "plain_over_forced"}

    support = [db for db in kernel.databases() if prior.weight_of(db)]
    return sweep(support, posterior_pairs(), "d")[0]
