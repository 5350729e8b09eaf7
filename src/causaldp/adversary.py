"""Bayesian adversaries: posteriors over databases and the semantic gap.

An adversary with a prior over whole databases updates on the mechanism
output.  Comparing the ordinary posterior with the posterior computed as if
one data point had been forced to a chosen value measures how much the
mechanism lets participation itself matter.  Each function takes a
`CanonicalModel`; the prior is its `data_joint`, resolved once per model.
"""

from __future__ import annotations

from .dist import Dist
from .errors import DomainMismatch, ValueOutOfDomain, ZeroEvidence, preview
from .mechanisms import CanonicalModel, MechanismKernel
from .reports import RatioBound, group_sweep


def _check_observation(kernel: MechanismKernel, observation) -> None:
    if observation not in kernel.output_domain:
        raise ValueOutOfDomain(
            f"{preview(observation)} is not a possible output of this mechanism"
        )


def _joint(kernel: MechanismKernel, prior: Dist, observation, rewrite) -> dict:
    """Prior times likelihood of the observation, database -> positive
    integer over one denominator, in the prior's order: each database's
    likelihood is read from the kernel row of `rewrite(db)` in
    `integer_table` (`tuple` reads db's own row)."""
    j = kernel._output_index[observation]
    rows = kernel.integer_table[1]
    joint = {}
    for db, w in prior.integer_table[1].items():
        p = w * rows[rewrite(db)][j]
        if p:
            joint[db] = p
    return joint


def _forcing(kernel: MechanismKernel, point_index: int, value):
    """db -> db with point `point_index` overwritten by `value`."""
    if not 1 <= point_index <= kernel.n:
        raise DomainMismatch(f"point index {point_index} out of range 1..{kernel.n}")
    if value not in kernel.data_domain:
        raise ValueOutOfDomain(f"{preview(value)} not a data value")
    return lambda db: db[: point_index - 1] + (value,) + db[point_index:]


def _bayes(prior: Dist, joint: dict, zero_evidence: str) -> Dist:
    """The posterior over databases from `_joint`; raises ZeroEvidence with
    the given message on total zero."""
    total = sum(joint.values())
    if total == 0:
        raise ZeroEvidence(zero_evidence)
    return Dist(prior.variables, (total, joint))


def posterior(model: CanonicalModel, observation) -> Dist:
    """Belief over databases after seeing the output, by Bayes' rule.  The
    prior is the model's `data_joint`, the joint of D_1..D_n."""
    kernel, prior = model.kernel, model.data_joint
    _check_observation(kernel, observation)
    return _bayes(
        prior,
        _joint(kernel, prior, observation, tuple),
        f"output {preview(observation)} has probability zero under this prior",
    )


def posterior_under_intervention(
    model: CanonicalModel, point_index: int, value, observation
) -> Dist:
    """Belief over the original databases, had one point been forced.

    The likelihood of database d becomes the kernel row of d with coordinate
    `point_index` overwritten by `value`: the adversary reasons about what
    the output reveals when that point's true value was cut out of the
    mechanism.  The belief is still about the original, unforced data.
    """
    kernel, prior = model.kernel, model.data_joint
    _check_observation(kernel, observation)
    return _bayes(
        prior,
        _joint(kernel, prior, observation, _forcing(kernel, point_index, value)),
        f"output {preview(observation)} has probability zero under this prior "
        f"once point {point_index} is forced to {preview(value)}",
    )


def semantic_gap(model: CanonicalModel, point_index: int, value) -> RatioBound:
    """Worst-case discrepancy between the two posteriors.

    Supremum over outputs realizable in both worlds and databases in the
    prior's support of the posterior ratio, taken in both directions.  A gap
    of 1 means forcing the point teaches the adversary nothing extra.  Order:
    outputs, then forced over plain before plain over forced, then databases.
    Each output with evidence in both worlds is one `group_sweep` group of
    the (forced, plain) posteriors over the support, as integers over the
    product of the two evidences.
    """
    kernel, prior = model.kernel, model.data_joint
    forcing = _forcing(kernel, point_index, value)
    support = [db for db in kernel.databases() if db in prior.integer_table[1]]
    observed, groups = [], []
    for o in kernel.output_domain:
        plain, forced = (_joint(kernel, prior, o, rewrite) for rewrite in (tuple, forcing))
        plain_total, forced_total = sum(plain.values()), sum(forced.values())
        if plain_total and forced_total:
            observed.append(o)
            groups.append([[forced.get(d, 0) * plain_total for d in support],
                           [plain.get(d, 0) * forced_total for d in support]])
    directions = ("forced_over_plain", "plain_over_forced")
    walk = ((g, a) for g in range(len(groups)) for a in (0, 1))
    return group_sweep(support, groups, walk,
                       lambda g, a, _: {"o": observed[g], "direction": directions[a]},
                       "d")[0]
