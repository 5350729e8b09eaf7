"""Exception hierarchy.

Every failure mode callers are expected to handle gets its own class so that
tests and the CLI can dispatch on type rather than on message text.
"""

from __future__ import annotations

import reprlib


class CausalDpError(Exception):
    """Base class for all errors raised by this package."""


# --- model construction and validation ---------------------------------


class ModelError(CausalDpError):
    """A structural model is malformed."""


class CyclicModel(ModelError):
    """A variable is its own ancestor; no topological order exists."""


class MissingEquation(ModelError):
    """An endogenous variable has no structural equation."""


class DomainMismatch(ModelError):
    """A kernel table does not line up with the declared domains."""


class UnknownVariable(ModelError):
    """A referenced variable is not declared in the model."""


class ValueOutOfDomain(ModelError):
    """A value is not a member of the relevant variable's domain."""


class ExogenousTarget(ModelError):
    """An intervention targeted an exogenous variable.

    Structural interventions replace equations, and exogenous variables have
    none.  What-ifs about exogenous inputs are expressed by replacing the
    input distribution instead (see ProbabilisticSem.pin_exogenous).
    """


class InvalidDistribution(ModelError):
    """Weights are negative or do not sum to exactly one."""


# --- probabilistic queries ----------------------------------------------


class ZeroProbabilityEvent(CausalDpError):
    """Conditioning on an event of probability zero."""


class ZeroEvidence(CausalDpError):
    """An observed output has probability zero under every credible input."""


# --- mechanism constructors ---------------------------------------------


class BiasOutOfRange(CausalDpError):
    """Randomized-response truth bias must satisfy 1/2 < q < 1."""


class RatioOutOfRange(CausalDpError):
    """Geometric noise decay must satisfy 0 < r < 1."""


# --- checkers and bounds -------------------------------------------------


class NotAProductDistribution(CausalDpError):
    """A checker requiring independent data points got a correlated one."""


class MissingPopulation(CausalDpError):
    """The requested definition needs a population distribution."""


class UnexpectedPopulation(CausalDpError):
    """The requested definition quantifies over populations; none may be fixed."""


class InvalidEffectQuery(CausalDpError):
    """An effect-size query whose source variable is part of its own sink."""


class NotInSequence(CausalDpError):
    """Two models cannot be wired into a sequential composition."""


class PremiseViolated(CausalDpError):
    """A stage fails the per-stage bound claimed for a composition."""


class RatioTooLong(CausalDpError):
    """A reported rational has more digits than the interpreter will print."""


class CrossCheckMismatch(RuntimeError):
    """A closed form disagrees with the enumeration oracle (a package fault)."""


# --- file handling --------------------------------------------------------

_PREVIEW_CHARS = 40
_preview = reprlib.Repr()
_preview.maxstring = _preview.maxlong = _preview.maxother = _PREVIEW_CHARS


def preview(node) -> str:
    """At most 40 characters of `node`'s repr, for an error message about
    input: a hostile file is never echoed back whole."""
    text = _preview.repr(node)
    if len(text) > _PREVIEW_CHARS:
        text = text[: _PREVIEW_CHARS - 3] + "..."
    return text


def describe(node) -> str:
    """A rejected input node for an error message: its type and `preview`."""
    return f"{type(node).__name__} {preview(node)}"


class ParseError(CausalDpError):
    """Input text is not in the restricted JSON dialect.

    Attributes:
      location: a JSON-path-like string (or line/column note) for diagnosis.
    """

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{message} (at {location})" if location else message)


class ValidationError(CausalDpError):
    """Parsed input is structurally valid JSON but violates the dialect."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{message} (at {location})" if location else message)
