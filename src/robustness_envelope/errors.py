"""Exception types shared across the package.

Every guard that protects an exact computation fails loudly with one of
these instead of silently degrading to an approximation.
"""


class EnvelopeError(Exception):
    """Base class for all package-specific errors."""


class ContractViolation(EnvelopeError):
    """A computed result breaks a guarantee its own code states."""


# --- exact arithmetic -------------------------------------------------------

class ZeroDenominator(EnvelopeError):
    """A tail ratio was requested with a zero denominator tail."""


class PreconditionViolated(EnvelopeError):
    """An operation's stated precondition does not hold for the inputs."""


class NoSolution(EnvelopeError):
    """A root-finding target is outside the attainable range."""


class NoFeasibleR(EnvelopeError):
    """No shell parameter admits a solution in an isoperimetric minimization."""


class SupportCapExceeded(EnvelopeError):
    """An exact convolution would exceed the configured support cap."""


class AsymmetricY(EnvelopeError):
    """A distribution that must be symmetric about the origin is not."""


class PrecisionInsufficient(EnvelopeError):
    """A certified comparison could not be decided at the precision cap."""


# --- image spaces -----------------------------------------------------------

class LevelOutOfRange(EnvelopeError):
    """A channel level lies outside [0, 2^b - 1]."""


class ShapeMismatch(EnvelopeError):
    """Two images from incompatible spaces were combined."""


class SpaceTooLarge(EnvelopeError):
    """A full scan was requested of a space beyond the enumeration bound."""


class MalformedInput(EnvelopeError):
    """Serialized input failed validation.

    ``position`` carries the character offset or array index of the first
    offending element when known.
    """

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


# --- graphs and classifiers -------------------------------------------------

class NotInterestingSubset(EnvelopeError):
    """A vertex subset is empty or larger than half the graph."""


class AnalyticUnavailable(EnvelopeError):
    """The analytic counting path exists only for the sum classifier."""


# --- robustness and perturbation search -------------------------------------

class BallTooLarge(EnvelopeError):
    """A perturbation ball has too many members to enumerate."""


class EmptyClass(EnvelopeError):
    """The requested class contains no images."""


class BitDepthTooLarge(EnvelopeError):
    """Exact level-pair enumeration is capped at 16 bits of depth."""


class NoOtherClass(EnvelopeError):
    """Every image in the space shares one label; no witness exists."""
