"""Exception types shared across the engine.

Every anticipated failure raises a named subclass of OdynError so callers
(and the CLI) can map error classes to exit codes without string matching.
A NumericFailure (CLI exit 3) is the dynamics or an operator failing at
runtime; every other OdynError is bad input (exit 2).
"""

__all__ = [
    "OdynError", "NumericFailure", "EmptyGraph", "InvalidProbability", "NotStronglyConnected",
    "NotRowStochastic", "ZeroDegree", "OutOfRangeSimilarity", "KernelNotNormalized",
    "StepLimitExceeded", "NonFiniteState", "InsufficientData", "PreconditionFailed",
    "NoConvergence", "TooLarge", "NotSPD", "EmptyMask", "CsvFormatError",
]


class OdynError(Exception):
    """Base class for all engine errors."""


class NumericFailure(OdynError):
    """Base class of NonFiniteState, StepLimitExceeded, NoConvergence, NotRowStochastic,
    KernelNotNormalized, NotSPD, ZeroDegree and OutOfRangeSimilarity."""


class EmptyGraph(OdynError):
    """Operation needs at least one usable node or edge."""


class InvalidProbability(OdynError):
    """An edge probability fell outside [0, 1]."""


class NotStronglyConnected(OdynError):
    """Predicate or solver requires a strongly connected graph."""


class NotRowStochastic(NumericFailure):
    """Weights must sum to one along every row."""


class ZeroDegree(NumericFailure):
    """A node with zero weighted degree reached a normalized quantity."""


class OutOfRangeSimilarity(NumericFailure):
    """Similarity values must lie in [0, 1]."""


class KernelNotNormalized(NumericFailure):
    """Hypergraph kernel rows must sum to one."""


class StepLimitExceeded(NumericFailure):
    """Integrator ran out of its step budget."""


class NonFiniteState(NumericFailure):
    """State left the representable range (blow-up)."""

    def __init__(self, message, last_time=None):
        super().__init__(message)
        self.last_time = last_time


class InsufficientData(OdynError):
    """Not enough samples for a meaningful fit."""


class PreconditionFailed(OdynError):
    """A structural precondition does not hold; message names the check."""


class NoConvergence(NumericFailure):
    """Iterative solver hit its iteration cap before the tolerance."""


class TooLarge(OdynError):
    """Problem size exceeds a path's limit (node pairs, dense spectra, int64 arc keys)."""


class NotSPD(NumericFailure):
    """Operator is not symmetric positive semidefinite."""


class EmptyMask(OdynError):
    """A required index mask is empty."""


class CsvFormatError(OdynError):
    """Malformed CSV input; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
