"""Exception hierarchy for numerical and domain failures."""


class NigdiffError(Exception):
    """Base class for all package errors."""


class DomainError(NigdiffError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class UnsupportedParameterError(NigdiffError, ValueError):
    """The parameter regime is valid mathematically but not supported here
    (e.g. a closed form only exists for alpha = 1/2)."""


class PrecisionLossError(NigdiffError, ArithmeticError):
    """An alternating sum cancelled beyond the configured threshold.

    Raised only by ``weights_gg_exact``, the 50-digit reference route;
    ``weights_gg_quadrature`` answers every state without cancellation.
    """

    def __init__(self, message, condition_estimate=None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class NumericalError(NigdiffError, RuntimeError):
    """A numerical procedure (quadrature, factorization) failed to converge,
    or a closed form overflowed double precision."""


class InternalConsistencyError(NigdiffError, RuntimeError):
    """An internal invariant was violated (indicates a bug upstream)."""
