"""Exception hierarchy for numerical and domain failures."""


class NigdiffError(Exception):
    """Base class for all package errors."""


class DomainError(NigdiffError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class UnsupportedParameterError(NigdiffError, ValueError):
    """The parameter regime is valid mathematically but not supported here
    (e.g. a closed form only exists for alpha = 1/2)."""


class PrecisionLossError(NigdiffError, ArithmeticError):
    """A subtraction cancelled more decimal digits than the configured
    threshold allows.

    Raised only by ``weights_gg_exact``, the 50-digit reference route.
    Its sums are built from positive terms; the one cancellation left is
    the final difference P - N of their even and odd parts, and
    ``condition_estimate`` is the number of digits it lost.
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
