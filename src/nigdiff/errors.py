"""Exception hierarchy for numerical and domain failures."""


class NigdiffError(Exception):
    """Base class for all package errors."""


class DomainError(NigdiffError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class UnsupportedParameterError(NigdiffError, ValueError):
    """The parameter regime is valid mathematically but not supported here
    (e.g. a closed form only exists for alpha = 1/2)."""


class PrecisionLossError(NigdiffError, ArithmeticError):
    """A subtraction cancelled more decimal digits than a result can
    spare; ``condition_estimate`` is the number of digits it lost.
    Exported for callers that catch it; nothing in the package raises
    it, as ``weights_gg_exact`` picks its working precision."""

    def __init__(self, message, condition_estimate=None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class NumericalError(NigdiffError, RuntimeError):
    """A numerical procedure (quadrature, factorization) failed to converge,
    or a closed form overflowed double precision."""


class InternalConsistencyError(NigdiffError, RuntimeError):
    """An internal invariant was violated (indicates a bug upstream)."""


class KernelCompileError(RuntimeError):
    """gcc could not build the compiled event loops: it is missing, or
    it failed, and the message carries its stderr.  Not a numerical
    failure, so it is no ``NigdiffError``."""
