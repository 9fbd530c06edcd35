"""Exception types shared across the package."""


class DiffregError(Exception):
    """Base class for all package-specific errors."""


class SingularSystemError(DiffregError):
    """A linear system is numerically singular even after jitter.

    Carries an estimate of the condition number when one is available.
    """

    def __init__(self, message: str, cond_estimate: float | None = None):
        if cond_estimate is not None:
            message = f"{message} (condition estimate {cond_estimate:.3e})"
        super().__init__(message)
        self.cond_estimate = cond_estimate


class DegenerateDesignError(DiffregError):
    """The data carry no usable signal for the requested estimator."""


class GcvDegenerateError(DiffregError):
    """The GCV denominator is non-positive; carries the offending trace."""

    def __init__(self, trace: float, n: int, p: int):
        super().__init__(
            f"GCV denominator degenerate: tr(S)/(n*p) = {trace / (n * p):.6f} >= 1 "
            f"(trace {trace:.6g}, n={n}, p={p})"
        )
        self.trace = trace


class DataError(DiffregError):
    """Input data file is malformed, inconsistent, or empty."""
