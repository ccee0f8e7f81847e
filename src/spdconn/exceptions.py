"""Exception types raised by the geometry, estimation, and testing pipelines."""


class SpdconnError(Exception):
    """Base of every spdconn exception; each also keeps its builtin base."""


class InvalidInputError(SpdconnError, ValueError):
    """Input data is malformed: non-finite values, shape mismatch, or bad labels."""


class NearSingularError(SpdconnError, ValueError):
    """A matrix has eigenvalues below the relative SPD floor."""


class NumericRangeError(SpdconnError, OverflowError):
    """A matrix function would overflow the floating-point range."""


class DegenerateInputError(SpdconnError, ValueError):
    """Input carries no usable signal (e.g. an all-constant time series)."""


class DegenerateModelError(SpdconnError, ValueError):
    """Group model has zero dispersion, so likelihoods are undefined."""


class ConvergenceError(SpdconnError, RuntimeError):
    """An iterative fit did not reach tolerance within the iteration budget."""

    def __init__(self, message, gradient_norm=None):
        super().__init__(message)
        self.gradient_norm = gradient_norm


class ConfigurationError(SpdconnError, ValueError):
    """Simulation configuration is out of the domain where sampling is valid."""
