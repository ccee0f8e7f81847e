"""Exception types raised by the geometry, estimation, and testing
pipelines, and the checks of scalar arguments that raise them."""

import math
from numbers import Integral, Real


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


def check_integer(name: str, value, minimum: int):
    """Raise ``InvalidInputError`` unless ``value`` is a Python or numpy
    integer, not a bool, and at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        kind = "a non-negative integer" if minimum == 0 else f"an integer >= {minimum}"
        raise InvalidInputError(f"{name} must be {kind}, got {value!r}")


def check_finite(name: str, value):
    """Raise ``InvalidInputError`` unless ``value`` is a finite Python or
    numpy real number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
        raise InvalidInputError(f"{name} must be a finite number, got {value!r}")
