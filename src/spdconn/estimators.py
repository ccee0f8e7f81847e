"""Per-subject correlation estimation from multivariate time series.

The pipeline runs, in order: confound removal, shrinkage covariance
estimation, normalization to a correlation matrix.  Normalizing after
shrinkage keeps the estimate inside the SPD cone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateInputError, InvalidInputError
from .geometry import symmetrize, validate_spd


@dataclass(frozen=True)
class TimeSeries:
    """Multivariate time series: ``values`` has one row per time point and
    one column per region."""

    values: np.ndarray
    region_names: tuple[str, ...] | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise InvalidInputError(f"time series must be 2-d, got shape {v.shape}")
        if v.shape[0] < 2:
            raise InvalidInputError("time series needs at least 2 time points")
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("time series contains non-finite values")
        object.__setattr__(self, "values", v)
        names = self.region_names
        if names is None:
            names = tuple(f"r{k:02d}" for k in range(v.shape[1]))
        else:
            names = tuple(str(x) for x in names)
            if len(names) != v.shape[1]:
                raise InvalidInputError(
                    f"{len(names)} region names for {v.shape[1]} columns"
                )
            if len(set(names)) != len(names):
                raise InvalidInputError("region names must be unique")
        object.__setattr__(self, "region_names", names)

    @property
    def t(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


def _as_samples(x) -> np.ndarray:
    if isinstance(x, TimeSeries):
        return x.values
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] < 2:
        raise InvalidInputError(f"need a (t, n) array with t >= 2, got {v.shape}")
    return v


def residualize_confounds(x: TimeSeries, confounds=None) -> TimeSeries:
    """Remove the span of the confound columns (plus a constant) from ``x``.

    Each output column is the input column minus its least-squares
    projection onto ``[confounds, 1]``; a constant regressor is always
    included, so the output is demeaned even with no confounds.
    Rank-deficient confounds are handled by the SVD-based solver.
    """
    if not isinstance(x, TimeSeries):
        x = TimeSeries(x)
    if confounds is None:
        design = np.ones((x.t, 1))
    else:
        c = np.asarray(confounds, dtype=np.float64)
        if c.ndim == 1:
            c = c[:, None]
        if c.shape[0] != x.t:
            raise InvalidInputError(
                f"confounds have {c.shape[0]} time points, series has {x.t}"
            )
        if not np.all(np.isfinite(c)):
            raise InvalidInputError("confounds contain non-finite values")
        design = np.hstack([c, np.ones((x.t, 1))])
    beta, *_ = np.linalg.lstsq(design, x.values, rcond=None)
    return TimeSeries(x.values - design @ beta, x.region_names)


def sample_covariance(x) -> np.ndarray:
    """Empirical covariance with 1/t normalization (matches the shrinkage
    derivation); symmetric positive semidefinite."""
    v = _as_samples(x)
    centered = v - v.mean(axis=0)
    return symmetrize(centered.T @ centered / v.shape[0])


def ledoit_wolf(x) -> np.ndarray:
    """Shrinkage covariance estimate: convex combination of the sample
    covariance with a scaled identity.

    The shrinkage intensity is the analytic optimum
    ``rho = min(b2, d2) / d2`` where ``d2`` measures the dispersion of the
    sample covariance around its isotropic part and ``b2`` the sampling
    noise of the per-observation outer products.  The result is well
    conditioned: its smallest eigenvalue is at least ``rho * mu``.
    """
    v = _as_samples(x)
    t, n = v.shape
    centered = v - v.mean(axis=0)
    s = symmetrize(centered.T @ centered / t)
    mu = np.trace(s) / n
    if mu <= 0:
        raise DegenerateInputError("all-constant input: covariance has zero trace")
    d2 = np.sum((s - mu * np.eye(n)) ** 2) / n
    if d2 == 0.0:
        rho = 1.0
    else:
        # sum_k ||y_k y_k' - S||_F^2 == sum_k ||y_k||^4 - t ||S||_F^2
        quad = np.sum(np.sum(centered**2, axis=1) ** 2)
        b2_bar = (quad - t * np.sum(s**2)) / (n * t**2)
        rho = min(b2_bar, d2) / d2
    return symmetrize(rho * mu * np.eye(n) + (1.0 - rho) * s)


def to_correlation(s) -> np.ndarray:
    """Normalize a covariance to a correlation matrix (unit diagonal)."""
    s = symmetrize(s)
    d = np.diag(s)
    if np.any(d <= 0):
        raise InvalidInputError("covariance has nonpositive diagonal entries")
    scale = 1.0 / np.sqrt(d)
    out = symmetrize(s * np.outer(scale, scale))
    np.fill_diagonal(out, 1.0)
    return out


def correlation_matrix(x: TimeSeries, confounds=None) -> np.ndarray:
    """Full per-subject pipeline: residualize, shrink, normalize."""
    x = residualize_confounds(x, confounds)
    return to_correlation(ledoit_wolf(x))


def as_correlation_matrices(subjects) -> tuple[np.ndarray, tuple[str, ...] | None]:
    """Stack per-subject correlation matrices from mixed inputs.

    ``subjects`` may be `TimeSeries` objects (estimated through the
    pipeline) or precomputed SPD matrices (used as-is, e.g. simulation
    draws).  Every matrix is validated with :func:`validate_spd`, so the
    returned ``(S, n, n)`` stack needs no further check.  Also returns the
    region names when the inputs carry them.
    """
    subjects = list(subjects)
    if not subjects:
        raise InvalidInputError("empty subject list")
    mats = []
    names = None
    for s in subjects:
        if isinstance(s, TimeSeries):
            mats.append(validate_spd(correlation_matrix(s)))
            if names is None:
                names = s.region_names
            elif names != s.region_names:
                raise InvalidInputError("subjects have inconsistent region names")
        else:
            mats.append(validate_spd(s))
    shapes = {m.shape for m in mats}
    if len(shapes) != 1:
        raise InvalidInputError(f"subjects have inconsistent dimensions: {shapes}")
    return np.stack(mats), names
