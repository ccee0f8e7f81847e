"""Group-level random-effects model for correlation matrices.

A population of subject matrices is summarized by its intrinsic (Fréchet)
mean on the SPD manifold and an isotropic dispersion of the whitened,
linearized residuals around that mean.  A flat variant (arithmetic mean,
entrywise residuals) is kept as the baseline comparator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .estimators import as_correlation_matrices
from .exceptions import ConvergenceError, DegenerateModelError, InvalidInputError
from .geometry import (
    TangentVector,
    eig_apply,
    spd_expm,
    spd_sqrtm,
    symmetrize,
    validate_spd,
    vec_dim,
    vec_embed,
    whiten,
)

TANGENT = "tangent"
FLAT = "flat"
PARAMETRIZATIONS = (TANGENT, FLAT)


@dataclass(frozen=True)
class FrechetConfig:
    """Stopping rule for the intrinsic-mean fixed-point iteration."""

    max_iterations: int = 200
    gradient_tolerance: float = 1e-8

    def __post_init__(self):
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be >= 1")
        if not self.gradient_tolerance > 0:
            raise InvalidInputError("gradient_tolerance must be > 0")


@dataclass(frozen=True)
class FrechetInfo:
    iterations: int
    gradient_norm: float


def check_parametrization(parametrization: str):
    """Raise ``InvalidInputError`` unless the name is one of ``PARAMETRIZATIONS``."""
    if parametrization not in PARAMETRIZATIONS:
        raise InvalidInputError(
            f"unknown parametrization {parametrization!r}; expected one of {PARAMETRIZATIONS}"
        )


def _frechet(mats: np.ndarray, config: FrechetConfig):
    """Fixed point of the intrinsic mean; returns the mean, its inverse
    square root, the iteration count and the gradient norm at exit."""
    mean = symmetrize(mats.mean(axis=0))
    gradient_norm = np.inf

    def sqrt_in_cone(eigvals):
        if eigvals.min() <= 0:
            raise ConvergenceError(
                "intrinsic mean iterate left the SPD cone", gradient_norm
            )
        return np.sqrt(eigvals)

    for iteration in range(config.max_iterations):
        root, inv_root = eig_apply(mean, sqrt_in_cone, lambda e: 1.0 / np.sqrt(e))
        step = eig_apply(whiten(inv_root, mats), np.log).mean(axis=0)
        gradient_norm = float(np.linalg.norm(step))
        if gradient_norm <= config.gradient_tolerance:
            return mean, inv_root, iteration, gradient_norm
        mean = symmetrize(root @ spd_expm(step) @ root)
    raise ConvergenceError(
        f"intrinsic mean did not converge in {config.max_iterations} iterations "
        f"(gradient norm {gradient_norm:.3e})",
        gradient_norm,
    )


def _deviations(mean, inv_root, mats) -> np.ndarray:
    """Residual matrices: whitened by ``inv_root`` minus the identity, or
    entrywise differences from ``mean`` when there is no whitening (flat)."""
    if inv_root is None:
        return mats - mean
    return whiten(inv_root, mats) - np.eye(mean.shape[-1])


def frechet_mean(mats, config: FrechetConfig | None = None, *, return_info: bool = False):
    """Intrinsic mean of SPD matrices under the affine-invariant metric.

    Fixed-point iteration ``M <- M^1/2 expm(mean_s logm(M^-1/2 A_s M^-1/2))
    M^1/2`` started at the arithmetic mean and stopped when the Frobenius
    norm of the mean log-residual falls below the configured tolerance.
    The unit-step iteration converges quickly for populations clustered
    around a common center (the fitting use case); for widely spread inputs
    raise ``max_iterations``.

    Parameters
    ----------
    mats : sequence of (n, n) SPD arrays
    config : FrechetConfig, optional
    return_info : bool
        If true, also return a `FrechetInfo` with the iteration count and
        the gradient norm at exit.

    Raises
    ------
    ConvergenceError
        If the tolerance is not met within ``max_iterations``; carries the
        last gradient norm.
    """
    stack = np.stack([validate_spd(m) for m in mats])
    mean, _, iterations, gradient_norm = _frechet(stack, config or FrechetConfig())
    if return_info:
        return mean, FrechetInfo(iterations, gradient_norm)
    return mean


def residual(group_mean, subject) -> TangentVector:
    """Linearized deviation of ``subject`` from ``group_mean``.

    Whitens the subject by the group mean and subtracts the identity.
    Exactly inverted by :func:`reconstruct`.
    """
    group_mean = validate_spd(group_mean)
    subject = validate_spd(subject)
    if group_mean.shape != subject.shape:
        raise InvalidInputError(
            f"dimension mismatch: mean {group_mean.shape} vs subject {subject.shape}"
        )
    _, inv_root = spd_sqrtm(group_mean)
    return TangentVector(_deviations(group_mean, inv_root, subject))


def reconstruct(group_mean, deviation) -> np.ndarray:
    """Place a tangent deviation back at the group mean (inverse of
    :func:`residual`): ``mean^1/2 (I + deviation) mean^1/2``.  A stack of
    deviations ``(..., n, n)`` gives a stack of matrices."""
    w = deviation.matrix if isinstance(deviation, TangentVector) else symmetrize(deviation)
    root, _ = spd_sqrtm(group_mean)
    return symmetrize(root @ (np.eye(root.shape[0]) + w) @ root)


@dataclass(frozen=True)
class GroupModel:
    """Fitted group model: central matrix, isotropic dispersion, residuals.

    ``sigma`` is the root mean square of the residual coordinates, i.e. the
    per-coordinate maximum-likelihood dispersion of the isotropic Gaussian
    on the (tangent or flat) residual space.  ``residuals`` holds the
    residual coordinates of the fitted subjects, one row each.
    """

    mean: np.ndarray
    sigma: float
    n_subjects: int
    parametrization: str = TANGENT
    residuals: np.ndarray | None = None
    region_names: tuple[str, ...] | None = None
    frechet_iterations: int = 0
    gradient_norm: float = 0.0

    @property
    def n(self) -> int:
        return self.mean.shape[0]

    @cached_property
    def inv_root(self) -> np.ndarray | None:
        """Whitening ``mean^-1/2`` of the tangent frame; None when flat."""
        return None if self.parametrization == FLAT else spd_sqrtm(self.mean)[1]

    def project(self, mats) -> np.ndarray:
        """Residual coordinates ``(..., n(n+1)/2)`` of validated SPD
        matrices ``(..., n, n)`` under this model's parametrization."""
        return vec_embed(_deviations(self.mean, self.inv_root, mats))


def fit_stack(
    stack: np.ndarray,
    config: FrechetConfig | None = None,
    parametrization: str = TANGENT,
    region_names=None,
) -> GroupModel:
    """Fit the group model to an already validated ``(S, n, n)`` SPD stack.

    The core of :func:`fit_from_matrices`.  The whitening of the last
    Fréchet iteration stays on the model, so projecting new subjects needs
    no further decomposition of the mean.
    """
    check_parametrization(parametrization)
    if stack.shape[0] < 2:
        raise InvalidInputError("need at least 2 subjects to fit a group model")
    n = stack.shape[-1]
    if region_names is not None:
        region_names = tuple(region_names)
        if len(region_names) != n:
            raise InvalidInputError(f"{len(region_names)} region names for n={n}")
    if parametrization == TANGENT:
        fit = _frechet(stack, config or FrechetConfig())
    else:
        fit = symmetrize(stack.mean(axis=0)), None, 0, 0.0
    mean, inv_root, iterations, gradient_norm = fit
    vecs = vec_embed(_deviations(mean, inv_root, stack))
    model = GroupModel(
        mean=mean,
        sigma=float(np.sqrt(np.mean(vecs**2))),
        n_subjects=stack.shape[0],
        parametrization=parametrization,
        residuals=vecs,
        region_names=region_names,
        frechet_iterations=iterations,
        gradient_norm=gradient_norm,
    )
    model.__dict__["inv_root"] = inv_root  # fills the cached property
    return model


def fit_from_matrices(
    mats,
    config: FrechetConfig | None = None,
    parametrization: str = TANGENT,
    region_names=None,
) -> GroupModel:
    """Fit the group model to precomputed SPD matrices.

    Computes the group mean (intrinsic or arithmetic), the per-subject
    residual coordinates, and the dispersion
    ``sigma = sqrt(mean over subjects and coordinates of squared residual
    coordinates)``.
    """
    stack = np.stack([validate_spd(m) for m in mats])
    return fit_stack(stack, config, parametrization, region_names)


def fit_group_model(
    series,
    config: FrechetConfig | None = None,
    parametrization: str = TANGENT,
) -> GroupModel:
    """Fit the group model from subject time series or matrices.

    `TimeSeries` inputs are first turned into well-conditioned correlation
    matrices (shrinkage estimate, then normalization); SPD arrays are used
    directly.
    """
    mats, names = as_correlation_matrices(series)
    return fit_stack(mats, config, parametrization, region_names=names)


def log_likelihood(model: GroupModel, subject) -> float:
    """Log density of a subject matrix under the isotropic residual model.

    ``-(d/2) log(2 pi sigma^2) - ||residual coordinates||^2 / (2 sigma^2)``
    with ``d = n (n + 1) / 2``.  Only differences between likelihoods are
    meaningful; the constant is the Gaussian normalization on the residual
    coordinate space.
    """
    if model.sigma <= 0:
        raise DegenerateModelError(
            "model has zero dispersion; likelihood is degenerate"
        )
    subject = validate_spd(subject)
    if subject.shape != model.mean.shape:
        raise InvalidInputError(
            f"subject has shape {subject.shape}, model is {model.mean.shape}"
        )
    r = model.project(subject)
    d = vec_dim(model.n)
    s2 = model.sigma**2
    return float(
        -0.5 * d * np.log(2.0 * np.pi * s2)
        - 0.5 * np.dot(r, r) / s2
    )


def leave_one_out_scores(
    subjects,
    others=(),
    config: FrechetConfig | None = None,
    parametrization: str = TANGENT,
) -> tuple[np.ndarray, np.ndarray]:
    """Leave-one-out likelihood protocol.

    For each subject ``s``, fit the model on the remaining subjects and
    score ``s`` under it.  Each entry of ``others`` is scored under every
    leave-one-out model and averaged.

    Returns
    -------
    subject_scores : (S,) array
    other_scores : (len(others),) array
    """
    mats, _ = as_correlation_matrices(subjects)
    others = list(others)
    other_mats = as_correlation_matrices(others)[0] if others else []
    s_count = mats.shape[0]
    if s_count < 3:
        raise InvalidInputError("leave-one-out needs at least 3 subjects")
    subject_scores = np.empty(s_count)
    other_scores = np.zeros(len(other_mats))
    for left in range(s_count):
        rest = np.delete(mats, left, axis=0)
        model = fit_stack(rest, config, parametrization)
        subject_scores[left] = log_likelihood(model, mats[left])
        for k, om in enumerate(other_mats):
            other_scores[k] += log_likelihood(model, om)
    if len(other_mats):
        other_scores /= s_count
    return subject_scores, other_scores
