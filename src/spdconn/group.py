"""Group-level random-effects model for correlation matrices.

A population of subject matrices is summarized by its intrinsic (Fréchet)
mean on the SPD manifold and an isotropic dispersion of the whitened,
linearized residuals around that mean.  A flat variant (arithmetic mean,
entrywise residuals) is kept as the baseline comparator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .estimators import as_correlation_matrices, as_region_names
from .exceptions import (
    ConvergenceError,
    DegenerateModelError,
    InvalidInputError,
)
from .geometry import (
    eig_apply,
    eig_decompose,
    spd_expm,
    spd_sqrtm,
    symmetrize,
    validate_spd_stack,
    vec_dim,
    vec_embed,
    whiten,
)

TANGENT = "tangent"
FLAT = "flat"
PARAMETRIZATIONS = (TANGENT, FLAT)


# Stopping rule of the intrinsic-mean (Newton) iteration: stop once the
# Frobenius norm of the gradient is at most GRADIENT_TOLERANCE, fail after
# MAX_ITERATIONS iterations.
GRADIENT_TOLERANCE = 1e-8
MAX_ITERATIONS = 200


def check_parametrization(parametrization: str):
    """Raise ``InvalidInputError`` unless the name is one of ``PARAMETRIZATIONS``."""
    if parametrization not in PARAMETRIZATIONS:
        raise InvalidInputError(
            f"unknown parametrization {parametrization!r}; expected one of {PARAMETRIZATIONS}"
        )


# Conjugate gradients stop once the residual of the Newton equation falls
# below this fraction of the gradient.  Measured on bootstrap resamples at
# n=33, S=20, sigma=0.1: at 1e-2 or 1e-3 every fit takes 3 Fréchet
# iterations, from 1e-4 on it takes 2.  At 1e-6 a step takes 4 CG
# iterations of a few matrix products per member, which is cheap next to
# the one eigendecomposition per member of a Fréchet iteration.
_CG_TOLERANCE = 1e-6
# |t| of the log weights stays below 1 where an eigenvalue ratio beyond
# 2**53 would round it up to 1.
_T_MAX = 1.0 - 2.0**-53


def _log_weights(eigvals: np.ndarray) -> np.ndarray:
    """Daleckii-Krein weights ``K[i, j] = atanh(t) / t`` of eigenvalue rows
    ``(..., n)``, with ``t = (e_i - e_j) / (e_i + e_j)`` and ``K = 1`` where
    ``t = 0``.  Every weight is at least 1."""
    lam_i, lam_j = eigvals[..., :, None], eigvals[..., None, :]
    t = np.minimum(np.abs(lam_i - lam_j) / (lam_i + lam_j), _T_MAX)
    return np.divide(np.arctanh(t), t, out=np.ones_like(t), where=t > 0)


def _log_derivative(x, eigvecs, weights, inverse) -> np.ndarray:
    """``H[x] = mean_s v_s (K_s * (v_s.T x v_s)) v_s.T`` over the rows of a
    stack: the term of each decomposed member ``W = v diag(e) v.T``
    (eigenvectors ``eigvecs``, weights ``K`` of :func:`_log_weights`) is
    computed once and gathered back into its rows by ``inverse``.

    ``-H`` is the derivative at ``x = 0`` of
    ``x -> mean_s log(e^(-x/2) W_s e^(-x/2))``: in the eigenbasis of ``W``
    the perturbation ``-(x W + W x) / 2`` has entries
    ``-(e_i + e_j) x_ij / 2``, and the derivative of ``log`` multiplies them
    by ``(log e_i - log e_j) / (e_i - e_j)``, whose product is
    ``-K_ij x_ij``.  ``H`` is symmetric and ``H >= I``.
    """
    vecs_t = np.swapaxes(eigvecs, -1, -2)
    return (eigvecs @ (weights * (vecs_t @ x @ eigvecs)) @ vecs_t)[inverse].mean(axis=0)


def _newton_step(gradient, eigvecs, weights, inverse) -> np.ndarray:
    """Solve ``H[x] = gradient`` (:func:`_log_derivative`) by conjugate
    gradients in the Frobenius inner product, to ``_CG_TOLERANCE``."""
    x = np.zeros_like(gradient)
    residual = direction = gradient
    rr = np.vdot(residual, residual)
    stop = _CG_TOLERANCE**2 * rr
    for _ in range(vec_dim(gradient.shape[-1])):
        if rr <= stop:
            break
        h_dir = _log_derivative(direction, eigvecs, weights, inverse)
        alpha = rr / np.vdot(direction, h_dir)
        x = x + alpha * direction
        residual = residual - alpha * h_dir
        rr, rr_old = np.vdot(residual, residual), rr
        direction = residual + (rr / rr_old) * direction
    return x


@dataclass(frozen=True)
class TangentFrame:
    """One iteration of an intrinsic-mean fit: ``eigvals``, ``eigvecs`` and
    ``logs`` decompose each row of ``mats`` whitened by ``inv_root``, the
    inverse of ``root = mean^1/2``.  A fit's exit frame, whose ``mats`` is
    the fitted stack itself, warm-starts the fits of resamples of that
    stack (:func:`fit_stack`'s ``start``)."""

    mean: np.ndarray
    root: np.ndarray
    inv_root: np.ndarray
    mats: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    logs: np.ndarray


def _frechet(mats: np.ndarray, start=None):
    """Intrinsic mean by Newton steps; returns the mean, its inverse
    square root, the iteration count, the gradient norm at exit and the
    :class:`TangentFrame` of the exit iteration.

    Each Newton step builds the frame at the new mean; a fit starts at the
    frame of the arithmetic mean of ``mats``.  ``start = (frame, rows)``
    starts at ``frame`` restricted to the rows present in ``rows`` when
    ``mats`` is ``stack[rows]`` and ``frame`` the exit frame of a fit of
    ``stack``, so the first iteration decomposes nothing and every frame
    covers the present rows only.  Their logs and Newton terms are gathered
    back into every row of ``mats`` that repeats them.
    """
    gradient_norm = np.inf

    def sqrt_in_cone(eigvals):
        if eigvals.min() <= 0:
            raise ConvergenceError(
                "intrinsic mean iterate left the SPD cone", gradient_norm
            )
        return np.sqrt(eigvals)

    def frame_at(mean, stack):
        root, inv_root = eig_apply(mean, sqrt_in_cone, lambda e: 1.0 / np.sqrt(e))
        decomposed = eig_decompose(whiten(inv_root, stack), np.log)
        return TangentFrame(mean, root, inv_root, stack, *decomposed)

    if start is None:
        frame, inverse = frame_at(symmetrize(mats.mean(axis=0)), mats), slice(None)
    else:
        full, rows = start
        counts = np.bincount(rows, minlength=len(full.mats))
        present = np.flatnonzero(counts)
        inverse = (np.cumsum(counts > 0) - 1)[rows]
        restricted = (a[present] for a in (full.mats, full.eigvals, full.eigvecs, full.logs))
        frame = TangentFrame(full.mean, full.root, full.inv_root, *restricted)

    for iteration in range(MAX_ITERATIONS):
        gradient = frame.logs[inverse].mean(axis=0)
        gradient_norm = float(np.linalg.norm(gradient))
        if gradient_norm <= GRADIENT_TOLERANCE:
            return frame.mean, frame.inv_root, iteration, gradient_norm, frame
        step = _newton_step(gradient, frame.eigvecs, _log_weights(frame.eigvals), inverse)
        frame = frame_at(symmetrize(frame.root @ spd_expm(step) @ frame.root), frame.mats)
    raise ConvergenceError(
        f"intrinsic mean did not converge in {MAX_ITERATIONS} iterations "
        f"(gradient norm {gradient_norm:.3e})",
        gradient_norm,
    )


def _deviations(mean, inv_root, mats) -> np.ndarray:
    """Residual matrices: whitened by ``inv_root`` minus the identity, or
    entrywise differences from ``mean`` when there is no whitening (flat)."""
    if inv_root is None:
        return mats - mean
    return whiten(inv_root, mats) - np.eye(mean.shape[-1])


def frechet_mean(mats) -> np.ndarray:
    """Intrinsic mean of SPD matrices under the affine-invariant metric.

    Newton iteration on the zero of the gradient
    ``G = mean_s logm(W_s)``, ``W_s = M^-1/2 A_s M^-1/2``, started at the
    arithmetic mean and stopped once the Frobenius norm of ``G`` is at most
    ``GRADIENT_TOLERANCE``.  Each step is ``M <- M^1/2 expm(X) M^1/2``,
    where ``X`` solves ``H[X] = G`` by conjugate gradients and ``-H`` is the
    derivative of the mean log of ``e^-X/2 W_s e^-X/2`` at ``X = 0`` (the
    Daleckii-Krein form of the derivative of ``logm``).  ``H >= I``, so the
    step is never longer than the unit step ``X = G`` of the plain
    fixed-point iteration.  It converges quadratically: 2-3 iterations for
    populations clustered around a common center, 3-4 for widely spread
    ones (condition number 1e6).  Each row of ``mats`` is decomposed once
    per iteration.  The iteration count and the gradient norm at exit are
    kept on the model of :func:`fit_from_matrices`.

    Parameters
    ----------
    mats : sequence of (n, n) SPD arrays

    Raises
    ------
    ConvergenceError
        If the tolerance is not met within ``MAX_ITERATIONS``; carries the
        last gradient norm.
    """
    return _frechet(validate_spd_stack(mats))[0]


def reconstruct(group_mean, deviation) -> np.ndarray:
    """Place tangent deviations ``(..., n, n)`` back at the group mean:
    ``mean^1/2 (I + deviation) mean^1/2``.  Inverse of the tangent
    :meth:`GroupModel.project`, whose coordinates ``vec_unembed`` unpacks."""
    root, _ = spd_sqrtm(group_mean)
    return symmetrize(root @ (np.eye(root.shape[0]) + symmetrize(deviation)) @ root)


def subject_stack(subjects, n: int, region_names) -> np.ndarray:
    """The ``(k, n, n)`` stack of subjects to score against controls of
    ``n`` regions named ``region_names`` (None when unknown).

    Subjects are estimated as the controls are, by
    :func:`as_correlation_matrices`: `TimeSeries` or SPD arrays.  Raises
    ``InvalidInputError`` for an array that is not a stack, for another
    dimension than ``n``, and for region names that differ from the
    controls' in names or in column order when both are known.
    """
    if isinstance(subjects, np.ndarray) and subjects.ndim != 3:
        raise InvalidInputError(f"subjects have shape {subjects.shape}, controls are {(n, n)}")
    mats, names = as_correlation_matrices(subjects)
    if mats.shape[1:] != (n, n):
        raise InvalidInputError(f"subjects have shape {mats.shape}, controls are {(n, n)}")
    if names is not None and region_names is not None and names != tuple(region_names):
        raise InvalidInputError(
            f"subject regions {names} differ from the controls' {tuple(region_names)}"
        )
    return mats


@dataclass(frozen=True)
class GroupModel:
    """Fitted group model: central matrix, isotropic dispersion, residuals.

    ``sigma`` is the root mean square of the residual coordinates, i.e. the
    per-coordinate maximum-likelihood dispersion of the isotropic Gaussian
    on the (tangent or flat) residual space.  ``residuals`` holds the
    residual coordinates of the fitted subjects, one row each.  ``frame``
    is the exit iteration of the tangent fit that made the model, when
    :func:`fit_stack` made it without a warm start; its ``mats`` are the
    fitted subjects.
    """

    mean: np.ndarray
    sigma: float
    n_subjects: int
    parametrization: str = TANGENT
    residuals: np.ndarray | None = None
    region_names: tuple[str, ...] | None = None
    frechet_iterations: int = 0
    gradient_norm: float = 0.0
    frame: TangentFrame | None = field(default=None, repr=False, compare=False)

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
    parametrization: str = TANGENT,
    region_names=None,
    start=None,
) -> GroupModel:
    """Fit the group model to an already validated ``(S, n, n)`` SPD stack.

    The core of :func:`fit_from_matrices`.  The whitening of the last
    Fréchet iteration stays on the model, so projecting new subjects needs
    no further decomposition of the mean, and so does the decomposition of
    the subjects there (``model.frame``).  A tangent fit of a resample
    ``stack = full[rows]`` of a fitted stack ``full`` can start from that
    model's frame, ``start = (model.frame, rows)``: it converges to the same
    mean, to within the gradient tolerance, with one decomposition of the
    mean and of each subject present in ``rows`` fewer.  Its own exit frame
    would cover only the present subjects, so it keeps none.
    """
    check_parametrization(parametrization)
    if stack.shape[0] < 2:
        raise InvalidInputError("need at least 2 subjects to fit a group model")
    if region_names is not None:
        region_names = as_region_names(region_names, stack.shape[-1])
    if parametrization == TANGENT:
        fit = _frechet(stack, start)
    else:
        fit = symmetrize(stack.mean(axis=0)), None, 0, 0.0, None
    mean, inv_root, iterations, gradient_norm, frame = fit
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
        frame=frame if start is None else None,
    )
    model.__dict__["inv_root"] = inv_root  # fills the cached property
    return model


def fit_from_matrices(
    mats,
    parametrization: str = TANGENT,
    region_names=None,
) -> GroupModel:
    """Fit the group model to precomputed SPD matrices.

    Computes the group mean (intrinsic or arithmetic), the per-subject
    residual coordinates, and the dispersion
    ``sigma = sqrt(mean over subjects and coordinates of squared residual
    coordinates)``.
    """
    return fit_stack(validate_spd_stack(mats), parametrization, region_names)


def fit_group_model(
    series,
    parametrization: str = TANGENT,
) -> GroupModel:
    """Fit the group model from subject time series or matrices.

    `TimeSeries` inputs are first turned into well-conditioned correlation
    matrices (shrinkage estimate, then normalization); SPD arrays are used
    directly.
    """
    mats, names = as_correlation_matrices(series)
    return fit_stack(mats, parametrization, region_names=names)


def _log_density(model: GroupModel, mats) -> np.ndarray:
    """Log densities of validated SPD matrices ``(..., n, n)`` under the
    isotropic residual model; one value per matrix."""
    if model.sigma <= 0:
        raise DegenerateModelError(
            "model has zero dispersion; likelihood is degenerate"
        )
    r = model.project(mats)
    d = vec_dim(model.n)
    s2 = model.sigma**2
    # a row product keeps the summation order of a 1-D dot for every row
    sq_norm = (r[..., None, :] @ r[..., :, None])[..., 0, 0]
    return -0.5 * d * np.log(2.0 * np.pi * s2) - 0.5 * sq_norm / s2


def log_likelihood(model: GroupModel, subject) -> float:
    """Log density of a subject under the isotropic residual model.

    ``-(d/2) log(2 pi sigma^2) - ||residual coordinates||^2 / (2 sigma^2)``
    with ``d = n (n + 1) / 2``.  Only differences between likelihoods are
    meaningful; the constant is the Gaussian normalization on the residual
    coordinate space.  ``subject`` is a `TimeSeries` or an SPD matrix,
    taken through :func:`subject_stack` against the model's dimension and
    ``model.region_names``.
    """
    return float(_log_density(model, subject_stack([subject], model.n, model.region_names)[0]))


def leave_one_out_scores(
    subjects,
    others=(),
    parametrization: str = TANGENT,
) -> tuple[np.ndarray, np.ndarray]:
    """Leave-one-out likelihood protocol.

    For each subject ``s``, fit the model on the remaining subjects and
    score ``s`` under it.  Each entry of ``others`` is scored under every
    leave-one-out model and averaged; ``others`` are taken through
    :func:`subject_stack` against the subjects' dimension and region names.

    Returns
    -------
    subject_scores : (S,) array
    other_scores : (len(others),) array
    """
    mats, names = as_correlation_matrices(subjects)
    others = list(others)
    other_mats = subject_stack(others, mats.shape[-1], names) if others else mats[:0]
    s_count = mats.shape[0]
    if s_count < 3:
        raise InvalidInputError("leave-one-out needs at least 3 subjects")
    subject_scores = np.empty(s_count)
    other_scores = np.zeros(len(other_mats))
    for left in range(s_count):
        rest = np.delete(mats, left, axis=0)
        model = fit_stack(rest, parametrization)
        scores = _log_density(model, np.concatenate([mats[left : left + 1], other_mats]))
        subject_scores[left] = scores[0]
        other_scores += scores[1:]
    other_scores /= s_count
    return subject_scores, other_scores
