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

    @cached_property
    def weights(self) -> np.ndarray:
        """The :func:`_log_weights` of ``eigvals``, computed once."""
        return _log_weights(self.eigvals)


# Exit certificate of a warm-started fit (:func:`_exit_bound`).  A member
# with two eigenvalues whose relative gap t = |e_i - e_j| / (e_i + e_j) is at
# most _NEAR gets no certificate, so the fit decomposes its members once more
# and returns the same mean: 3 of 900 bootstrap refits at n=33 had one.
# The bound carries a floating-point slack of _ROUNDING * n * eps times the
# members' mean condition number, over 500 times the largest excess of
# |estimate - decomposed gradient| over the remainder bound in the tests'
# fits (1.9 n eps times that condition number, golden inputs at n=12).
_NEAR = 2.0**-16
_ROUNDING = 2.0**10
_EPS = np.finfo(np.float64).eps


def _exit_bound(frame, step, gradient, inverse) -> tuple[float, float]:
    """Bound the gradient norm after the Newton ``step`` taken at ``frame``
    (with ``gradient`` there), without decomposing a member again; returns
    the estimate ``|G^|`` of that norm and the bound.

    At the new mean ``root e^step root`` the whitened members are
    ``U e^(-step/2) W_s e^(-step/2) U.T`` for one orthogonal ``U``.  In the
    eigenbasis ``W_s = v Lam v.T`` that is ``Lam + E`` with
    ``E = F Lam F - Lam``, ``F = v.T e^(-step/2) v``, and
    ``log(Lam + E) = log Lam + L[E] + L2[E] + R``:

    - ``L[E] = D * E``, with ``D = 2 K / (lam_i + lam_j)`` the first
      divided differences of log and ``K`` the frame's weights;
    - ``L2[E]_ij = sum_k log[lam_i, lam_k, lam_j] E_ik E_kj``, which is
      ``((D * E) E - E (D * E))_ij / (lam_i - lam_j)`` off the diagonal
      (Higham, *Functions of Matrices*, 2008, ch. 3 and 11);
    - ``R = int_0^inf P^1/2 B^3 (I + B)^-1 P^1/2 dt`` with
      ``P = (Lam + t)^-1`` and ``B = P^1/2 E P^1/2``, from
      ``log A = int_0^inf (1 + t)^-1 - (A + t)^-1 dt``.  The norms of
      ``B`` are at most ``lam_max / (lam_max + t)`` times those of
      ``B_0 = Lam^-1/2 E Lam^-1/2``, and
      ``int_0^inf (c / (c + t))^3 / (b + t) dt <= 1/3 + log(c / b)``, so
      with ``beta = |B_0|_F < 1`` and ``k = lam_max / lam_min``,
      ``|R|_F <= beta^3 (1/3 + log k) / (1 - beta)``.

    ``G^ = G + mean_s v (L[E] + L2[E]) v.T`` and the bound is
    ``|G^| + mean_s |R| + slack``.  ``e^(-step/2) - I`` is summed to its
    fourth power; the slack holds the truncation and the rounding of both
    this estimate and a decomposed gradient.  A step too long for the
    slack, a member with two eigenvalues within relative gap ``_NEAR``
    (whose ``L2[E]`` the quotient above cannot give), or a step that could
    leave the cone (``beta >= 1``), gets an infinite bound.
    """
    lam, vecs = frame.eigvals, frame.eigvecs
    kappa = lam[..., -1] / lam[..., 0]
    half = -0.5 * step
    h = float(np.linalg.norm(half))
    truncation = h**5 / 120.0 * np.exp(h)  # of the series below
    # the truncation moves the estimate by less than 3 kappa times its size
    slack = float(kappa[inverse].mean()) * (_ROUNDING * lam.shape[-1] * _EPS + 3.0 * truncation)
    # eigenvalues ascend, so a near pair is a near adjacent pair
    near = np.diff(lam, axis=-1) <= _NEAR * (lam[..., 1:] + lam[..., :-1])
    if not slack <= GRADIENT_TOLERANCE or near.any():
        return np.inf, np.inf
    term = series = half
    for power in (2, 3, 4):
        term = term @ half / power
        series = series + term
    vecs_t = np.swapaxes(vecs, -1, -2)
    lam_i, lam_j = lam[..., :, None], lam[..., None, :]
    # five (k, n, n) buffers, updated in place: a fresh array costs more
    # than the arithmetic on it.  One block of five would raise the
    # allocator's mmap threshold, and with it the memory kept after a fit.
    work, first, e, gap, second = (np.empty_like(vecs) for _ in range(5))
    y = np.matmul(vecs_t, np.matmul(series, vecs, out=work), out=first)  # F - I
    y_lam = np.multiply(y, lam_j, out=work)
    np.matmul(y_lam, y, out=e)
    e += y_lam
    e += np.multiply(y, lam_i, out=y)  # E = Y Lam + Lam Y + Y Lam Y, Y = F - I
    d = np.add(lam_i, lam_j, out=work)
    np.divide(frame.weights, d, out=d)
    d *= 2.0
    np.multiply(d, e, out=first)
    np.subtract(lam_i, lam_j, out=gap)
    diagonal = np.arange(lam.shape[-1])
    off = ~np.eye(lam.shape[-1], dtype=bool)
    # log[lam_i, lam_k, lam_i]; -1 / (2 lam_i^2) at k = i
    dd = np.subtract(d[..., diagonal, diagonal, None], d, out=second)
    np.divide(dd, gap, out=dd, where=off)
    dd[..., diagonal, diagonal] = -0.5 / lam**2
    dd *= e
    dd *= e
    diagonal_sums = dd.sum(axis=-1)
    np.matmul(first, e, out=second)
    second -= np.matmul(e, first, out=work)
    np.divide(second, gap, out=second, where=off)
    second[..., diagonal, diagonal] = diagonal_sums
    first += second
    first *= (np.bincount(inverse, minlength=len(lam)) / len(inverse))[:, None, None]
    np.matmul(np.matmul(vecs, first, out=work), vecs_t, out=second)
    estimate = float(np.linalg.norm(gradient + second.sum(axis=0)))
    root = np.sqrt(lam)
    relative = np.divide(e, np.multiply(root[..., :, None], root[..., None, :], out=work), out=work)
    beta = np.sqrt(np.einsum("sij,sij->s", relative, relative))
    if not beta.max() < 1.0:
        return estimate, np.inf
    remainder = beta**3 * (1.0 / 3.0 + np.log(kappa)) / (1.0 - beta)
    return estimate, estimate + float(remainder[inverse].mean()) + slack


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

    A warm-started fit also bounds the gradient after each step from the
    frame that took it (:func:`_exit_bound`).  A bound within the tolerance
    ends the fit at the new mean with the iteration count the decomposed
    check would give, without decomposing the members there: the returned
    gradient norm is then the bound's estimate and there is no exit frame.
    """
    gradient_norm = np.inf

    def sqrt_in_cone(eigvals):
        if eigvals.min() <= 0:
            raise ConvergenceError(
                "intrinsic mean iterate left the SPD cone", gradient_norm
            )
        return np.sqrt(eigvals)

    def roots(mean):
        return eig_apply(mean, sqrt_in_cone, lambda e: 1.0 / np.sqrt(e))

    def frame_at(mean, stack):
        root, inv_root = roots(mean)
        decomposed = eig_decompose(whiten(inv_root, stack), np.log)
        return TangentFrame(mean, root, inv_root, stack, *decomposed)

    if start is None:
        frame, inverse = frame_at(symmetrize(mats.mean(axis=0)), mats), slice(None)
    else:
        full, rows = start
        present, inverse = np.unique(rows, return_inverse=True)
        restricted = (a[present] for a in (full.mats, full.eigvals, full.eigvecs, full.logs))
        frame = TangentFrame(full.mean, full.root, full.inv_root, *restricted)
        frame.__dict__["weights"] = full.weights[present]  # fills the cached property

    for iteration in range(MAX_ITERATIONS):
        gradient = frame.logs[inverse].mean(axis=0)
        gradient_norm = float(np.linalg.norm(gradient))
        if gradient_norm <= GRADIENT_TOLERANCE:
            return frame.mean, frame.inv_root, iteration, gradient_norm, frame
        step = _newton_step(gradient, frame.eigvecs, frame.weights, inverse)
        mean = symmetrize(frame.root @ spd_expm(step) @ frame.root)
        # the decomposed check after the last step allowed is never made
        if start is not None and iteration + 1 < MAX_ITERATIONS:
            estimate, bound = _exit_bound(frame, step, gradient, inverse)
            if bound <= GRADIENT_TOLERANCE:
                return mean, roots(mean)[1], iteration + 1, estimate, None
        frame = frame_at(mean, frame.mats)
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
    kept on the model of :func:`fit_from_matrices`; that norm is the exact
    mean log at the returned mean, computed from a decomposition of every
    member there.  Only a warm-started bootstrap refit (:func:`fit_stack`'s
    ``start``) may end on a certified bound of it instead.

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
    fitted subjects.  ``frechet_iterations`` and ``gradient_norm`` are the
    tangent fit's iteration count and the Frobenius norm of its gradient
    (the mean log of the whitened subjects) at exit; for a warm-started fit
    that ended on its exit certificate, ``gradient_norm`` is the
    certificate's estimate, within its remainder bound of the exact norm.
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
    mean and of each subject present in ``rows`` fewer.  It ends on a
    certified bound of its exit gradient when that bound is within the
    tolerance (:func:`_exit_bound`), so a two-step refit decomposes each
    present subject once; its mean, whitening, residuals and iteration
    count are those of decomposing, and ``gradient_norm`` is the bound's
    estimate.  Its own exit frame would cover only the present subjects, so
    it keeps none.
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
