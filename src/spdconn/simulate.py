"""Synthetic populations under the tangent variability model, and ROC
scoring of pair-level detection.

Controls are drawn by placing isotropic Gaussian tangent noise at a group
matrix; simulated patients additionally receive differences of a chosen
amplitude on a few randomly selected off-diagonal coefficients of the noise
matrix.  The detection pipeline (null build, per-pair tests) is then scored
against the known modified pairs while sweeping the p-value threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigurationError, InvalidInputError
from .geometry import (
    TangentVector,
    clip_spd,
    pair_count,
    tril_pairs,
    validate_spd,
    vec_dim,
    vec_unembed,
)
from .group import (
    TANGENT,
    FrechetConfig,
    check_parametrization,
    fit_from_matrices,
    reconstruct,
)
from .inference import build_null, score


def default_group_correlation(n: int, decay: float = 0.3) -> np.ndarray:
    """Synthetic group correlation matrix with exponentially decaying
    off-diagonals ``decay ** |i - j|``; SPD for ``|decay| < 1``."""
    if not 0 <= abs(decay) < 1:
        raise ConfigurationError("decay must satisfy |decay| < 1")
    idx = np.arange(n)
    return decay ** np.abs(idx[:, None] - idx[None, :])


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one simulated detection experiment.

    ``sigma`` is the per-coordinate deviation of the control tangent noise,
    ``d_sigma`` the amplitude added to each of ``k_diffs`` randomly chosen
    off-diagonal coefficients (random sign) for simulated patients.
    ``sigma_star`` defaults to :func:`default_group_correlation`.
    """

    n: int
    n_controls: int
    sigma: float = 0.1
    d_sigma: float = 0.0
    k_diffs: int = 20
    sigma_star: np.ndarray | None = None
    seed: int = 0
    m: int = 1000
    parametrization: str = TANGENT
    n_patients: int = 10
    max_clip_fraction: float = 0.1

    def __post_init__(self):
        if self.n < 2:
            raise ConfigurationError("n must be >= 2")
        if self.n_controls < 3:
            raise ConfigurationError("need at least 3 controls")
        if not self.sigma > 0:
            raise ConfigurationError("sigma must be > 0")
        if self.d_sigma < 0:
            raise ConfigurationError("d_sigma must be >= 0")
        if not 1 <= self.k_diffs <= pair_count(self.n):
            raise ConfigurationError(
                f"k_diffs must be in [1, {pair_count(self.n)}] for n={self.n}"
            )
        if self.m < 1:
            raise ConfigurationError("m must be >= 1")
        if self.n_patients < 1:
            raise ConfigurationError("n_patients must be >= 1")
        check_parametrization(self.parametrization)
        if self.sigma_star is not None:
            object.__setattr__(self, "sigma_star", validate_spd(self.sigma_star))
            if self.sigma_star.shape != (self.n, self.n):
                raise ConfigurationError(f"sigma_star must be {self.n} x {self.n}")

    def group_matrix(self) -> np.ndarray:
        if self.sigma_star is not None:
            return self.sigma_star
        return default_group_correlation(self.n)


def _clip_each(mats: np.ndarray) -> int:
    """Clip the draws of a stack in place; returns how many were clipped."""
    n_clipped = 0
    # one call per draw: perfbench/layertrace.py matches clip counts to calls
    for k in range(len(mats)):
        mats[k], clipped = clip_spd(mats[k])
        n_clipped += clipped
    return n_clipped


def sample_population(
    cfg: SimConfig, *, rng=None, size: int | None = None
) -> tuple[np.ndarray, int]:
    """Draw a control population from the tangent variability model.

    Each subject is ``root (I + W) root`` where ``root`` is the square root
    of the group matrix and ``W`` has i.i.d. ``N(0, sigma^2)`` orthonormal
    coordinates.  Draws that leave the SPD cone are clipped to the
    eigenvalue floor and counted.

    Returns
    -------
    mats : (size, n, n) array
    n_clipped : int
        Number of clipped matrices.

    Raises
    ------
    ConfigurationError
        If more than ``max_clip_fraction`` of the draws needed clipping
        (the dispersion is too large for the group matrix).
    """
    rng = np.random.default_rng(cfg.seed) if rng is None else rng
    size = cfg.n_controls if size is None else size
    group = cfg.group_matrix()
    n = group.shape[0]
    w = vec_unembed(rng.normal(0.0, cfg.sigma, (size, vec_dim(n))), n)
    mats = reconstruct(group, w)
    n_clipped = _clip_each(mats)
    if n_clipped > cfg.max_clip_fraction * size:
        raise ConfigurationError(
            f"{n_clipped}/{size} draws left the SPD cone: sigma={cfg.sigma} is too "
            f"large for the group matrix (clip fraction > {cfg.max_clip_fraction})"
        )
    return mats, n_clipped


def inject_differences(
    base_residual: TangentVector, cfg: SimConfig, *, rng=None
) -> tuple[TangentVector, tuple[tuple[int, int], ...]]:
    """Add patient differences to a tangent noise matrix.

    Selects ``k_diffs`` distinct off-diagonal pairs uniformly and adds
    ``d_sigma`` with a random sign to each selected coefficient (both
    symmetric entries).  Returns the modified residual and the ground-truth
    pairs ``(i, j)`` with ``j < i``.
    """
    rng = np.random.default_rng(cfg.seed) if rng is None else rng
    n = base_residual.n
    if cfg.k_diffs > pair_count(n):
        raise ConfigurationError("k_diffs exceeds the number of pairs")
    ii, jj = tril_pairs(n)
    chosen = rng.choice(pair_count(n), size=cfg.k_diffs, replace=False)
    signs = rng.choice([-1.0, 1.0], size=cfg.k_diffs)
    w = base_residual.matrix.copy()
    w[ii[chosen], jj[chosen]] += signs * cfg.d_sigma
    w[jj[chosen], ii[chosen]] += signs * cfg.d_sigma
    pairs = tuple(
        (int(i), int(j)) for i, j in zip(ii[chosen], jj[chosen])
    )
    return TangentVector(w), pairs


def sample_time_series(
    cfg: SimConfig, t: int, *, rng=None, size: int | None = None
):
    """Gaussian time series whose population covariances follow the
    variability model; used to exercise the estimation pipeline end to end."""
    from .estimators import TimeSeries

    if t <= cfg.n:
        raise ConfigurationError("need more time points than regions")
    rng = np.random.default_rng(cfg.seed) if rng is None else rng
    mats, _ = sample_population(cfg, rng=rng, size=size)
    out = []
    for m in mats:
        chol = np.linalg.cholesky(m)
        out.append(TimeSeries(rng.standard_normal((t, cfg.n)) @ chol.T))
    return out


def auc(points) -> float:
    """Trapezoidal area under a curve of (FPR, TPR) points ordered by
    threshold."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidInputError("points must be a (k, 2) array of (fpr, tpr)")
    return float(np.trapezoid(pts[:, 1], pts[:, 0]))


@dataclass(frozen=True)
class RocCurve:
    """Detection operating points swept over the p-value threshold grid."""

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float

    @property
    def points(self) -> np.ndarray:
        return np.column_stack([self.fpr, self.tpr])


def simulate_patients(cfg: SimConfig, rng):
    """Patient matrices (control draw + injected differences) and the
    ground-truth label row for each.

    Returns ``(mats, labels, n_clipped)``: the ``(n_patients, n, n)``
    matrices, a boolean ``(n_patients, n (n - 1) / 2)`` array marking the
    modified pairs in canonical order, and the number of clipped draws.
    Unlike control sampling there is no clip-rate abort: large injected
    differences legitimately push a draw toward the cone boundary, and the
    clip just keeps it on the cone.  Clips are counted for reporting.
    """
    group = cfg.group_matrix()
    n = group.shape[0]
    d = vec_dim(n)
    ii, jj = tril_pairs(n)
    pair_index = {(int(i), int(j)): k for k, (i, j) in enumerate(zip(ii, jj))}
    deviations = np.empty((cfg.n_patients, n, n))
    labels = np.zeros((cfg.n_patients, pair_count(n)), dtype=bool)
    for p in range(cfg.n_patients):
        base = TangentVector(vec_unembed(rng.normal(0.0, cfg.sigma, d), n))
        injected, pairs = inject_differences(base, cfg, rng=rng)
        deviations[p] = injected.matrix
        for pair in pairs:
            labels[p, pair_index[pair]] = True
    mats = reconstruct(group, deviations)
    return mats, labels, _clip_each(mats)


def roc_experiment(
    cfg: SimConfig,
    *,
    config: FrechetConfig | None = None,
    n_jobs: int = 1,
    return_details: bool = False,
):
    """Run the full detection pipeline on one simulated experiment.

    Draws controls, builds the bootstrap null, fits the group model, tests
    ``n_patients`` simulated patients, and scores the per-pair p-values
    against the known injected pairs, pooling over patients and pairs while
    sweeping the threshold over the full grid the empirical null can
    resolve.  Deterministic given ``cfg`` (including the seed).

    Returns a `RocCurve`; with ``return_details=True`` also returns a dict
    with the pooled scores, labels, and the mean per-patient count of pairs
    with raw p below 0.05.
    """
    seq = np.random.SeedSequence(cfg.seed)
    ss_controls, ss_patients, ss_null = seq.spawn(3)
    controls, _ = sample_population(cfg, rng=np.random.default_rng(ss_controls))
    null_seed = int(ss_null.generate_state(1, np.uint64)[0])
    null = build_null(
        controls,
        cfg.m,
        null_seed,
        parametrization=cfg.parametrization,
        config=config,
        n_jobs=n_jobs,
    )
    model = fit_from_matrices(controls, config, cfg.parametrization)
    patients, labels, patients_clipped = simulate_patients(
        cfg, np.random.default_rng(ss_patients)
    )
    _, scores = score(model, null, patients)

    flat_scores = scores.ravel()
    flat_labels = labels.ravel()
    thresholds = np.arange(cfg.m + 2) / (cfg.m + 1)
    detected = flat_scores[None, :] <= thresholds[:, None]
    tpr = detected[:, flat_labels].mean(axis=1)
    fpr = detected[:, ~flat_labels].mean(axis=1)
    curve = RocCurve(
        thresholds=thresholds,
        fpr=fpr,
        tpr=tpr,
        auc=auc(np.column_stack([fpr, tpr])),
    )
    if not return_details:
        return curve
    details = {
        "scores": scores,
        "labels": labels,
        "mean_raw_detections": float((scores < 0.05)[labels].sum() / cfg.n_patients),
        "null_failures": null.n_failures,
        "patients_clipped": patients_clipped,
    }
    return curve, details


def cell_seed(base_seed: int, index: int) -> int:
    """Derived per-cell seed for grids of experiments; stable and
    decorrelated across cells."""
    return int(np.random.SeedSequence([base_seed, index]).generate_state(1, np.uint64)[0])
