"""Coefficient-level tests of one subject against a control group.

The null distribution of the per-pair statistic is built nonparametrically:
each bootstrap iteration leaves one control out, refits the group model on a
resampled surrogate population, projects everybody into the surrogate
residual frame, and records the left-out subject's statistic for every
region pair.  Observed statistics for a test subject are then converted to
empirical two-sided p-values against the pooled per-pair nulls and
Bonferroni-corrected over the ``n (n - 1) / 2`` tests.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .estimators import as_correlation_matrices
from .exceptions import ConvergenceError, InvalidInputError, NearSingularError
from .group import (
    TANGENT,
    FrechetConfig,
    GroupModel,
    check_parametrization,
    fit_stack,
)
from .geometry import pair_count, tril_pairs

# Pairs whose statistic is constant across controls would blow up the
# normalization; the standard deviation is floored instead.
SD_FLOOR = 1e-12


def t_statistic(controls, patient_value):
    """One-sample prediction-style statistic of patient values against
    control values.

    ``(patient - mean(controls)) / (sd(controls) * sqrt(1 + 1/S))`` with the
    unbiased (1/(S-1)) standard deviation, floored at ``SD_FLOOR``.
    ``controls`` is ``(S,)`` or ``(S, P)`` with one column per coordinate;
    ``patient_value`` broadcasts against a control row.
    """
    c = np.asarray(controls, dtype=np.float64)
    if c.ndim not in (1, 2) or c.shape[0] < 2:
        raise InvalidInputError("need at least 2 control values")
    sd = np.maximum(c.std(axis=0, ddof=1), SD_FLOOR)
    return (patient_value - c.mean(axis=0)) / (sd * math.sqrt(1.0 + 1.0 / c.shape[0]))


def empirical_pvalue(t, null_values):
    """Two-sided empirical p-value with add-one smoothing.

    ``p = (1 + #{v in null : |v| >= |t|}) / (m + 1)``; always in
    ``(0, 1]`` and monotone non-increasing in ``|t|``.  ``null_values`` is
    ``(m,)`` or ``(m, P)`` with one column per coordinate of ``t``.
    """
    null = np.asarray(null_values, dtype=np.float64)
    if null.size == 0:
        raise InvalidInputError("empty null sample")
    exceed = (np.abs(null) >= np.abs(t)).sum(axis=0)
    return (1.0 + exceed) / (null.shape[0] + 1.0)


@dataclass(frozen=True)
class NullDistribution:
    """Per-pair bootstrap null statistics.

    ``values[k, p]`` is the statistic from bootstrap iteration ``k`` for the
    off-diagonal pair ``p`` in canonical (row-major lower-triangle) order.
    """

    n: int
    m: int
    values: np.ndarray
    parametrization: str = TANGENT
    seed: int | None = None
    n_failures: int = 0

    def __post_init__(self):
        expected = (self.m, pair_count(self.n))
        if self.values.shape != expected:
            raise InvalidInputError(
                f"null values have shape {self.values.shape}, expected {expected}"
            )
        if not np.all(np.isfinite(self.values)):
            raise InvalidInputError("null distribution contains non-finite values")


@dataclass(frozen=True)
class PairTest:
    """Result of one pair-level test (indices satisfy j < i)."""

    i: int
    j: int
    t: float
    p_raw: float
    p_corrected: float
    direction: int


@dataclass(frozen=True)
class TestReport:
    """All pair-level tests for one subject against the control group."""

    subject_id: str
    alpha: float
    pairs: tuple[PairTest, ...]
    region_names: tuple[str, ...] | None = None
    parametrization: str = TANGENT

    @property
    def significant_pairs(self) -> tuple[PairTest, ...]:
        return tuple(p for p in self.pairs if p.p_corrected < self.alpha)

    def n_significant(self, corrected: bool = True) -> int:
        if corrected:
            return len(self.significant_pairs)
        return sum(p.p_raw < self.alpha for p in self.pairs)


_FIT_FAILURES = (ConvergenceError, NearSingularError, np.linalg.LinAlgError)


def _null_rows(args):
    """Bootstrap iterations [start, stop) of the null; order-independent.

    Every iteration draws from its own generator seeded by (seed,
    iteration), so results do not depend on how iterations are distributed
    over workers.  Returns the statistic rows and the per-iteration count of
    discarded (failed) fits.
    """
    mats, start, stop, m, seed, parametrization, config = args
    s_count, n = mats.shape[0], mats.shape[-1]
    n_pairs = pair_count(n)
    rows = np.empty((stop - start, n_pairs))
    failures = np.zeros(stop - start, dtype=np.int64)
    # An iteration that keeps failing is abandoned once it alone would push
    # the total failure rate over the abort threshold.
    retry_cap = max(1, math.ceil(0.1 * m) + 1)
    indices = np.arange(s_count)
    for it in range(start, stop):
        rng = np.random.default_rng([seed, it])
        for _ in range(retry_cap):
            left = int(rng.integers(s_count))
            rest = indices[indices != left]
            surrogate = mats[rng.choice(rest, size=s_count, replace=True)]
            try:
                model = fit_stack(surrogate, config, parametrization)
                left_vec = model.project(mats[left])
            except _FIT_FAILURES:
                failures[it - start] += 1
                continue
            rows[it - start] = t_statistic(
                model.residuals[:, :n_pairs], left_vec[:n_pairs]
            )
            break
        else:
            raise ConvergenceError(
                f"bootstrap iteration {it} failed {retry_cap} times in a row"
            )
    return rows, failures


def build_null(
    controls,
    m: int = 1000,
    seed: int = 0,
    *,
    parametrization: str = TANGENT,
    config: FrechetConfig | None = None,
    n_jobs: int = 1,
) -> NullDistribution:
    """Build the per-pair null distribution by leave-one-out bootstrap.

    Parameters
    ----------
    controls : sequence of TimeSeries or SPD arrays
        Control subjects; time series are estimated once up front (the
        per-subject correlation estimate does not depend on the resampling).
    m : int
        Number of bootstrap iterations; every pair receives exactly ``m``
        statistics.
    seed : int
        Master seed; iteration ``k`` uses generator seed ``(seed, k)``, so
        the result is reproducible and independent of execution order or
        parallelism.
    n_jobs : int
        Worker processes (1 = in-process, -1 = all cores).

    Raises
    ------
    ConvergenceError
        If more than 10% of fits fail across the whole run.
    """
    check_parametrization(parametrization)
    if m < 1:
        raise InvalidInputError("bootstrap count m must be >= 1")
    config = config or FrechetConfig()
    mats, _ = as_correlation_matrices(controls)
    if mats.shape[0] < 3:
        raise InvalidInputError("need at least 3 controls to build a null")
    n = mats.shape[-1]

    if n_jobs == -1:
        n_jobs = max(1, len(os.sched_getaffinity(0)))
    n_jobs = max(1, min(n_jobs, m))
    bounds = np.linspace(0, m, 4 * n_jobs + 1).astype(int) if n_jobs > 1 else [0, m]
    tasks = [
        (mats, int(a), int(b), m, seed, parametrization, config)
        for a, b in zip(bounds[:-1], bounds[1:])
        if b > a
    ]
    if n_jobs == 1:
        results = [_null_rows(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            results = list(pool.map(_null_rows, tasks))
    values = np.concatenate([r[0] for r in results])
    n_failures = int(sum(r[1].sum() for r in results))
    if n_failures > 0.1 * m:
        raise ConvergenceError(
            f"{n_failures} failed fits over {m} bootstrap iterations (> 10%)"
        )
    return NullDistribution(
        n=n,
        m=m,
        values=values,
        parametrization=parametrization,
        seed=seed,
        n_failures=n_failures,
    )


def score(model: GroupModel, null: NullDistribution, mats) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair statistics and raw p-values of subjects against the controls.

    ``mats`` is an already validated ``(k, n, n)`` stack; its residuals under
    ``model`` are compared with the control residuals stored on the model,
    then each row of statistics with the null.  Returns ``t`` and ``p``,
    both ``(k, n (n - 1) / 2)`` in canonical pair order.
    """
    n_pairs = pair_count(model.n)
    t = t_statistic(model.residuals[:, :n_pairs], model.project(mats)[:, :n_pairs])
    # one row at a time keeps the comparison with the null at (m, P)
    p = np.stack([empirical_pvalue(row, null.values) for row in t])
    return t, p


def test_patient(
    controls,
    patient,
    null: NullDistribution,
    alpha: float = 0.05,
    *,
    subject_id: str = "patient",
    config: FrechetConfig | None = None,
) -> TestReport:
    """Test every region pair of one subject against the control group.

    Fits the group model on the complete control group, projects the
    patient into its residual frame, and scores each pair against the
    matching null column.  Raw p-values are Bonferroni-corrected over the
    ``n (n - 1) / 2`` pairs.
    """
    if not 0 < alpha <= 1:
        raise InvalidInputError(f"alpha must be in (0, 1], got {alpha}")
    mats, names = as_correlation_matrices(controls)
    n = mats.shape[-1]
    if null.n != n:
        raise InvalidInputError(f"null was built for n={null.n}, controls have n={n}")
    model = fit_stack(mats, config, null.parametrization, region_names=names)
    patient_mats, _ = as_correlation_matrices([patient])
    if patient_mats.shape[1:] != model.mean.shape:
        raise InvalidInputError(
            f"patient has shape {patient_mats.shape[1:]}, controls are {model.mean.shape}"
        )
    (t_row,), (p_raw,) = score(model, null, patient_mats)
    n_pairs = pair_count(n)
    p_corr = np.minimum(1.0, p_raw * n_pairs)
    ii, jj = tril_pairs(n)
    pairs = tuple(
        PairTest(
            i=int(ii[k]),
            j=int(jj[k]),
            t=float(t_row[k]),
            p_raw=float(p_raw[k]),
            p_corrected=float(p_corr[k]),
            direction=int(np.sign(t_row[k])),
        )
        for k in range(n_pairs)
    )
    return TestReport(
        subject_id=subject_id,
        alpha=alpha,
        pairs=pairs,
        region_names=model.region_names,
        parametrization=null.parametrization,
    )


# keep pytest from collecting the public API as test callables
test_patient.__test__ = False
TestReport.__test__ = False
