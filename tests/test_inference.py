import itertools
import math
import os
import subprocess
import sys
import threading
import time
import traceback
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from spdconn import (
    ConvergenceError,
    InvalidInputError,
    NearSingularError,
    SimConfig,
    TimeSeries,
    build_null,
    correlation_matrix,
    empirical_pvalue,
    fit_from_matrices,
    fit_group_model,
    log_likelihood,
    pair_count,
    sample_population,
    sample_time_series,
    t_statistic,
    test_patient,
)
from spdconn import group, inference
from spdconn.group import fit_stack
from spdconn.inference import (
    _DRAW_CHUNK, _FLAT_BLOCK, SD_FLOOR, _null_chunk, _refit_row, _resample_range,
    _resamples, _statistics, _t_rows, bonferroni_floor, check_alpha, degenerate_floor, score_subjects,
)
from golden import CASES, case_inputs
from test_group import cold_frechet, spy_exit_bounds


@pytest.fixture(scope="module")
def control_mats():
    cfg = SimConfig(n=8, n_controls=12, sigma=0.08, seed=11, k_diffs=4)
    mats, _ = sample_population(cfg)
    return mats


@pytest.fixture(scope="module")
def two_chunk_mats():
    """A small tangent population whose null of ``_DRAW_CHUNK + 10`` rows
    spans two draw chunks in about a second; with eight controls, distinct
    iterations draw distinct resamples."""
    mats, _ = sample_population(SimConfig(n=4, n_controls=8, sigma=0.1, seed=3, k_diffs=2))
    return mats


@pytest.fixture(scope="module")
def named_series():
    """Six time series with region names, five regions each."""
    return sample_time_series(SimConfig(n=5, n_controls=6, sigma=0.08, seed=42, k_diffs=3), t=60)


def run_script(script: str, path: Path, *args: str, **variables: str) -> Path:
    """Run ``script`` in a fresh Python process, with ``path`` and ``args``
    as its arguments and ``variables`` added to this process's
    environment; returns ``path``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, **variables)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", script, str(path), *args], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return path


class TestTStatistic:
    def test_patient_at_control_mean(self):
        assert t_statistic([1.0, 2.0, 3.0], 2.0) == 0.0

    def test_hand_case(self):
        # mean 2, sd 1, sqrt(1 + 1/3) normalization
        t = t_statistic([1.0, 2.0, 3.0], 4.0)
        assert np.isclose(t, 2.0 / np.sqrt(4.0 / 3.0))
        assert np.isclose(t, np.sqrt(3.0))

    def test_antisymmetry(self, rng):
        c = rng.standard_normal(10).tolist()
        v = 1.7
        assert np.isclose(t_statistic(c, v), -t_statistic([-x for x in c], -v))

    def test_constant_controls_floored(self):
        t = t_statistic([1.0, 1.0, 1.0], 2.0)
        assert np.isfinite(t) and t > 1e10

    def test_needs_two_controls(self):
        with pytest.raises(InvalidInputError):
            t_statistic([1.0], 0.0)

    def test_same_bits_for_any_layout(self, rng):
        # the sums run row by row, so a Fortran-ordered copy of the controls,
        # as vec_embed returns residuals, gives the same statistic
        controls = rng.standard_normal((20, 528))
        patient = rng.standard_normal(528)
        assert np.array_equal(
            t_statistic(controls, patient), t_statistic(np.asfortranarray(controls), patient)
        )

    def test_columns_match_single_column_calls(self, rng):
        controls = rng.standard_normal((12, 7))
        patient = rng.standard_normal(7)
        columns = [t_statistic(controls[:, k], patient[k]) for k in range(7)]
        np.testing.assert_allclose(t_statistic(controls, patient), columns, rtol=1e-12)

    def test_written_into_an_array_keeps_its_bytes(self, rng):
        s_count = 20
        mean, value = rng.normal(size=(2, _FLAT_BLOCK, 37))
        squares = rng.random((_FLAT_BLOCK, 37))
        squares[3] = 0.0  # a resample of one control has no spread
        squares[5, :4] = 1e-30  # a spread below the floor
        # the formula as it read before it could write into an array
        formula = (value - mean) / (np.maximum(np.sqrt(squares / (s_count - 1)), SD_FLOOR)
                                    * math.sqrt(1.0 + 1.0 / s_count))
        returned = _t_rows(mean, squares.copy(), value, s_count)
        out = np.full_like(value, np.nan)
        assert _t_rows(mean, squares.copy(), value, s_count, out=out) is out
        assert out.tobytes() == returned.tobytes() == formula.tobytes()
        assert np.abs(out[3]).min() > 1e9 and np.abs(out[5, :4]).min() > 1e9
        assert type(t_statistic([1.0, 2.0, 3.0], 4.0)) is np.float64


class TestEmpiricalPvalue:
    def test_zero_statistic_symmetric_null(self):
        assert empirical_pvalue(0.0, [-2.0, -1.0, 1.0, 2.0]) == 1.0

    def test_extreme_statistic(self):
        m = 19
        null = np.linspace(-1.0, 1.0, m)
        assert empirical_pvalue(5.0, null) == 1.0 / (m + 1)

    def test_counting_formula(self):
        assert empirical_pvalue(1.0, [-1.0, 1.0]) == 1.0

    def test_monotone_in_magnitude(self, rng):
        null = rng.standard_normal(100)
        ts = np.linspace(0.0, 4.0, 30)
        ps = [empirical_pvalue(t, null) for t in ts]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_never_zero(self, rng):
        null = rng.standard_normal(50)
        assert empirical_pvalue(1e9, null) > 0.0

    def test_columns_match_single_column_calls(self, rng):
        null = rng.standard_normal((30, 6))
        t = np.array([0.0, 0.5, -1.0, 2.0, 10.0, null[3, 5]])
        columns = [empirical_pvalue(t[k], null[:, k]) for k in range(6)]
        assert empirical_pvalue(t, null).tolist() == columns
        rows = np.stack([t, -t, null[7]])  # ties with null values included
        dense = (1.0 + (np.abs(null) >= np.abs(rows[:, None, :])).sum(axis=1)) / 31.0
        assert np.array_equal(empirical_pvalue(rows, null), dense)
        assert np.array_equal(empirical_pvalue(rows, null)[1], empirical_pvalue(rows[1], null))

    def test_empty_null_raises(self):
        with pytest.raises(InvalidInputError):
            empirical_pvalue(1.0, [])

    def test_nan_statistic_raises_and_infinite_one_is_most_extreme(self):
        null = np.linspace(-3.0, 3.0, 99 * 3).reshape(99, 3)
        with pytest.raises(InvalidInputError, match="statistic is NaN"):
            empirical_pvalue(np.array([np.nan, 0.0, np.inf]), null)
        with pytest.raises(InvalidInputError, match="statistic is NaN"):
            empirical_pvalue(np.nan, null[:, 0])
        assert empirical_pvalue(np.array([np.inf, 0.0, -np.inf]), null).tolist() == [0.01, 1.0, 0.01]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_null_raises(self, bad):
        with pytest.raises(InvalidInputError, match="non-finite"):
            empirical_pvalue(5.0, [bad, 1.0, 2.0])
        null = np.linspace(-3.0, 3.0, 30).reshape(10, 3)
        null[4, 1] = bad
        with pytest.raises(InvalidInputError, match="non-finite"):
            empirical_pvalue(np.zeros(3), null)

    @pytest.mark.parametrize(
        "m", [1, _DRAW_CHUNK - 1, _DRAW_CHUNK, _DRAW_CHUNK + 1, 2 * _DRAW_CHUNK + 3]
    )
    def test_row_slices_match_the_dense_count(self, rng, m):
        P = 5
        null = np.round(rng.standard_normal((m, P)), 1)  # one decimal: many ties
        t = np.stack([
            null[m // 2], -null[-1], np.round(rng.standard_normal(P), 1),
            np.full(P, np.inf), np.full(P, -np.inf),
        ])
        dense = (1.0 + (np.abs(null) >= np.abs(t[:, None, :])).sum(axis=1)) / (m + 1)
        assert np.array_equal(empirical_pvalue(t, null), dense)
        assert np.array_equal(empirical_pvalue(t[1], null), dense[1])
        assert np.array_equal(dense[3:], np.full((2, P), 1 / (m + 1)))
        # a 1-D null scores every coordinate of a (k, P) t against its one column
        column = null[:, -1]
        dense = (1.0 + (np.abs(column) >= np.abs(t[..., None])).sum(axis=-1)) / (m + 1)
        assert np.array_equal(empirical_pvalue(t, column), dense)

    @pytest.mark.parametrize("t_shape, null_shape", [
        ((3,), (10, 4)), ((2, 3), (10, 4)), ((3,), (10, 1)), ((), (5, 2, 2)), ((), ()),
    ])
    def test_statistic_that_does_not_fit_a_null_row_raises(self, t_shape, null_shape):
        # a (3,) statistic against one null column would score only its first
        # entry; a null that is neither (m,) nor (m, P) has no row to fit
        with pytest.raises(InvalidInputError) as err:
            empirical_pvalue(np.zeros(t_shape), np.zeros(null_shape))
        if len(null_shape) in (1, 2):
            assert str(err.value).startswith(f"statistic of shape {t_shape} does not fit")
        else:
            assert str(err.value) == f"null values have shape {null_shape}, expected (m,) or (m, P)"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_null_in_the_last_slice_raises(self, bad):
        m, P = 2 * _DRAW_CHUNK + 3, 3
        null = np.linspace(-3.0, 3.0, m * P).reshape(m, P)
        null[m - 2, P - 1] = bad
        with pytest.raises(InvalidInputError, match="non-finite"):
            empirical_pvalue(np.zeros(P), null)
        with pytest.raises(InvalidInputError, match="non-finite"):
            empirical_pvalue(0.0, null[:, P - 1])

    @pytest.mark.parametrize("shape", [(2 * _DRAW_CHUNK + 3,), (2 * _DRAW_CHUNK + 3, 4)])
    def test_leaves_the_null_unchanged(self, rng, shape):
        # the counting kernel sorts the rows it is given: they are copies
        null = rng.standard_normal(shape)
        before = null.tobytes()
        t = rng.standard_normal((3, *shape[1:]))
        dense = (1.0 + (np.abs(null) >= np.abs(t[:, None])).sum(axis=1)) / (shape[0] + 1)
        assert np.array_equal(empirical_pvalue(t, null), dense)
        assert null.tobytes() == before


class TestBuildNull:
    def test_counts_and_shape(self, control_mats):
        null = build_null(control_mats, m=17, seed=5)
        assert null.values.shape == (17, pair_count(8))
        assert np.all(np.isfinite(null.values))
        assert null.m == 17 and null.n == 8

    def test_determinism_and_seed_sensitivity(self, control_mats):
        a = build_null(control_mats, m=10, seed=3)
        b = build_null(control_mats, m=10, seed=3)
        c = build_null(control_mats, m=10, seed=4)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_bits_are_fixed_at_a_fixed_blas_thread_count(self, tmp_path):
        # at n=100 OpenBLAS splits products over its threads, which moves
        # the rounding: the bits are the same only at the same thread count.
        # One BLAS thread lets every usable core run a worker; the bits are
        # those of one process.
        script = (
            "import sys, numpy as np\n"
            "from spdconn import SimConfig, build_null, inference, sample_population\n"
            "if sys.argv[2] == 'serial':\n"
            "    inference._worker_count = lambda m: 1\n"
            "cfg = SimConfig(n=100, n_controls=20, sigma=0.057, k_diffs=1, seed=0)\n"
            "np.save(sys.argv[1], build_null(sample_population(cfg)[0], m=4, seed=0).values)\n"
        )
        nulls = []
        for k, (threads, workers) in enumerate([("1", "serial"), ("1", "any"), ("2", "any"), ("2", "any")]):
            blas = dict.fromkeys(inference._BLAS_THREAD_VARIABLES, threads)
            nulls.append(np.load(run_script(script, tmp_path / f"null{k}.npy", workers, **blas)))
        serial, one, two, again = nulls
        assert np.array_equal(one, serial)
        assert np.array_equal(two, again)
        np.testing.assert_allclose(one, two, rtol=0, atol=1e-10)

    def test_row_depends_only_on_seed_and_iteration(self, control_mats):
        # iteration k draws from generator (seed, k), so a longer run
        # extends a shorter one row for row
        longer = build_null(control_mats, m=12, seed=9)
        shorter = build_null(control_mats, m=6, seed=9)
        assert np.array_equal(longer.values[:6], shorter.values)

    def test_flat_parametrization(self, control_mats):
        null = build_null(control_mats, m=8, seed=2, parametrization="flat")
        assert null.parametrization == "flat"
        assert np.all(np.isfinite(null.values))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_null_distribution_refuses_non_finite_values(self, control_mats, bad):
        null = build_null(control_mats, m=6, seed=1, parametrization="flat")
        values = null.values.copy()
        values[5, -1] = bad
        with pytest.raises(InvalidInputError, match="null distribution contains non-finite"):
            replace(null, values=values)

    @pytest.mark.parametrize("shape", [(6, 27), (6, 29), (28,), (1, 6, 28)])
    def test_null_distribution_refuses_values_of_the_wrong_shape(self, control_mats, shape):
        model = fit_from_matrices(control_mats, parametrization="flat")
        with pytest.raises(InvalidInputError) as err:
            inference.NullDistribution(model, np.zeros(shape))
        assert str(err.value) == f"null values have shape {shape}, expected (m, 28)"

    def test_needs_three_controls(self, control_mats):
        with pytest.raises(InvalidInputError):
            build_null(control_mats[:2], m=5, seed=0)

    @pytest.mark.usefixtures("one_worker")
    @pytest.mark.parametrize("build", [
        lambda stack: build_null(stack, m=5),
        lambda stack: score_subjects(stack, stack[:1], 5),
    ], ids=["build_null", "score_subjects"])
    def test_needs_two_regions_before_fitting(self, monkeypatch, build):
        # one region has no pair to test
        fits = []
        monkeypatch.setattr(inference, "fit_stack", lambda *args, **kwargs: fits.append(args))
        with pytest.raises(InvalidInputError, match="need at least 2 regions to test a pair, got 1"):
            build(np.arange(1.0, 5.0).reshape(4, 1, 1))
        assert fits == []

    def test_fit_and_likelihood_take_one_region(self):
        stack = np.arange(1.0, 5.0).reshape(4, 1, 1)
        model = fit_from_matrices(stack)
        assert model.n == 1 and model.sigma > 0
        assert np.isfinite(log_likelihood(model, stack[0]))

    def test_null_distribution_refuses_empty_values(self, control_mats):
        null = build_null(control_mats, m=6, seed=1, parametrization="flat")
        with pytest.raises(InvalidInputError, match="empty null distribution"):
            replace(null, values=null.values[:0])
        one_region = fit_from_matrices(np.arange(1.0, 5.0).reshape(4, 1, 1))
        with pytest.raises(InvalidInputError, match="empty null distribution"):
            inference.NullDistribution(one_region, np.empty((6, 0)))

    @pytest.mark.parametrize("parametrization", ["tangent", "flat"])
    @pytest.mark.parametrize("seed", [-1, np.int64(-2), 1.0, "3", True, None])
    def test_rejects_bad_seed_before_estimating(self, control_mats, monkeypatch, parametrization, seed):
        estimated = []
        monkeypatch.setattr(inference, "as_correlation_matrices", estimated.append)
        with pytest.raises(InvalidInputError, match="seed must be a non-negative integer"):
            build_null(control_mats, m=5, seed=seed, parametrization=parametrization)
        assert estimated == []

    @pytest.mark.parametrize("parametrization", ["tangent", "flat"])
    @pytest.mark.parametrize("m", [2.5, True, np.int64(0)])
    def test_rejects_bad_m_before_estimating(self, control_mats, monkeypatch, parametrization, m):
        estimated = []
        monkeypatch.setattr(inference, "as_correlation_matrices", estimated.append)
        with pytest.raises(InvalidInputError, match="m must be an integer >= 1"):
            build_null(control_mats, m=m, seed=0, parametrization=parametrization)
        assert estimated == []

    @pytest.mark.parametrize("parametrization", ["tangent", "flat"])
    def test_numpy_integer_seeds(self, control_mats, parametrization):
        reference = build_null(control_mats, m=6, seed=7, parametrization=parametrization)
        for seed in (np.int32(7), np.uint64(7)):
            null = build_null(control_mats, m=6, seed=seed, parametrization=parametrization)
            assert np.array_equal(null.values, reference.values)

    @pytest.mark.usefixtures("one_worker")
    def test_abort_on_persistent_fit_failure(self, control_mats, monkeypatch):
        refits = failing_refits(monkeypatch, lambda pick: True)
        with pytest.raises(ConvergenceError, match="bootstrap iteration 0 failed 2 times in a row"):
            build_null(control_mats, m=10, seed=0)
        assert len(refits) == 2

    def test_abort_when_over_a_tenth_of_fits_fail(self, control_mats, monkeypatch):
        failing_refits(monkeypatch, first_draws(len(control_mats), seed=0, iterations=[0, 4]))
        with pytest.raises(ConvergenceError, match=r"2 failed fits over 10 bootstrap iterations \(> 10%\)"):
            build_null(control_mats, m=10, seed=0)

    def test_failed_refits_are_retried(self, control_mats, monkeypatch):
        clean = build_null(control_mats, m=30, seed=2)
        failed = [3, 11, 20]
        failing_refits(monkeypatch, first_draws(len(control_mats), seed=2, iterations=failed))
        null = build_null(control_mats, m=30, seed=2)
        assert null.n_failures == len(failed)
        kept = np.setdiff1d(np.arange(30), failed)
        assert np.array_equal(null.values[kept], clean.values[kept])
        # a retried iteration takes the next draw of its own generator
        assert not np.any(np.all(null.values[failed] == clean.values[failed], axis=1))

    @pytest.mark.usefixtures("one_worker")
    def test_retries_across_a_chunk_boundary(self, two_chunk_mats, monkeypatch):
        m, seed, s_count = _DRAW_CHUNK + 10, 5, len(two_chunk_mats)
        clean = build_null(two_chunk_mats, m=m, seed=seed)
        failed = [_DRAW_CHUNK - 1, _DRAW_CHUNK, _DRAW_CHUNK + 3]
        refits = failing_refits(monkeypatch, first_draws(s_count, seed, failed))
        null = build_null(two_chunk_mats, m=m, seed=seed)
        assert null.n_failures == len(refits) == len(failed)
        kept = np.setdiff1d(np.arange(m), failed)
        assert np.array_equal(null.values[kept], clean.values[kept])
        # a retried row is the refit of the second resample of its global k
        for k in failed:
            left, pick = resample_attempt(seed, k, s_count, 1)
            refit = _refit_row(clean.model, left, pick)
            assert np.array_equal(null.values[k], refit)

    @pytest.mark.usefixtures("one_worker")
    def test_abort_names_the_global_iteration(self, two_chunk_mats, monkeypatch):
        m, seed, k = _DRAW_CHUNK + 10, 5, _DRAW_CHUNK + 5
        retry_cap = math.ceil(0.1 * m) + 1
        refits = failing_refits(
            monkeypatch, first_draws(len(two_chunk_mats), seed, [k], attempts=retry_cap)
        )
        with pytest.raises(ConvergenceError, match=f"iteration {k} failed {retry_cap} times in a row"):
            build_null(two_chunk_mats, m=m, seed=seed)
        assert len(refits) == retry_cap

    def test_abort_counts_failures_over_chunks(self, two_chunk_mats, monkeypatch):
        # 52 failures on each side of the chunk boundary: neither chunk alone
        # passes 10% of m, together they do
        m, seed = _DRAW_CHUNK + 10, 5
        either_side = [_DRAW_CHUNK - 1, _DRAW_CHUNK + 1]
        fails = first_draws(len(two_chunk_mats), seed, either_side, attempts=52)
        failing_refits(monkeypatch, fails)
        with pytest.raises(ConvergenceError, match=rf"104 failed fits over {m} .* \(> 10%\)"):
            build_null(two_chunk_mats, m=m, seed=seed)

    @pytest.mark.usefixtures("one_worker")
    def test_control_group_that_does_not_converge_fails_first(self, control_mats, monkeypatch):
        refits = failing_refits(monkeypatch, lambda pick: False)
        # an impossible tolerance makes the fit of the control group fail
        monkeypatch.setattr(group, "MAX_ITERATIONS", 1)
        monkeypatch.setattr(group, "GRADIENT_TOLERANCE", 1e-18)
        with pytest.raises(ConvergenceError, match="did not converge in 1 iterations"):
            build_null(control_mats, m=10, seed=0)
        assert refits == []

    def test_warm_started_refits_match_cold_ones(self, control_mats, monkeypatch):
        warm = build_null(control_mats, m=30, seed=5)
        monkeypatch.setattr(group, "_frechet", cold_frechet)
        cold = build_null(control_mats, m=30, seed=5)
        np.testing.assert_allclose(warm.values, cold.values, rtol=0, atol=1e-7)
        assert warm.n_failures == cold.n_failures == 0

    def test_resamples_of_one_control_with_three_controls(self, monkeypatch):
        # S=3: about a quarter of the resamples draw one control three times;
        # their spread is zero and the floored sd puts the row near 1e11
        mats, _ = sample_population(SimConfig(n=6, n_controls=3, seed=3, k_diffs=2))
        warm = build_null(mats, m=40, seed=0)
        monkeypatch.setattr(group, "_frechet", cold_frechet)
        cold = build_null(mats, m=40, seed=0)
        single = np.array([len(set(pick.tolist())) == 1 for pick in _resample_range(0, 0, 40, 3)[1]])
        assert single.sum() == 7
        assert np.all(np.abs(warm.values[single]) >= 1e9)
        assert np.all(np.abs(warm.values[~single]) < 1e9)
        np.testing.assert_allclose(warm.values[single], cold.values[single], rtol=1e-7)
        np.testing.assert_allclose(warm.values[~single], cold.values[~single], rtol=0, atol=1e-7)


def failing_refits(monkeypatch, fails):
    """Make a bootstrap refit of ``build_null`` raise ``ConvergenceError``
    when ``fails(pick)`` holds for its resample; the fit of the whole
    control group is left alone.  Returns the list of failed resamples."""
    failed = []

    def fit(stack, parametrization="tangent", region_names=None, start=None):
        if start is not None and fails(start[1]):
            failed.append(start[1])
            raise ConvergenceError("forced refit failure", 1.0)
        return fit_stack(stack, parametrization, region_names, start)

    monkeypatch.setattr(inference, "fit_stack", fit)
    return failed


def first_draws(s_count, seed, iterations, attempts=1):
    """A ``fails`` predicate for :func:`failing_refits`: true once for each
    of the first ``attempts`` resamples of each listed bootstrap iteration."""
    pending = {
        resample_attempt(seed, k, s_count, a)[1].tobytes() for k in iterations for a in range(attempts)
    }

    def fails(pick):
        if pick.tobytes() in pending:
            pending.remove(pick.tobytes())
            return True
        return False

    return fails


def resample_attempt(seed, k, s_count, attempt):
    """Resample ``attempt`` of iteration ``k``, the ``(attempt + 1)``-th of its generator."""
    return next(itertools.islice(_resamples(seed, k, s_count), attempt, None))


def numpy_resample(rng, s_count):
    """The reference of the package's draws: the left-out control and the
    surrogate of ``rng.choice(rest, size=s_count)``, with the indices
    shifted past ``left`` instead of looked up in ``rest``."""
    left = int(rng.integers(s_count))
    pick = rng.integers(s_count - 1, size=s_count)
    pick += pick >= left  # skips the left-out control
    return left, pick


def assert_draws_equal(draws, reference):
    assert draws[0] == reference[0]
    assert np.array_equal(draws[1], reference[1])


@pytest.mark.parametrize("s_count", [3, 5, 8, 20])
def test_resample_draws_as_choice_does(s_count):
    for k in range(500):
        ref = np.random.default_rng([9, k])
        left, pick = resample_attempt(9, k, s_count, 0)
        assert left == int(ref.integers(s_count))
        rest = np.delete(np.arange(s_count), left)
        assert np.array_equal(pick, ref.choice(rest, size=s_count, replace=True))
        # a retry continues the same stream
        assert_draws_equal(resample_attempt(9, k, s_count, 1), numpy_resample(ref, s_count))


@pytest.mark.parametrize("s_count", [3, 4, 5, 8, 20, 33])
@pytest.mark.parametrize(
    "seed",
    [0, 1, 7, 2**32 - 1, 2**32, 2**61 + 12345, 2**64 - 1, 2**70 + 3, 2**130 + 9, np.uint64(2**63 + 5)],
)
def test_resample_range_draws_as_numpy_does(seed, s_count):
    # two chunks as both nulls take them, either side of a chunk boundary,
    # and two either side of 2**32, where k becomes two entropy words
    for start, mid, stop in [(_DRAW_CHUNK - 30, _DRAW_CHUNK, _DRAW_CHUNK + 30),
                             (2**32 - 5, 2**32, 2**32 + 5)]:
        chunks = [_resample_range(seed, start, mid, s_count), _resample_range(seed, mid, stop, s_count)]
        left = np.concatenate([c[0] for c in chunks])
        pick = np.concatenate([c[1] for c in chunks])
        for row, k in enumerate(range(start, stop)):
            assert_draws_equal((left[row], pick[row]), numpy_resample(np.random.default_rng([seed, k]), s_count))
    # attempt a is the (a + 1)-th resample of one generator
    for k in (0, 5, 2**32 + 1):
        rng = np.random.default_rng([seed, k])
        for attempt in range(3):
            assert_draws_equal(resample_attempt(seed, k, s_count, attempt), numpy_resample(rng, s_count))


def test_resample_range_redraws_the_rows_numpy_rejects(monkeypatch):
    # every iteration k < 20000 of seed 5 where numpy's bounded sampler
    # rejects a draw at S=3000 and takes one more 32-bit value for it
    s_count, seed = 3000, 5
    rejected = [74, 213, 692, 3133, 4427, 12559, 17797]
    # iterations with a low word at or above numpy's threshold 2**32 % bound
    # but below the bound: numpy takes that value, so nothing is redrawn
    kept = [616, 1323]
    redrawn = []

    def counting(seed, k, s):
        redrawn.append(k)
        return _resamples(seed, k, s)

    monkeypatch.setattr(inference, "_resamples", counting)
    for k in sorted(rejected + kept):
        rng = np.random.default_rng([seed, k])
        reference = numpy_resample(rng, s_count)
        # 1 + S values without a rejection: (S + 2) // 2 outputs, and the
        # high half of the last one kept when 1 + S is odd
        clean = np.random.default_rng([seed, k]).bit_generator
        clean.advance((s_count + 2) // 2)
        state = rng.bit_generator.state
        assert ((state["state"], state["has_uint32"]) != (clean.state["state"], (1 + s_count) % 2)) == (k in rejected)
        (left,), (pick,) = _resample_range(seed, k, k + 1, s_count)
        assert_draws_equal((left, pick), reference)
        assert_draws_equal(resample_attempt(seed, k, s_count, 0), reference)
    assert redrawn == rejected


def test_stream_is_pinned():
    # literal draws, so the stream stays the package's whatever numpy does
    pinned = {  # (seed, k, S, attempt): (left, pick)
        (0, 0, 5, 0): (4, [2, 2, 1, 1, 0]),
        (7, 3, 20, 0): (14, [19, 10, 17, 6, 4, 2, 13, 0, 7, 1, 16, 2, 19, 18, 8, 4, 18, 9, 19, 17]),
        (2**64 - 1, 11, 8, 0): (4, [1, 7, 5, 6, 0, 7, 6, 2]),
        (3, 9, 5, 1): (2, [4, 3, 1, 1, 0]),
        (3, 9, 5, 2): (0, [3, 3, 3, 3, 1]),
        (1, 2**32 + 5, 6, 0): (0, [3, 2, 2, 2, 2, 5]),
    }
    for (seed, k, s_count, attempt), expected in pinned.items():
        assert_draws_equal(resample_attempt(seed, k, s_count, attempt), expected)
    # the first rejection row at S=3000: its left, first and last picks and
    # the sum of its picks
    (range_left,), (range_pick,) = _resample_range(5, 74, 75, 3000)
    for left, pick in [resample_attempt(5, 74, 3000, 0), (range_left, range_pick)]:
        assert (left, pick[:4].tolist(), pick[-4:].tolist(), int(pick.sum())) == (
            1797, [560, 1560, 2190, 1871], [625, 431, 275, 246], 4509902
        )


@pytest.mark.parametrize("s_count", [3, 8, 20, 3000])
def test_resamples_continue_one_generator(s_count):
    # attempt a of iteration k is the (a + 1)-th resample of default_rng([seed, k]);
    # at S=3000 a row reads its stream over about 1,400 blocks of 64 values
    for seed, k in [(0, 0), (7, 1030), (3, 9), (2**64 - 1, 2**32 + 3)]:
        rng = np.random.default_rng([seed, k])
        for draws in itertools.islice(_resamples(seed, k, s_count), 30):
            assert_draws_equal(draws, numpy_resample(rng, s_count))


def test_retries_compute_values_linear_in_attempts(control_mats, monkeypatch):
    # the retries of one iteration read one stream and compute each of its
    # values once: A attempts compute the A (1 + S) values they read, less
    # than one block more, and the chunk's first block
    s_count, seed, k, attempts = len(control_mats), 3, 5, 41
    model = fit_stack(control_mats)
    failing_refits(monkeypatch, first_draws(s_count, seed, [k], attempts=attempts - 1))
    first_blocks, computed = [], []
    streams = inference._streams

    def counting(seed, start, stop, count):
        first_blocks.append((stop - start) * count)
        for words in streams(seed, start, stop, count):
            computed.append(words.size)
            yield words

    monkeypatch.setattr(inference, "_streams", counting)
    out = np.empty((1, pair_count(8)))
    assert _null_chunk(model, seed, k, out, attempts, None) == attempts - 1
    chunk_block, row_block = first_blocks
    assert sum(computed) <= attempts * (1 + s_count) + row_block + chunk_block
    monkeypatch.undo()
    left, pick = resample_attempt(seed, k, s_count, attempts - 1)
    assert np.array_equal(out[0], _refit_row(model, left, pick))


def flat_reference_row(mats, seed, k):
    """Row ``k`` of the flat null the way a per-iteration refit computes it:
    fit the resample, project the left-out control, take the statistic."""
    rng = np.random.default_rng([seed, k])
    s_count = len(mats)
    left = int(rng.integers(s_count))
    rest = np.arange(s_count)[np.arange(s_count) != left]
    model = fit_stack(mats[rng.choice(rest, size=s_count, replace=True)], parametrization="flat")
    n_pairs = pair_count(model.n)
    return t_statistic(model.residuals[:, :n_pairs], model.project(mats[left])[:n_pairs])


class TestFlatNull:
    @pytest.mark.parametrize("s_count", [3, 8, 20])
    @pytest.mark.parametrize("seed", [0, 7, 123456789])
    def test_rows_match_per_iteration_refits(self, s_count, seed):
        mats, _ = sample_population(SimConfig(n=6, n_controls=s_count, sigma=0.1, seed=s_count, k_diffs=2))
        # the first rows, and rows either side of the first chunk boundary
        ks = [*range(40), *range(_DRAW_CHUNK - 10, _DRAW_CHUNK + 10)]
        null = build_null(mats, m=_DRAW_CHUNK + 10, seed=seed, parametrization="flat")
        reference = np.stack([flat_reference_row(mats, seed, k) for k in ks])
        values = null.values[ks]
        # a resample that repeats one control has sd below SD_FLOOR, and its
        # statistic, about 1e11, can only agree to a relative tolerance
        floored = np.abs(reference) > 1e9
        assert floored.any() == (s_count == 3)
        np.testing.assert_allclose(values[~floored], reference[~floored], rtol=0, atol=1e-12)
        np.testing.assert_allclose(values[floored], reference[floored], rtol=1e-12)
        assert null.n_failures == 0

    @pytest.mark.parametrize(
        "m",
        # 15, 16, 17 and 33 fall mid-block, short of the first product's rows
        [
            1, 15, 16, 17, 33, _FLAT_BLOCK - 1, _FLAT_BLOCK, _FLAT_BLOCK + 1, 2 * _FLAT_BLOCK + 1,
            _DRAW_CHUNK - 1, _DRAW_CHUNK, _DRAW_CHUNK + 1, 2 * _DRAW_CHUNK + 1,
        ],
    )
    def test_row_does_not_depend_on_its_block(self, m):
        mats, _ = sample_population(SimConfig(n=6, n_controls=12, sigma=0.08, seed=11, k_diffs=4))
        longest = build_null(mats, m=3 * _DRAW_CHUNK + 1, seed=4, parametrization="flat")
        shorter = build_null(mats, m=m, seed=4, parametrization="flat")
        assert np.array_equal(longest.values[:m], shorter.values)

    def test_constant_pair_gives_zero(self, rng):
        # regions 0 and 1 form a fixed block, uncorrelated with the rest, so
        # every pair involving them is constant across the controls
        block = np.array([[1.0, 0.5], [0.5, 1.0]])
        mats, _ = sample_population(SimConfig(n=4, n_controls=10, sigma=0.1, seed=5, k_diffs=2))
        padded = np.zeros((10, 6, 6))
        padded[:, :2, :2] = block
        padded[:, 2:, 2:] = mats
        null = build_null(padded, m=30, seed=1, parametrization="flat")
        reference = np.stack([flat_reference_row(padded, 1, k) for k in range(30)])
        ii, jj = np.tril_indices(6, -1)
        constant = jj < 2
        assert np.array_equal(null.values[:, constant], np.zeros((30, constant.sum())))
        assert np.array_equal(reference[:, constant], null.values[:, constant])


    @staticmethod
    def clustered_mats():
        """Four SPD controls, n=3.  In pairs (1, 0) and (2, 1) three
        controls lie within 0.05 of each other and the fourth 2 away, so a
        resample of the three has a mean far from the group's next to its
        spread; pair (2, 0) is unremarkable."""
        mats = np.tile(10.0 * np.eye(3), (4, 1, 1))
        cluster = [1.0, 1.02, 1.05]
        for (i, j), values in {(1, 0): cluster + [-1.0], (2, 0): [0.3141, -0.1732, 0.5386, 0.0717],
                               (2, 1): [-1.0] + cluster}.items():
            mats[:, i, j] = mats[:, j, i] = values
        return mats

    @staticmethod
    def exact_rows(resid, lefts, picks):
        """The flat null rows of the resamples ``(lefts, picks)`` against
        the float residuals ``resid``, from exact rational moments."""
        s_count = len(resid)
        rows = []
        for left, pick in zip(lefts, picks):
            counts = np.bincount(pick, minlength=s_count).tolist()
            row = []
            for column in resid.T:
                values = [Fraction(float(v)) for v in column]
                mean = sum(c * v for c, v in zip(counts, values)) / s_count
                squares = sum(c * (v - mean) ** 2 for c, v in zip(counts, values))
                gap = values[left] - mean
                if squares == 0:
                    row.append(float(gap) / (SD_FLOOR * math.sqrt(1 + 1 / s_count)))
                else:
                    t2 = gap**2 * (s_count - 1) / (squares * (1 + Fraction(1, s_count)))
                    row.append(math.copysign(math.sqrt(t2), gap))
            rows.append(row)
        return np.array(rows)

    def test_clustered_controls_defeat_a_one_pass_variance_not_the_null(self):
        mats, m, seed = self.clustered_mats(), 200, 5
        null = build_null(mats, m=m, seed=seed, parametrization="flat").values
        resid = fit_stack(mats, parametrization="flat").residuals[:, :3]
        lefts, picks = _resample_range(seed, 0, m, 4)
        exact = self.exact_rows(resid, lefts, picks)
        reference = np.stack([flat_reference_row(mats, seed, k) for k in range(m)])
        floored = np.abs(reference) > 1e9  # a resample of one control, as above
        assert floored.any() and not floored.all()
        np.testing.assert_allclose(null[~floored], reference[~floored], rtol=0, atol=1e-12)
        np.testing.assert_allclose(null[floored], reference[floored], rtol=1e-12)
        np.testing.assert_allclose(null, exact, rtol=1e-13, atol=0)
        # the textbook one-pass sum of squares misses the same rows by 1e-11
        counts = np.stack([np.bincount(pick, minlength=4) for pick in picks]).astype(float)
        mean = counts @ resid / 4
        one_pass = np.maximum(counts @ resid**2 - 4 * mean**2, 0)
        t = (resid[lefts] - mean) / (np.maximum(np.sqrt(one_pass / 3), SD_FLOOR) * math.sqrt(1.25))
        assert np.abs(t - exact)[~floored].max() > 1e-11

    def test_resample_of_one_control_is_floored_exactly(self):
        mats, m, seed = self.clustered_mats(), 200, 5
        null = build_null(mats, m=m, seed=seed, parametrization="flat").values
        resid = fit_stack(mats, parametrization="flat").residuals[:, :3]
        lefts, picks = _resample_range(seed, 0, m, 4)
        single = np.flatnonzero((picks == picks[:, :1]).all(axis=1))
        assert len(single) > 0
        # its mean, 4 resid[s] / 4, is resid[s] exactly, and its spread is 0
        expected = (resid[lefts[single]] - resid[picks[single, 0]]) / (SD_FLOOR * math.sqrt(1 + 1 / 4))
        assert np.array_equal(null[single], expected)

    @pytest.mark.parametrize("m", [15, 17, _DRAW_CHUNK + 1])
    def test_null_from_reused_buffers_equals_a_fresh_process(self, monkeypatch, tmp_path, m):
        # two calls in one process, on 1, 2 and 3 workers, against the null
        # and scores of a process that computes them once: no state is left
        # between blocks, chunks, ranges or calls
        script = (
            "import sys, numpy as np\n"
            "from spdconn import SimConfig, build_null, inference, sample_population\n"
            "inference._worker_count = lambda m: 1\n"
            "cfg = SimConfig(n=33, n_controls=20, sigma=0.1, k_diffs=20, d_sigma=0.2, seed=1)\n"
            "controls = sample_population(cfg)[0]\n"
            "scores = inference.score_subjects(controls, controls[:2], int(sys.argv[2]), 3,\n"
            "                                  parametrization='flat')\n"
            "null = build_null(controls, int(sys.argv[2]), 3, parametrization='flat')\n"
            "np.savez(sys.argv[1], null=null.values, t=scores.t, p=scores.p)\n"
        )
        fresh = np.load(run_script(script, tmp_path / "fresh.npz", str(m)))
        cfg = SimConfig(n=33, n_controls=20, sigma=0.1, k_diffs=20, d_sigma=0.2, seed=1)
        controls, _ = sample_population(cfg)
        for count in (1, 2, 3):
            run_on_workers(monkeypatch, count)
            for _ in range(2):
                scores = score_subjects(controls, controls[:2], m, 3, parametrization="flat")
                null = build_null(controls, m, 3, parametrization="flat")
                assert np.array_equal(null.values, fresh["null"])
                assert np.array_equal(scores.t, fresh["t"]) and np.array_equal(scores.p, fresh["p"])
            assert_no_child_left()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor page faults")
    def test_first_flat_null_of_a_process_faults_few_pages(self, tmp_path):
        # The first score_subjects of a fresh process at the roc_flat
        # workload's scale, m = 4 chunks, one worker.  Allocating each flat
        # block's arrays anew took 18,456 minor faults (numpy 2.4.6, glibc,
        # one BLAS thread); allocating the work arrays once per range, 843.
        pytest.importorskip("resource")
        script = (
            "import resource, sys, numpy as np\n"
            "from spdconn import SimConfig, inference, sample_population\n"
            "inference._worker_count = lambda m: 1\n"
            "cfg = SimConfig(n=33, n_controls=20, sigma=0.1, k_diffs=20, d_sigma=0.2, seed=1)\n"
            "controls = sample_population(cfg)[0]\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "inference.score_subjects(controls, controls[:3], int(sys.argv[2]), 77, parametrization='flat')\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "open(sys.argv[1], 'w').write(str(after - before))\n"
        )
        one_thread = dict.fromkeys(inference._BLAS_THREAD_VARIABLES, "1")
        path = run_script(script, tmp_path / "faults.txt", str(4 * _DRAW_CHUNK), **one_thread)
        faults = int(path.read_text())
        assert faults <= 4000

    @pytest.mark.usefixtures("one_worker")
    def test_memory_of_a_wide_control_group(self):
        # The gathering flat null this one replaced, which copied each
        # block's resampled residual rows, peaked at 20,058,556 traced bytes
        # at these arguments (numpy 2.4.6); the table of squared gaps is
        # built a few pairs at a time so that this stays below it.
        cfg = SimConfig(n=33, n_controls=100, sigma=0.1, k_diffs=20, d_sigma=0.2, seed=1)
        controls, _ = sample_population(cfg)
        tracemalloc.start()
        try:
            score_subjects(controls, controls[:3], 2000, 0, parametrization="flat")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20_058_556

    @pytest.mark.usefixtures("one_worker")
    def test_memory_of_a_scored_flat_null(self):
        # The roc_flat workload's scoring, m = 4 chunks, one worker.  With
        # 1024-row chunks counted into separately sorted column blocks it
        # peaked at 6,918,587 traced bytes (numpy 2.4.6); 512-row chunks
        # sorted in place by the count, at 4,423,118.
        cfg = SimConfig(n=33, n_controls=20, sigma=0.1, k_diffs=20, d_sigma=0.2, seed=1)
        controls, _ = sample_population(cfg)
        subjects, _ = sample_population(cfg, rng=np.random.default_rng(2), size=20)
        tracemalloc.start()
        try:
            score_subjects(controls, subjects, 4 * _DRAW_CHUNK, 0, parametrization="flat")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4_450_000


class TestTestPatient:
    def test_report_contract(self, control_mats):
        null = build_null(control_mats, m=25, seed=1)
        patient = control_mats[0]
        report = test_patient(patient, null, alpha=0.05)
        n_pairs = pair_count(8)
        assert len(report.pairs) == n_pairs
        for p in report.pairs:
            assert p.j < p.i
            assert 0.0 < p.p_raw <= 1.0
            assert np.isclose(p.p_corrected, min(1.0, p.p_raw * n_pairs))
            assert p.direction in (-1, 0, 1)
            assert p.direction == np.sign(p.t)

    def test_leaves_the_null_unchanged(self, control_mats):
        null = build_null(control_mats, m=2 * _DRAW_CHUNK + 3, seed=1, parametrization="flat")
        before = null.values.tobytes()
        first = test_patient(control_mats[0], null)
        assert null.values.tobytes() == before
        assert test_patient(control_mats[0], null) == first

    def test_pair_count_scales_as_n_choose_2(self):
        cfg = SimConfig(n=33, n_controls=6, sigma=0.05, seed=2)
        mats, _ = sample_population(cfg)
        null = build_null(mats, m=3, seed=0)
        report = test_patient(mats[0], null)
        assert len(report.pairs) == 528

    def test_control_order_invariance(self, control_mats):
        null = build_null(control_mats, m=20, seed=6)
        patient = control_mats[-1]
        a = test_patient(patient, null)
        b = test_patient(patient, replace(null, model=fit_from_matrices(control_mats[::-1])))
        ta = np.array([p.t for p in a.pairs])
        tb = np.array([p.t for p in b.pairs])
        np.testing.assert_allclose(ta, tb, rtol=1e-10)
        assert [p.p_raw for p in a.pairs] == [p.p_raw for p in b.pairs]

    def test_extreme_pair_has_minimal_pvalue(self, control_mats):
        m = 40
        null = build_null(control_mats, m=m, seed=8)
        # patient with one tangent coefficient far beyond the null range,
        # placed back on the cone so it stays SPD
        from spdconn import default_group_correlation, reconstruct

        bump = np.zeros((8, 8))
        bump[1, 0] = bump[0, 1] = 0.9
        patient = reconstruct(default_group_correlation(8), bump)
        report = test_patient(patient, null)
        best = min(p.p_raw for p in report.pairs)
        assert best == 1.0 / (m + 1)
        floor = min(p.p_corrected for p in report.pairs)
        assert floor == bonferroni_floor(pair_count(8), m) == pair_count(8) / (m + 1)

    def test_degenerate_floor_is_the_share_of_single_control_rows(self):
        assert (degenerate_floor(3), degenerate_floor(4), degenerate_floor(5)) == (0.25, 1 / 27, 1 / 256)
        mats, _ = sample_population(SimConfig(n=6, n_controls=3, sigma=0.1, seed=3, k_diffs=2))
        m, share = 400, degenerate_floor(3)
        null = build_null(mats, m=m, seed=0, parametrization="flat")
        single = (np.abs(null.values) > 1e9).all(axis=1)
        picks = _resample_range(0, 0, m, 3)[1]
        assert np.array_equal(single, (picks == picks[:, :1]).all(axis=1))
        # within four binomial standard deviations of m (S - 1) ** (1 - S) = 100
        assert abs(single.sum() - m * share) <= 4 * math.sqrt(m * share * (1 - share))

    def test_bonferroni_floor(self):
        # P / (m + 1), capped at 1; below alpha = 0.05 at P=10 from m = 200 on
        assert bonferroni_floor(10, 199) == 0.05
        assert bonferroni_floor(10, 200) < 0.05
        assert bonferroni_floor(10, 5) == 1.0
        assert [bonferroni_floor(528, m) < 0.05 for m in (10_559, 10_560)] == [False, True]

    def test_dimension_mismatch(self, control_mats):
        null = build_null(control_mats, m=5, seed=0)
        cfg = SimConfig(n=5, n_controls=6, sigma=0.05, seed=1, k_diffs=3)
        other, _ = sample_population(cfg)
        with pytest.raises(InvalidInputError):
            test_patient(other[0], null)

    def test_rejects_permuted_regions(self, named_series):
        null = build_null(named_series[:-1], m=5, seed=0)
        patient = named_series[-1]
        test_patient(patient, null)
        perm = [1, 0, 2, 3, 4]
        permuted = TimeSeries(
            patient.values[:, perm], [patient.region_names[k] for k in perm]
        )
        with pytest.raises(InvalidInputError):
            test_patient(permuted, null)

    def test_rejects_other_region_names(self, named_series):
        null = build_null(named_series[:-1], m=5, seed=0)
        renamed = TimeSeries(named_series[-1].values, ["a", "b", "c", "d", "e"])
        with pytest.raises(InvalidInputError):
            test_patient(renamed, null)

    def test_alpha_validation(self, control_mats):
        null = build_null(control_mats, m=5, seed=0)
        with pytest.raises(InvalidInputError):
            test_patient(control_mats[0], null, alpha=0.0)

    @pytest.mark.parametrize("alpha", ["0.05", True, None, np.nan, np.inf])
    def test_check_alpha_refuses_what_is_not_a_level(self, alpha):
        with pytest.raises(InvalidInputError, match="alpha"):
            check_alpha(alpha)

    @pytest.mark.parametrize("alpha", [0.05, 1, np.float64(0.01), np.float32(0.5)])
    def test_check_alpha_accepts_a_level(self, alpha):
        check_alpha(alpha)


def stored_scores(controls, subjects, m, seed, parametrization="tangent"):
    """``t``, ``p`` and ``n_failures`` of scoring a stored null."""
    null = build_null(controls, m, seed, parametrization=parametrization)
    t = _statistics(null.model, subjects)
    return t, empirical_pvalue(t, null.values), null.n_failures


def assert_same_scores(got, stored):
    t, p, n_failures = stored
    assert np.array_equal(got.t, t)
    assert np.array_equal(got.p, p)
    assert got.n_failures == n_failures


class TestScoreSubjects:
    """Scores counted while the null is built equal scoring the stored null."""

    @pytest.mark.parametrize("parametrization", ["tangent", "flat"])
    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"seed{c[0]}")
    def test_equals_the_stored_null_on_golden_inputs(self, case, parametrization):
        cfg, controls, patient = case_inputs(*case)
        subjects = np.concatenate([patient[None], controls[:3]])
        args = (controls, subjects, cfg.m, case[0])
        got = score_subjects(*args, parametrization=parametrization)
        assert_same_scores(got, stored_scores(*args, parametrization))
        assert got.p.shape == (4, pair_count(cfg.n))

    @pytest.mark.parametrize("parametrization, m", [("flat", 10_000), ("tangent", 50)])
    def test_equals_the_stored_null_at_benchmark_scale(self, parametrization, m):
        # the population of the roc_flat and roc_tangent workloads
        cfg = SimConfig(n=33, n_controls=20, sigma=0.1, k_diffs=20, d_sigma=0.2, seed=1)
        controls, _ = sample_population(cfg)
        subjects, _ = sample_population(cfg, rng=np.random.default_rng(2), size=20)
        got = score_subjects(controls, subjects, m, 77, parametrization=parametrization)
        assert_same_scores(got, stored_scores(controls, subjects, m, 77, parametrization))

    @pytest.mark.parametrize("parametrization, m", [
        ("tangent", _DRAW_CHUNK + 10), ("flat", 2 * _DRAW_CHUNK + 1), ("flat", _DRAW_CHUNK - 1),
    ])
    def test_equals_the_stored_null_for_a_partial_last_chunk(self, two_chunk_mats, parametrization, m):
        args = (two_chunk_mats, two_chunk_mats[:3], m, 5)
        got = score_subjects(*args, parametrization=parametrization)
        assert_same_scores(got, stored_scores(*args, parametrization))

    @pytest.mark.usefixtures("one_worker")
    def test_equals_the_stored_null_with_retries_across_a_chunk_boundary(self, two_chunk_mats, monkeypatch):
        m, seed, s_count = _DRAW_CHUNK + 10, 5, len(two_chunk_mats)
        failed = [_DRAW_CHUNK - 1, _DRAW_CHUNK, _DRAW_CHUNK + 3]
        args = (two_chunk_mats, two_chunk_mats[:3], m, seed)
        failing_refits(monkeypatch, first_draws(s_count, seed, failed))
        stored = stored_scores(*args)
        refits = failing_refits(monkeypatch, first_draws(s_count, seed, failed))
        got = score_subjects(*args)
        assert len(refits) == got.n_failures == len(failed)
        assert_same_scores(got, stored)

    def test_abort_raises_the_same_message(self, two_chunk_mats, monkeypatch):
        m, seed = _DRAW_CHUNK + 10, 5
        either_side = [_DRAW_CHUNK - 1, _DRAW_CHUNK + 1]
        runs = [
            lambda: build_null(two_chunk_mats, m=m, seed=seed),
            lambda: score_subjects(two_chunk_mats, two_chunk_mats[:2], m, seed),
        ]
        for run in runs:
            failing_refits(monkeypatch, first_draws(len(two_chunk_mats), seed, either_side, attempts=52))
            with pytest.raises(ConvergenceError, match=rf"^104 failed fits over {m} bootstrap iterations \(> 10%\)$"):
                run()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_a_non_finite_null_chunk(self, control_mats, monkeypatch, bad):
        chunk = inference._null_chunk

        def spoiled(model, seed, start, out, retry_cap, work):
            n_failures = chunk(model, seed, start, out, retry_cap, work)
            out[len(out) // 2, -1] = bad
            return n_failures

        monkeypatch.setattr(inference, "_null_chunk", spoiled)
        with pytest.raises(InvalidInputError, match="non-finite"):
            score_subjects(control_mats, control_mats[:2], 20, 0, parametrization="flat")
        with pytest.raises(InvalidInputError, match="non-finite"):
            build_null(control_mats, 20, 0, parametrization="flat")

    @pytest.mark.usefixtures("one_worker")
    @pytest.mark.parametrize("parametrization", ["tangent", "flat"])
    def test_refuses_a_nan_statistic_before_the_bootstrap(self, control_mats, monkeypatch, parametrization):
        chunks, fits = [], []
        monkeypatch.setattr(inference, "_null_chunk", lambda *args: chunks.append(args) or 0)
        monkeypatch.setattr(inference, "fit_stack", lambda *args, **kwargs: fits.append(args))
        subjects = control_mats[:2].copy()
        subjects[1, 0, 1] = subjects[1, 1, 0] = np.nan
        with pytest.raises(InvalidInputError, match="non-finite"):
            score_subjects(control_mats, subjects, 20, 0, parametrization=parametrization)
        assert chunks == []
        assert fits == []

    @pytest.mark.usefixtures("one_worker")
    def test_checks_the_subjects_before_fitting(self, control_mats, monkeypatch):
        fits = []
        monkeypatch.setattr(inference, "fit_stack", lambda *args, **kwargs: fits.append(args))
        for subjects in (control_mats[0], control_mats[:2, :5, :5]):
            with pytest.raises(InvalidInputError, match="subjects have shape"):
                score_subjects(control_mats, subjects, 20, 0)
        with pytest.raises(InvalidInputError, match="m must be an integer >= 1"):
            score_subjects(control_mats, control_mats[:2], 0, 0)
        assert fits == []

    @pytest.mark.usefixtures("one_worker")
    def test_drops_the_subject_stack_before_the_bootstrap(self, control_mats, monkeypatch):
        # the bootstrap keeps only the statistics, so k subjects cost no
        # (k, n, n) stack while the null is counted
        import weakref

        stacks, alive = [], []
        checked, run = inference.subject_stack, inference._bootstrap

        def checking(*args):
            stack = checked(*args)
            stacks.append(weakref.ref(stack))
            return stack

        def bootstrap(*args):
            alive.append(stacks[0]() is not None)
            return run(*args)

        monkeypatch.setattr(inference, "subject_stack", checking)
        monkeypatch.setattr(inference, "_bootstrap", bootstrap)
        score_subjects(control_mats, control_mats[:2], 5, 0)
        assert alive == [False]

    @pytest.mark.usefixtures("one_worker")
    def test_refuses_an_indefinite_subject_before_fitting(self, control_mats, monkeypatch):
        # a stack is validated as test_patient validates its patient
        null = build_null(control_mats, 5, 0)
        subjects = control_mats[:2].copy()
        subjects[1] -= np.eye(8)  # indefinite
        with pytest.raises(NearSingularError):
            test_patient(subjects[1], null)
        fits = []
        monkeypatch.setattr(inference, "fit_stack", lambda *args, **kwargs: fits.append(args))
        with pytest.raises(NearSingularError):
            score_subjects(control_mats, subjects, 20, 0)
        assert fits == []

    @pytest.mark.usefixtures("one_worker")
    def test_takes_time_series_subjects(self, named_series, monkeypatch):
        controls, subjects = named_series[:4], named_series[4:]
        stack = np.stack([correlation_matrix(ts) for ts in subjects])
        expected = score_subjects(controls, stack, 20, 3)
        assert_same_scores(
            score_subjects(controls, subjects, 20, 3),
            (expected.t, expected.p, expected.n_failures),
        )
        fits = []
        monkeypatch.setattr(inference, "fit_stack", lambda *args, **kwargs: fits.append(args))
        perm = [1, 0, 2, 3, 4]
        permuted = TimeSeries(subjects[0].values[:, perm], [subjects[0].region_names[k] for k in perm])
        with pytest.raises(InvalidInputError, match="differ from the controls'"):
            score_subjects(controls, [permuted], 20, 3)
        assert fits == []

    @pytest.mark.usefixtures("one_worker")
    def test_chunks_reuse_one_buffer(self, control_mats, monkeypatch):
        m = 2 * _DRAW_CHUNK + 5
        seen = []
        chunk = inference._null_chunk

        def recording(model, seed, start, out, retry_cap, work):
            seen.append((start, out, work))
            return chunk(model, seed, start, out, retry_cap, work)

        monkeypatch.setattr(inference, "_null_chunk", recording)
        score_subjects(control_mats, control_mats[:2], m, 0, parametrization="flat")
        assert [(start, len(out)) for start, out, _ in seen] == [
            (0, _DRAW_CHUNK), (_DRAW_CHUNK, _DRAW_CHUNK), (2 * _DRAW_CHUNK, 5),
        ]
        buffer, work = seen[0][1].base, seen[0][2]
        assert buffer.shape == (_DRAW_CHUNK, pair_count(8))
        # the flat work arrays too are allocated once for the range
        assert all(out.base is buffer and got is work for _, out, got in seen)
        build_null(control_mats, 5, 0)
        assert seen[-1][2] is None  # a tangent chunk takes none

    def test_report_matches_test_patient(self, control_mats):
        null = build_null(control_mats, m=25, seed=1)
        scores = score_subjects(control_mats, control_mats[3:5], 25, 1)
        for row in range(2):
            expected = test_patient(control_mats[3 + row], null, alpha=0.1, subject_id="s")
            assert scores.report(row, 0.1, subject_id="s") == expected
        with pytest.raises(InvalidInputError, match="alpha"):
            scores.report(0, 0.0)

    def test_report_refuses_a_row_that_is_not_a_subject(self, control_mats):
        scores = score_subjects(control_mats, control_mats[3:5], 5, 1)
        assert scores.report(np.int64(1)) == scores.report(1)
        for row in (-1, True, 1.0, "0"):
            with pytest.raises(InvalidInputError, match="row must be a non-negative integer"):
                scores.report(row)
        for row in (2, np.int64(5)):
            with pytest.raises(InvalidInputError, match=f"row must be below 2, got {row}"):
                scores.report(row)


@pytest.mark.usefixtures("one_worker")
class TestCertifiedExits:
    """The refits' exit certificate saves decompositions and changes no
    null row, statistic, p-value or failure count."""

    @staticmethod
    def run_both(monkeypatch, run):
        """``run()`` as it is and with every exit certificate refused, and
        the number of exits certified in the first run."""
        bounds = spy_exit_bounds(monkeypatch)
        certified = run()
        accepted = sum(bound <= group.GRADIENT_TOLERANCE for _, bound in bounds)
        monkeypatch.setattr(group, "_exit_bound", lambda *args: (np.inf, np.inf))
        return certified, run(), accepted

    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"seed{c[0]}")
    def test_refusing_every_exit_changes_nothing_on_golden_inputs(self, case, monkeypatch):
        cfg, controls, patient = case_inputs(*case)
        subjects = np.concatenate([patient[None], controls[:3]])

        def run():
            null = build_null(controls, cfg.m, case[0])
            return null, score_subjects(controls, subjects, cfg.m, case[0])

        (null, scores), (decomposed, decomposed_scores), accepted = self.run_both(monkeypatch, run)
        assert accepted == 2 * cfg.m
        assert np.array_equal(null.values, decomposed.values)
        assert null.n_failures == decomposed.n_failures
        assert_same_scores(scores, (decomposed_scores.t, decomposed_scores.p, decomposed_scores.n_failures))

    def test_refusing_every_exit_changes_nothing_with_retries_across_a_chunk_boundary(
        self, two_chunk_mats, monkeypatch
    ):
        m, seed, s_count = _DRAW_CHUNK + 10, 5, len(two_chunk_mats)
        failed = [3, _DRAW_CHUNK - 1, _DRAW_CHUNK + 3]

        def run():
            failing_refits(monkeypatch, first_draws(s_count, seed, failed))
            null = build_null(two_chunk_mats, m, seed)
            failing_refits(monkeypatch, first_draws(s_count, seed, failed))
            return null, score_subjects(two_chunk_mats, two_chunk_mats[:3], m, seed)

        (null, scores), (decomposed, decomposed_scores), accepted = self.run_both(monkeypatch, run)
        assert accepted >= m
        assert null.n_failures == scores.n_failures == len(failed)
        assert np.array_equal(null.values, decomposed.values)
        assert null.n_failures == decomposed.n_failures
        assert_same_scores(scores, (decomposed_scores.t, decomposed_scores.p, decomposed_scores.n_failures))

    def test_cold_fits_never_consult_it(self, control_mats, monkeypatch):
        def consulted(*args):
            raise AssertionError("exit certificate consulted")

        monkeypatch.setattr(group, "_exit_bound", consulted)
        fit_from_matrices(control_mats)
        fit_group_model(control_mats)
        fits = []

        def recording(stack, parametrization="tangent", region_names=None, start=None):
            fits.append(start is None)
            return fit_stack(stack, parametrization, region_names, start)

        monkeypatch.setattr(inference, "fit_stack", recording)
        with pytest.raises(AssertionError, match="exit certificate consulted"):
            build_null(control_mats, m=5, seed=0)
        assert fits == [True, False]  # the control fit ran through, the first refit consulted it

    def test_decompositions_per_bootstrap_iteration(self, monkeypatch):
        # a refit of roc_tangent's shape takes two Newton steps: it
        # decomposes both steps, the mean it steps to first, each drawn
        # control there, and the mean it ends at
        cfg = SimConfig(n=33, n_controls=20, sigma=0.1, k_diffs=20, d_sigma=0.2, seed=1)
        controls, _ = sample_population(cfg)
        m, seed = 12, 3
        counted = []
        eigh = np.linalg.eigh

        def counting(a):
            counted.append(int(np.prod(np.shape(a)[:-2])))
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        fit_stack(controls)
        control_fit = sum(counted)
        counted.clear()
        score_subjects(controls, controls[:2], m, seed)
        distinct = sum(len(np.unique(pick)) for pick in _resample_range(seed, 0, m, 20)[1])
        assert sum(counted) <= control_fit + distinct + 4 * m


def run_on_workers(monkeypatch, count):
    """Split every bootstrap over ``count`` processes."""
    monkeypatch.setattr(inference, "_worker_count", lambda m: count)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkers:
    """A bootstrap split over forked workers gives the bits, the failure
    count and the errors of one process, and leaves no process behind."""

    @staticmethod
    def results_per_worker_count(monkeypatch, controls, subjects, m, parametrization):
        results = []
        for count in (1, 2, 3):
            run_on_workers(monkeypatch, count)
            null = build_null(controls, m, 4, parametrization=parametrization)
            scores = score_subjects(controls, subjects, m, 4, parametrization=parametrization)
            results.append((null.values, null.n_failures, scores.t, scores.p, scores.n_failures))
            assert_no_child_left()
        return results

    @pytest.mark.parametrize("parametrization, m", [
        ("tangent", 30), ("flat", 2 * _DRAW_CHUNK + 7), ("flat", 3 * _FLAT_BLOCK + 1),
    ])
    def test_same_bits_for_any_worker_count_at_n33(self, monkeypatch, parametrization, m):
        # the roc workloads' population; the flat ranges cross chunk
        # boundaries, and start and end inside blocks of _FLAT_BLOCK rows
        cfg = SimConfig(n=33, n_controls=20, sigma=0.1, k_diffs=20, d_sigma=0.2, seed=1)
        controls, _ = sample_population(cfg)
        subjects, _ = sample_population(cfg, rng=np.random.default_rng(2), size=3)
        serial, *split = self.results_per_worker_count(monkeypatch, controls, subjects, m, parametrization)
        for result in split:
            for got, expected in zip(result, serial):
                assert np.array_equal(got, expected)

    def test_same_bits_for_any_worker_count_at_n100(self, monkeypatch):
        cfg = SimConfig(n=100, n_controls=20, sigma=0.057, k_diffs=1, seed=0)
        controls, _ = sample_population(cfg)
        serial, *split = self.results_per_worker_count(monkeypatch, controls, controls[:1], 3, "tangent")
        for result in split:
            for got, expected in zip(result, serial):
                assert np.array_equal(got, expected)

    @pytest.mark.parametrize("k", [0, 5, 11])  # in the first, the middle and the last of 3 ranges
    @pytest.mark.parametrize("run", [
        lambda mats: build_null(mats, m=12, seed=0),
        lambda mats: score_subjects(mats, mats[:2], 12, 0),
    ], ids=["build_null", "score_subjects"])
    def test_retry_cap_failure_raises_the_serial_message(self, control_mats, monkeypatch, k, run):
        retry_cap = 3  # ceil(0.1 m) + 1
        messages = []
        for count in (1, 3):
            run_on_workers(monkeypatch, count)
            failing_refits(monkeypatch, first_draws(len(control_mats), 0, [k], attempts=retry_cap))
            with pytest.raises(ConvergenceError) as err:
                run(control_mats)
            messages.append(str(err.value))
            assert_no_child_left()
        assert messages == [f"bootstrap iteration {k} failed 3 times in a row"] * 2

    def test_error_of_a_child_range_is_raised_where_it_is_raised(self, control_mats, monkeypatch):
        # the parent runs the failing last range again: the traceback reaches
        # the raise in _null_chunk, not only the reaping in _bootstrap
        run_on_workers(monkeypatch, 3)
        failing_refits(monkeypatch, first_draws(len(control_mats), 0, [11], attempts=3))
        with pytest.raises(ConvergenceError) as err:
            build_null(control_mats, m=12, seed=0)
        assert str(err.value) == "bootstrap iteration 11 failed 3 times in a row"
        assert "_null_chunk" in [frame.name for frame in traceback.extract_tb(err.tb)]
        assert_no_child_left()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds from /proc")
    @pytest.mark.parametrize("failing", [1, 2], ids=["first", "second"])
    def test_failed_fork_leaves_no_fd_and_no_child(self, control_mats, monkeypatch, failing):
        fork, calls = os.fork, []

        def failing_fork():
            calls.append(1)
            if len(calls) == failing:
                raise OSError("fork failed")
            return fork()

        monkeypatch.setattr(os, "fork", failing_fork)
        run_on_workers(monkeypatch, 3)
        before = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError, match="fork failed"):
            build_null(control_mats, 12, 0, parametrization="flat")
        assert sorted(os.listdir("/proc/self/fd")) == before
        assert_no_child_left()

    @pytest.mark.parametrize("k", [6, 11])
    def test_non_finite_row_in_a_child_range_raises(self, control_mats, monkeypatch, k):
        chunk = inference._null_chunk

        def spoiled(model, seed, start, out, retry_cap, work):
            n_failures = chunk(model, seed, start, out, retry_cap, work)
            if start <= k < start + len(out):
                out[k - start] = np.nan
            return n_failures

        monkeypatch.setattr(inference, "_null_chunk", spoiled)
        run_on_workers(monkeypatch, 3)
        with pytest.raises(InvalidInputError, match="null sample contains non-finite"):
            score_subjects(control_mats, control_mats[:2], 12, 0, parametrization="flat")
        assert_no_child_left()
        with pytest.raises(InvalidInputError, match="null distribution contains non-finite"):
            build_null(control_mats, 12, 0, parametrization="flat")
        assert_no_child_left()

    def test_interrupt_in_this_process_kills_the_children(self, control_mats, monkeypatch):
        # this process runs no range: the interrupt comes while it waits
        # for its first child, and the stop reaps with the real waitpid
        waitpid, waits = os.waitpid, []

        def asleep(*args):
            time.sleep(60)  # killed long before

        def interrupted(pid, options):
            waits.append(pid)
            if len(waits) == 1:
                raise KeyboardInterrupt
            return waitpid(pid, options)

        monkeypatch.setattr(inference, "_null_chunk", asleep)
        monkeypatch.setattr(os, "waitpid", interrupted)
        run_on_workers(monkeypatch, 3)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            build_null(control_mats, 12, 0, parametrization="flat")
        assert time.perf_counter() - start < 30
        assert_no_child_left()

    def test_child_that_ends_without_an_error_raises(self, control_mats, monkeypatch):
        chunk = inference._null_chunk

        def vanishing(model, seed, start, out, retry_cap, work):
            if start >= 6:  # the second of two ranges of 12 iterations
                os._exit(3)
            return chunk(model, seed, start, out, retry_cap, work)

        monkeypatch.setattr(inference, "_null_chunk", vanishing)
        run_on_workers(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="bootstrap worker 1 ended with wait status"):
            score_subjects(control_mats, control_mats[:2], 12, 0, parametrization="flat")
        assert_no_child_left()

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_this_process_runs_no_range_of_a_forked_bootstrap(self, control_mats, monkeypatch, count):
        # calls made in a child are appended to the child's copy of the
        # lists, so these see only this process's own
        parent, chunk, fork = os.getpid(), inference._null_chunk, os.fork
        chunks, forks = [], []

        def spied_chunk(*args):
            chunks.append(os.getpid())
            return chunk(*args)

        def spied_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(inference, "_null_chunk", spied_chunk)
        monkeypatch.setattr(os, "fork", spied_fork)
        run_on_workers(monkeypatch, count)
        score_subjects(control_mats, control_mats[:2], 12, 0, parametrization="flat")
        assert_no_child_left()
        if count == 1:
            assert (chunks, forks) == ([parent], [])
        else:
            assert (chunks, forks) == ([], [parent] * count)

    def test_memory_of_a_scored_flat_null_on_two_workers(self, monkeypatch):
        # test_memory_of_a_scored_flat_null's scoring on two workers; the
        # children's allocations are not traced here.  When this process ran
        # the first range it peaked at 4,417,456 traced bytes (numpy 2.4.6),
        # above one (_DRAW_CHUNK, P) score buffer; running none, at 869,608.
        cfg = SimConfig(n=33, n_controls=20, sigma=0.1, k_diffs=20, d_sigma=0.2, seed=1)
        controls, _ = sample_population(cfg)
        subjects, _ = sample_population(cfg, rng=np.random.default_rng(2), size=20)
        run_on_workers(monkeypatch, 2)
        tracemalloc.start()
        try:
            score_subjects(controls, subjects, 4 * _DRAW_CHUNK, 0, parametrization="flat")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_no_child_left()
        assert peak < _DRAW_CHUNK * pair_count(33) * 8

    def test_worker_count_rule(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        for name in inference._BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        count = inference._worker_count
        assert count(100) == 1  # BLAS runs a thread per core
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert (count(100), count(3), count(1)) == (4, 3, 1)
        monkeypatch.setenv("OMP_NUM_THREADS", "2")  # the largest declared count
        assert count(100) == 2
        monkeypatch.setenv("MKL_NUM_THREADS", "8")
        assert count(100) == 1
        for ignored in ("", "0", "two", "-1", "1,2"):
            monkeypatch.setenv("MKL_NUM_THREADS", ignored)
            assert count(100) == 2
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert count(100) == 1  # a fork would copy no other thread
        finally:
            release.set()
            thread.join()
        assert count(100) == 2
        monkeypatch.delattr(os, "fork")
        assert count(100) == 1

    def test_worker_count_takes_a_cgroup_cpu_quota(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        for name in ("OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for text, workers in [
            ("", 4), ("max 100000\n", 4), ("200000 100000\n", 2), ("250000 100000\n", 2),
            ("50000 100000\n", 1), ("800000 100000\n", 4), ("200000 0\n", 4), ("two 100000\n", 4),
        ]:
            monkeypatch.setattr(inference, "_cgroup_cpu_max", lambda: text)
            assert inference._worker_count(100) == workers, text
        monkeypatch.undo()
        assert isinstance(inference._cgroup_cpu_max(), str)  # this process's own, whatever it is

    def test_one_process_while_another_thread_runs(self, control_mats, monkeypatch):
        # a fork would copy no other thread, and newer Pythons warn on one
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")

        def no_fork():
            raise AssertionError("forked while another thread runs")

        monkeypatch.setattr(os, "fork", no_fork)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert inference._worker_count(100) == 1
                null = build_null(control_mats, 12, 0, parametrization="flat")
        finally:
            release.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert null.values.shape == (12, pair_count(8))
