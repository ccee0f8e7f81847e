import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spdconn import (
    DegenerateInputError,
    InvalidInputError,
    NearSingularError,
    TimeSeries,
    correlation_matrix,
    ledoit_wolf,
    residualize_confounds,
    sample_covariance,
    to_correlation,
)
from spdconn import estimators

seeds = st.integers(0, 2**31 - 1)


def ledoit_wolf_oracle(x):
    """One-shot shrinkage formula, coded directly from its definition with
    explicit loops; independent of the vectorized implementation."""
    x = np.asarray(x, dtype=np.float64)
    t, n = x.shape
    xbar = x.mean(axis=0)
    s = np.zeros((n, n))
    for k in range(t):
        y = x[k] - xbar
        s += np.outer(y, y)
    s /= t
    mu = np.trace(s) / n
    d2 = np.linalg.norm(s - mu * np.eye(n), "fro") ** 2 / n
    b2_bar = 0.0
    for k in range(t):
        y = x[k] - xbar
        b2_bar += np.linalg.norm(np.outer(y, y) - s, "fro") ** 2 / n
    b2_bar /= t**2
    b2 = min(b2_bar, d2)
    rho = 1.0 if d2 == 0.0 else b2 / d2
    return rho * mu * np.eye(n) + (1.0 - rho) * s, rho


class TestTimeSeries:
    def test_rejects_single_sample(self):
        with pytest.raises(InvalidInputError):
            TimeSeries(np.zeros((1, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            TimeSeries(np.array([[1.0, np.inf], [0.0, 1.0]]))

    def test_rejects_duplicate_names(self):
        with pytest.raises(InvalidInputError):
            TimeSeries(np.zeros((3, 2)), ("a", "a"))

    def test_default_names(self):
        ts = TimeSeries(np.zeros((3, 2)))
        assert ts.region_names == ("r00", "r01")
        assert (ts.t, ts.n) == (3, 2)


class TestResidualize:
    def test_no_confounds_demeans(self, rng):
        x = TimeSeries(rng.standard_normal((40, 3)))
        out = residualize_confounds(x)
        expected = x.values - x.values.mean(axis=0)
        np.testing.assert_allclose(out.values, expected, atol=1e-12)

    def test_column_proportional_to_confound_vanishes(self, rng):
        c = rng.standard_normal((30, 1))
        vals = np.hstack([2.5 * c, rng.standard_normal((30, 1))])
        out = residualize_confounds(TimeSeries(vals), c)
        assert np.max(np.abs(out.values[:, 0])) < 1e-10

    def test_output_orthogonal_to_confounds(self, rng):
        x = TimeSeries(rng.standard_normal((50, 4)))
        c = rng.standard_normal((50, 3))
        out = residualize_confounds(x, c)
        assert np.max(np.abs(c.T @ out.values)) <= 1e-8
        # demeaned as well (constant regressor is always appended)
        assert np.max(np.abs(out.values.mean(axis=0))) <= 1e-10

    def test_rank_deficient_confounds(self, rng):
        x = TimeSeries(rng.standard_normal((30, 2)))
        c1 = rng.standard_normal((30, 1))
        c = np.hstack([c1, c1, 2.0 * c1])
        out = residualize_confounds(x, c)
        assert np.max(np.abs(c.T @ out.values)) <= 1e-8

    def test_length_mismatch(self, rng):
        with pytest.raises(InvalidInputError):
            residualize_confounds(
                TimeSeries(rng.standard_normal((30, 2))), np.ones((29, 1))
            )


class TestSampleCovariance:
    def test_constant_series_is_zero(self):
        assert np.allclose(sample_covariance(np.ones((5, 3)) * 2.0), 0.0)

    def test_two_samples_hand_case(self):
        s = sample_covariance(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert np.allclose(s, [[1.0, 0.0], [0.0, 0.0]])

    @given(seeds)
    def test_trace_identity(self, seed):
        x = np.random.default_rng(seed).standard_normal((25, 4))
        s = sample_covariance(x)
        total = np.mean(np.sum((x - x.mean(axis=0)) ** 2, axis=1))
        assert np.isclose(np.trace(s), total)

    def test_positive_semidefinite(self, rng):
        s = sample_covariance(rng.standard_normal((10, 6)))
        assert np.linalg.eigvalsh(s).min() > -1e-12


class TestLedoitWolf:
    def test_matches_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 12))
            t = int(rng.integers(15, 80))
            x = rng.standard_normal((t, n)) * rng.uniform(0.5, 3.0)
            expected, rho = ledoit_wolf_oracle(x)
            got = ledoit_wolf(x)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)
            assert 0.0 <= rho <= 1.0

    def test_isotropic_fixed_point(self):
        # samples whose sample covariance is already mu * identity
        a = 1.3
        x = np.array([[a, 0.0], [-a, 0.0], [0.0, a], [0.0, -a]])
        out = ledoit_wolf(x)
        mu = np.trace(sample_covariance(x)) / 2
        assert np.allclose(out, mu * np.eye(2), atol=1e-14)

    @given(seeds)
    def test_shrinkage_in_unit_interval_and_spd(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((12, 8))  # t > n but noisy
        out = ledoit_wolf(x)
        _, rho = ledoit_wolf_oracle(x)
        assert 0.0 <= rho <= 1.0
        assert np.linalg.eigvalsh(out).min() > 0.0

    def test_constant_input_raises(self):
        with pytest.raises(DegenerateInputError):
            ledoit_wolf(np.ones((10, 3)) * 7.0)


class TestToCorrelation:
    def test_diagonal_spd_becomes_identity(self):
        assert np.allclose(to_correlation(np.diag([4.0, 9.0, 0.25])), np.eye(3))

    def test_hand_case(self):
        out = to_correlation(np.array([[4.0, 2.0], [2.0, 4.0]]))
        assert np.allclose(out, [[1.0, 0.5], [0.5, 1.0]])

    def test_unit_diagonal_exact_and_bounded(self, rng):
        x = rng.standard_normal((60, 5))
        out = to_correlation(ledoit_wolf(x))
        assert np.array_equal(np.diag(out), np.ones(5))
        off = out[~np.eye(5, dtype=bool)]
        assert np.all(np.abs(off) < 1.0)

    def test_idempotent(self, rng):
        out = to_correlation(ledoit_wolf(rng.standard_normal((60, 5))))
        np.testing.assert_allclose(to_correlation(out), out, atol=1e-12)

    def test_nonpositive_diagonal_raises(self):
        with pytest.raises(InvalidInputError):
            to_correlation(np.diag([1.0, 0.0]))


class TestPipeline:
    def test_correlation_matrix_is_spd_unit_diagonal(self, rng):
        ts = TimeSeries(rng.standard_normal((50, 6)))
        c = rng.standard_normal((50, 2))
        out = correlation_matrix(ts, c)
        assert np.array_equal(np.diag(out), np.ones(6))
        assert np.linalg.eigvalsh(out).min() > 0

    def test_estimated_matrices_are_validated(self, rng, monkeypatch):
        ts = TimeSeries(rng.standard_normal((50, 3)))
        monkeypatch.setattr(
            estimators, "correlation_matrix", lambda x: np.diag([1.0, 1e-14, 1.0])
        )
        with pytest.raises(NearSingularError):
            estimators.as_correlation_matrices([ts])
