import numpy as np
import pytest

from spdconn import (
    ConvergenceError,
    FrechetConfig,
    InvalidInputError,
    SimConfig,
    build_null,
    empirical_pvalue,
    pair_count,
    sample_population,
    t_statistic,
    test_patient,
)


@pytest.fixture(scope="module")
def control_mats():
    cfg = SimConfig(n=8, n_controls=12, sigma=0.08, seed=11, k_diffs=4)
    mats, _ = sample_population(cfg)
    return mats


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

    def test_columns_match_single_column_calls(self, rng):
        controls = rng.standard_normal((12, 7))
        patient = rng.standard_normal(7)
        columns = [t_statistic(controls[:, k], patient[k]) for k in range(7)]
        np.testing.assert_allclose(t_statistic(controls, patient), columns, rtol=1e-12)


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

    def test_empty_null_raises(self):
        with pytest.raises(InvalidInputError):
            empirical_pvalue(1.0, [])


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

    def test_parallel_matches_serial(self, control_mats):
        a = build_null(control_mats, m=12, seed=9, n_jobs=1)
        b = build_null(control_mats, m=12, seed=9, n_jobs=2)
        assert np.array_equal(a.values, b.values)

    def test_flat_parametrization(self, control_mats):
        null = build_null(control_mats, m=8, seed=2, parametrization="flat")
        assert null.parametrization == "flat"
        assert np.all(np.isfinite(null.values))

    def test_needs_three_controls(self, control_mats):
        with pytest.raises(InvalidInputError):
            build_null(control_mats[:2], m=5, seed=0)

    def test_abort_on_persistent_fit_failure(self, control_mats):
        # an impossible tolerance makes every surrogate fit fail
        cfg = FrechetConfig(max_iterations=1, gradient_tolerance=1e-18)
        with pytest.raises(ConvergenceError):
            build_null(control_mats, m=10, seed=0, config=cfg)


class TestTestPatient:
    def test_report_contract(self, control_mats):
        null = build_null(control_mats, m=25, seed=1)
        patient = control_mats[0]
        report = test_patient(control_mats, patient, null, alpha=0.05)
        n_pairs = pair_count(8)
        assert len(report.pairs) == n_pairs
        for p in report.pairs:
            assert p.j < p.i
            assert 0.0 < p.p_raw <= 1.0
            assert np.isclose(p.p_corrected, min(1.0, p.p_raw * n_pairs))
            assert p.direction in (-1, 0, 1)
            assert p.direction == np.sign(p.t)

    def test_pair_count_scales_as_n_choose_2(self):
        cfg = SimConfig(n=33, n_controls=6, sigma=0.05, seed=2)
        mats, _ = sample_population(cfg)
        null = build_null(mats, m=3, seed=0)
        report = test_patient(mats, mats[0], null)
        assert len(report.pairs) == 528

    def test_control_order_invariance(self, control_mats):
        null = build_null(control_mats, m=20, seed=6)
        patient = control_mats[-1]
        a = test_patient(control_mats, patient, null)
        b = test_patient(control_mats[::-1], patient, null)
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
        report = test_patient(control_mats, patient, null)
        best = min(p.p_raw for p in report.pairs)
        assert best == 1.0 / (m + 1)

    def test_dimension_mismatch(self, control_mats):
        null = build_null(control_mats, m=5, seed=0)
        cfg = SimConfig(n=5, n_controls=6, sigma=0.05, seed=1, k_diffs=3)
        other, _ = sample_population(cfg)
        with pytest.raises(InvalidInputError):
            test_patient(other, other[0], null)

    def test_alpha_validation(self, control_mats):
        null = build_null(control_mats, m=5, seed=0)
        with pytest.raises(InvalidInputError):
            test_patient(control_mats, control_mats[0], null, alpha=0.0)
