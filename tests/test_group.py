import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spdconn import (
    ConvergenceError,
    DegenerateModelError,
    FrechetConfig,
    GroupModel,
    InvalidInputError,
    SimConfig,
    TimeSeries,
    fit_from_matrices,
    fit_group_model,
    frechet_mean,
    leave_one_out_scores,
    log_likelihood,
    reconstruct,
    residual,
    sample_population,
    vec_dim,
    vec_unembed,
)
from helpers import random_invertible, random_orthogonal, random_spd

seeds = st.integers(0, 2**31 - 1)


class TestFrechetMean:
    def test_single_and_repeated_inputs(self, rng):
        a = random_spd(rng, 4)
        assert np.allclose(frechet_mean([a]), a, atol=1e-12)
        assert np.allclose(frechet_mean([a, a, a]), a, atol=1e-12)

    def test_commuting_diagonal_case(self):
        m = frechet_mean([np.diag([4.0, 1.0]), np.diag([1.0, 4.0])])
        assert np.allclose(m, np.diag([2.0, 2.0]), atol=1e-10)

    def test_commuting_family_closed_form(self, rng):
        # matrices sharing an eigenbasis: the mean is exp of the mean log
        q = random_orthogonal(rng, 5)
        eigs = rng.uniform(0.2, 5.0, (4, 5))
        mats = [(q * e) @ q.T for e in eigs]
        expected = (q * np.exp(np.log(eigs).mean(axis=0))) @ q.T
        got = frechet_mean(mats)
        assert np.linalg.norm(got - expected) / np.linalg.norm(expected) < 1e-10

    @given(seeds)
    def test_congruence_equivariance(self, seed):
        # clustered family: the fixed-point iteration targets populations
        # scattered around a common center, as in the fitting pipeline
        rng = np.random.default_rng(seed)
        mats = [0.4 * random_spd(rng, 4) + 0.6 * np.eye(4) for _ in range(5)]
        g = random_invertible(rng, 4)
        lhs = frechet_mean([g @ m @ g.T for m in mats])
        rhs = g @ frechet_mean(mats) @ g.T
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-8

    def test_gradient_condition_at_exit(self, rng):
        mats = [random_spd(rng, 5) for _ in range(6)]
        cfg = FrechetConfig(gradient_tolerance=1e-9)
        mean, info = frechet_mean(mats, cfg, return_info=True)
        assert info.gradient_norm <= 1e-9
        # verify independently: mean log of whitened matrices
        from spdconn import spd_logm, spd_sqrtm

        _, inv_root = spd_sqrtm(mean)
        step = np.mean([spd_logm(inv_root @ m @ inv_root) for m in mats], axis=0)
        assert np.linalg.norm(step) <= 1e-9 * 1.001

    def test_convergence_error_carries_gradient(self, rng):
        mats = [random_spd(rng, 4) for _ in range(5)]
        with pytest.raises(ConvergenceError) as err:
            frechet_mean(mats, FrechetConfig(max_iterations=1, gradient_tolerance=1e-15))
        assert err.value.gradient_norm is not None
        assert err.value.gradient_norm > 0


class TestResidual:
    def test_residual_of_self_is_zero(self, rng):
        a = random_spd(rng, 4)
        assert residual(a, a).norm < 1e-12

    def test_whitening_by_identity(self):
        out = residual(np.eye(2), np.diag([4.0, 1.0]))
        assert np.allclose(out.matrix, np.diag([3.0, 0.0]), atol=1e-14)

    @given(seeds)
    def test_reconstruct_inverts_residual(self, seed):
        rng = np.random.default_rng(seed)
        mean, subject = random_spd(rng, 4), random_spd(rng, 4)
        back = reconstruct(mean, residual(mean, subject))
        assert np.linalg.norm(back - subject) / np.linalg.norm(subject) < 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(InvalidInputError):
            residual(random_spd(rng, 3), random_spd(rng, 4))


class TestFitGroupModel:
    def test_identical_subjects(self, rng):
        vals = rng.standard_normal((60, 4))
        series = [TimeSeries(vals.copy()) for _ in range(5)]
        model = fit_group_model(series)
        from spdconn import correlation_matrix

        assert np.allclose(model.mean, correlation_matrix(series[0]), atol=1e-10)
        assert model.sigma <= 1e-12
        assert model.n_subjects == 5
        assert len(model.residuals) == 5

    def test_subject_order_invariance(self, rng):
        mats = [random_spd(rng, 5) * 0.5 + 0.5 * np.eye(5) for _ in range(6)]
        a = fit_from_matrices(mats)
        b = fit_from_matrices(mats[::-1])
        assert np.linalg.norm(a.mean - b.mean) < 1e-10
        assert np.isclose(a.sigma, b.sigma, rtol=1e-10)

    def test_sigma_recovery_inside_validity_domain(self):
        # dispersion small enough that the placement stays well inside the
        # cone: the fitted dispersion tracks the generating one
        cfg = SimConfig(n=10, n_controls=50, sigma=0.1, seed=7, k_diffs=5)
        mats, n_clipped = sample_population(cfg)
        assert n_clipped == 0
        model = fit_from_matrices(mats)
        assert abs(model.sigma - cfg.sigma) / cfg.sigma < 0.10

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "with sigma * sqrt(2 n) ~ 0.8 the intrinsic mean of a "
            "linearized-placement population sits measurably below the "
            "placement center (log-concavity), inflating the fitted "
            "dispersion by ~13%; the 5% recovery bound only holds for "
            "narrow dispersions"
        ),
    )
    def test_sigma_recovery_high_dimension_tight_tolerance(self):
        cfg = SimConfig(n=33, n_controls=20, sigma=0.1, seed=7)
        mats, _ = sample_population(cfg)
        model = fit_from_matrices(mats)
        assert abs(model.sigma - cfg.sigma) / cfg.sigma < 0.05

    def test_residual_mean_near_zero_at_fit(self):
        cfg = SimConfig(n=10, n_controls=20, sigma=0.05, seed=3, k_diffs=5)
        mats, _ = sample_population(cfg)
        model = fit_from_matrices(mats)
        vecs = model.residuals
        # first-order stationarity: per-coordinate mean within a few
        # sampling standard errors
        assert np.max(np.abs(vecs.mean(axis=0))) <= 3.0 * cfg.sigma / np.sqrt(20)

    def test_requires_two_subjects(self, rng):
        with pytest.raises(InvalidInputError):
            fit_from_matrices([random_spd(rng, 3)])


class TestFlatModel:
    def test_identical_subjects(self, rng):
        a = random_spd(rng, 4)
        model = fit_from_matrices([a, a, a], parametrization="flat")
        assert np.allclose(model.mean, a)
        assert model.sigma <= 1e-14

    def test_arithmetic_mean(self):
        model = fit_from_matrices(
            [np.diag([4.0, 1.0]), np.diag([1.0, 4.0])], parametrization="flat"
        )
        assert np.allclose(model.mean, np.diag([2.5, 2.5]))

    def test_flat_and_tangent_differ_on_noncommuting_inputs(self, rng):
        mats = [0.4 * random_spd(rng, 4) + 0.6 * np.eye(4) for _ in range(4)]
        flat = fit_from_matrices(mats, parametrization="flat")
        tangent = fit_from_matrices(mats)
        assert np.linalg.norm(flat.mean - tangent.mean) > 1e-6

    def test_flat_residuals_are_differences(self, rng):
        mats = [random_spd(rng, 3) for _ in range(3)]
        model = fit_from_matrices(mats, parametrization="flat")
        for m, r in zip(mats, model.residuals):
            assert np.allclose(vec_unembed(r, 3), 0.5 * (m + m.T) - model.mean, atol=1e-12)


class TestLogLikelihood:
    def test_maximum_at_group_mean(self, rng):
        mats = [random_spd(rng, 4) * 0.5 + 0.5 * np.eye(4) for _ in range(5)]
        model = fit_from_matrices(mats)
        at_mean = log_likelihood(model, model.mean)
        d = vec_dim(4)
        expected = -0.5 * d * np.log(2.0 * np.pi * model.sigma**2)
        assert np.isclose(at_mean, expected, atol=1e-9)
        for m in mats:
            assert log_likelihood(model, m) <= at_mean + 1e-12

    def test_scalar_case(self):
        model = GroupModel(
            mean=np.array([[1.0]]), sigma=1.0, n_subjects=2
        )
        ll = log_likelihood(model, np.array([[1.0]]))
        assert np.isclose(ll, -0.5 * np.log(2.0 * np.pi))

    def test_monotone_in_residual_norm(self, rng):
        mats = [random_spd(rng, 3) * 0.3 + 0.7 * np.eye(3) for _ in range(4)]
        model = fit_from_matrices(mats)
        direction = np.diag([1.0, -0.5, 0.25])
        lls = [
            log_likelihood(model, reconstruct(model.mean, eps * direction))
            for eps in (0.0, 0.1, 0.2, 0.4)
        ]
        assert all(a > b for a, b in zip(lls, lls[1:]))

    def test_zero_dispersion_raises(self, rng):
        a = random_spd(rng, 3)
        model = GroupModel(mean=a, sigma=0.0, n_subjects=3)
        with pytest.raises(DegenerateModelError):
            log_likelihood(model, a)


class TestLeaveOneOut:
    def test_scores_match_manual_fit(self, rng):
        mats = [random_spd(rng, 4) * 0.4 + 0.6 * np.eye(4) for _ in range(5)]
        scores, _ = leave_one_out_scores(mats)
        model_wo_0 = fit_from_matrices(mats[1:])
        assert np.isclose(scores[0], log_likelihood(model_wo_0, mats[0]))

    def test_other_subjects_averaged(self, rng):
        mats = [random_spd(rng, 3) * 0.4 + 0.6 * np.eye(3) for _ in range(4)]
        probe = random_spd(rng, 3) * 0.4 + 0.6 * np.eye(3)
        _, others = leave_one_out_scores(mats, [probe])
        manual = np.mean(
            [
                log_likelihood(fit_from_matrices(mats[:k] + mats[k + 1 :]), probe)
                for k in range(4)
            ]
        )
        assert np.isclose(others[0], manual)
