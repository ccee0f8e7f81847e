import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spdconn import (
    ConvergenceError,
    DegenerateModelError,
    GroupModel,
    InvalidInputError,
    SimConfig,
    TimeSeries,
    correlation_matrix,
    fit_from_matrices,
    fit_group_model,
    frechet_mean,
    leave_one_out_scores,
    log_likelihood,
    reconstruct,
    sample_population,
    sample_time_series,
    validate_spd,
    vec_dim,
    vec_unembed,
)
from spdconn.geometry import eig_apply, eig_decompose, spd_expm, symmetrize, vec_embed, whiten
from spdconn import group, inference
from spdconn.estimators import as_correlation_matrices
from spdconn.group import (
    _CG_TOLERANCE,
    TangentFrame,
    _frechet,
    _log_derivative,
    _log_weights,
    _newton_step,
    fit_stack,
)
from golden import CASES, case_inputs
from helpers import random_invertible, random_orthogonal, random_spd, random_symmetric

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

    def test_whitened_eigenvalue_ratio_beyond_float_resolution(self):
        # both members pass the eigenvalue floor, but whitened by the
        # arithmetic mean the first has eigenvalues 1 and 8e-20, whose t
        # rounds to 1 (an infinite log weight without the clamp)
        m = frechet_mean([np.diag([1.0, 2e-10]), np.diag([1.0, 5e9])])
        assert np.allclose(m, np.eye(2), rtol=0, atol=1e-10)

    @given(seeds)
    def test_congruence_equivariance(self, seed):
        # clustered family: populations scattered around a common center,
        # as in the fitting pipeline
        rng = np.random.default_rng(seed)
        mats = [0.4 * random_spd(rng, 4) + 0.6 * np.eye(4) for _ in range(5)]
        g = random_invertible(rng, 4)
        lhs = frechet_mean([g @ m @ g.T for m in mats])
        rhs = g @ frechet_mean(mats) @ g.T
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-8

    def test_gradient_condition_at_exit(self, rng, monkeypatch):
        mats = [random_spd(rng, 5) for _ in range(6)]
        monkeypatch.setattr(group, "GRADIENT_TOLERANCE", 1e-9)
        model = fit_from_matrices(mats)
        mean = model.mean
        assert model.gradient_norm <= 1e-9
        # verify independently: mean log of whitened matrices
        from spdconn import spd_logm, spd_sqrtm

        _, inv_root = spd_sqrtm(mean)
        step = np.mean([spd_logm(inv_root @ m @ inv_root) for m in mats], axis=0)
        assert np.linalg.norm(step) <= 1e-9 * 1.001

    def test_convergence_error_carries_gradient(self, rng, monkeypatch):
        mats = [random_spd(rng, 4) for _ in range(5)]
        monkeypatch.setattr(group, "MAX_ITERATIONS", 1)
        monkeypatch.setattr(group, "GRADIENT_TOLERANCE", 1e-15)
        with pytest.raises(ConvergenceError) as err:
            frechet_mean(mats)
        assert err.value.gradient_norm is not None
        assert err.value.gradient_norm > 0

    @pytest.mark.parametrize(
        "n, s_count, cond", [(4, 5, 1e3), (5, 6, 1e3), (5, 3, 1e6), (4, 5, 1e6), (8, 10, 1e6)]
    )
    def test_converges_on_spread_inputs(self, n, s_count, cond):
        # unclustered random_spd families: the unit step took up to 152 and
        # 261 iterations on the first two and did not converge in 500 on
        # the others; Newton steps take 3-4 on every draw
        for seed in range(20):
            rng = np.random.default_rng(seed)
            model = fit_from_matrices([random_spd(rng, n, cond) for _ in range(s_count)])
            assert model.frechet_iterations <= 10


class TestNewtonStep:
    @staticmethod
    def whitened_members(rng, n=5):
        # the last member has one eigenvalue: every weight takes the K = 1 branch
        return np.stack([random_spd(rng, n, cond=1e2) for _ in range(3)] + [2.0 * np.eye(n)])

    def test_operator_is_the_derivative_of_the_mean_log(self, rng):
        w = self.whitened_members(rng)
        eigvals, eigvecs = eig_decompose(w)
        x = random_symmetric(rng, w.shape[-1])

        def mean_log(eps):
            half = spd_expm(-0.5 * eps * x)
            return eig_apply(whiten(half, w), np.log).mean(axis=0)

        eps = 1e-5
        slope = (mean_log(eps) - mean_log(-eps)) / (2.0 * eps)
        h = _log_derivative(x, eigvecs, _log_weights(eigvals), slice(None))
        assert np.linalg.norm(slope + h) <= 1e-7 * np.linalg.norm(h)

    def test_operator_is_symmetric_and_at_least_identity(self, rng):
        w = self.whitened_members(rng)
        eigvals, eigvecs = eig_decompose(w)
        weights = _log_weights(eigvals)
        assert weights.min() >= 1.0
        x, y = random_symmetric(rng, w.shape[-1]), random_symmetric(rng, w.shape[-1])
        hx = _log_derivative(x, eigvecs, weights, slice(None))
        hy = _log_derivative(y, eigvecs, weights, slice(None))
        assert np.isclose(np.vdot(y, hx), np.vdot(x, hy), rtol=1e-12)
        assert np.vdot(x, hx) >= np.vdot(x, x)

    def test_step_solves_the_newton_equation(self, rng):
        w = self.whitened_members(rng)
        eigvals, eigvecs, logs = eig_decompose(w, np.log)
        gradient = logs.mean(axis=0)
        weights = _log_weights(eigvals)
        step = _newton_step(gradient, eigvecs, weights, slice(None))
        residual = _log_derivative(step, eigvecs, weights, slice(None)) - gradient
        assert np.linalg.norm(residual) <= _CG_TOLERANCE * np.linalg.norm(gradient)


def unit_step_frechet(stack, start=None):
    """Reference: the unit-step fixed point that the Newton steps replaced,
    ``M <- M^1/2 expm(G) M^1/2`` with ``G`` the mean log of the whitened
    rows, decomposing every row and started at the arithmetic mean; returns
    what ``group._frechet`` returns, the exit frame included."""
    mean = symmetrize(stack.mean(axis=0))
    for iteration in range(group.MAX_ITERATIONS):
        root, inv_root = eig_apply(mean, np.sqrt, lambda e: 1.0 / np.sqrt(e))
        eigvals, eigvecs, logs = eig_decompose(whiten(inv_root, stack), np.log)
        step = logs.mean(axis=0)
        gradient_norm = float(np.linalg.norm(step))
        if gradient_norm <= group.GRADIENT_TOLERANCE:
            frame = TangentFrame(mean, root, inv_root, stack, eigvals, eigvecs, logs)
            return mean, inv_root, iteration, gradient_norm, frame
        mean = symmetrize(root @ spd_expm(step) @ root)
    raise ConvergenceError("reference fit did not converge", gradient_norm)


def cold_frechet(stack, start=None):
    """Reference: ``group._frechet`` ignoring its warm start, so every fit
    starts at the arithmetic mean of its rows."""
    return _frechet(stack)


def newton_every_row(stack):
    """Reference fit: the Newton iteration decomposing every row of the
    stack, repeated rows included; returns mean, residuals, sigma,
    iterations."""
    mean = symmetrize(stack.mean(axis=0))
    for iteration in range(group.MAX_ITERATIONS):
        root, inv_root = eig_apply(mean, np.sqrt, lambda e: 1.0 / np.sqrt(e))
        eigvals, eigvecs, logs = eig_decompose(whiten(inv_root, stack), np.log)
        gradient = logs.mean(axis=0)
        if np.linalg.norm(gradient) <= group.GRADIENT_TOLERANCE:
            vecs = vec_embed(whiten(inv_root, stack) - np.eye(stack.shape[-1]))
            return mean, vecs, float(np.sqrt(np.mean(vecs**2))), iteration
        step = _newton_step(gradient, eigvecs, _log_weights(eigvals), slice(None))
        mean = symmetrize(root @ spd_expm(step) @ root)
    raise AssertionError("reference fit did not converge")


def bootstrap_resample(seed, n=6, s_count=20):
    """A 20-row stack drawn with replacement from 19 distinct symmetric
    members, as a bootstrap iteration draws it from the validated controls,
    and its number of distinct members."""
    rng = np.random.default_rng(seed)
    members = symmetrize(
        [0.4 * random_spd(rng, n) + 0.6 * np.eye(n) for _ in range(s_count - 1)]
    )
    pick = rng.choice(s_count - 1, size=s_count, replace=True)
    return members[pick], len(set(pick.tolist()))


class TestRepeatedMembers:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("copies", [False, True])
    def test_fit_is_bit_identical_to_decomposing_every_row(self, seed, copies):
        stack, distinct = bootstrap_resample(seed)
        assert distinct < len(stack)
        if copies:  # equal members as separately allocated arrays, validated
            model = fit_from_matrices([m.copy() for m in stack])
        else:
            model = fit_stack(stack)
        mean, vecs, sigma, iterations = newton_every_row(stack)
        assert np.array_equal(model.mean, mean)
        assert np.array_equal(model.residuals, vecs)
        assert model.sigma == sigma
        assert model.frechet_iterations == iterations

    def test_cold_frame_decomposes_every_row_of_the_stack(self):
        stack, distinct = bootstrap_resample(3)
        assert distinct < len(stack)
        frame = fit_stack(stack).frame
        assert frame.mats is stack
        assert frame.eigvals.shape == stack.shape[:-1]
        assert frame.eigvecs.shape == stack.shape
        assert frame.logs.shape == stack.shape


def warm_case(seed, n=6, s_count=20, repeat=None):
    """Controls and one bootstrap resample of them, drawn as ``build_null``
    draws it: ``s_count`` rows with replacement from all but one control.
    ``repeat = (i, j)`` makes control ``j`` a copy of control ``i``."""
    rng = np.random.default_rng(seed)
    controls = symmetrize(
        [0.4 * random_spd(rng, n) + 0.6 * np.eye(n) for _ in range(s_count)]
    )
    if repeat is not None:
        controls[repeat[1]] = controls[repeat[0]]
    left = int(rng.integers(s_count))
    pick = rng.choice(np.delete(np.arange(s_count), left), size=s_count, replace=True)
    return controls, pick


def spy_exit_bounds(monkeypatch):
    """Record what ``group._exit_bound`` returns, ``(estimate, bound)``
    per call, in a list."""
    bounds = []
    exit_bound = group._exit_bound

    def spy(*args):
        bounds.append(exit_bound(*args))
        return bounds[-1]

    monkeypatch.setattr(group, "_exit_bound", spy)
    return bounds


def warm_and_cold(controls, pick):
    """The fit of ``controls[pick]`` started from the frame of the fit of
    ``controls``, and the same fit started at the arithmetic mean."""
    full = fit_stack(controls)
    warm = fit_stack(controls[pick], start=(full.frame, pick))
    return warm, fit_stack(controls[pick])


class TestWarmStart:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_decomposition_round_fewer(self, seed, monkeypatch):
        controls, pick = warm_case(seed)
        full = fit_stack(controls)
        distinct = len(set(pick.tolist()))
        counted = []
        eigh = np.linalg.eigh

        def counting(a):
            counted.append(int(np.prod(np.shape(a)[:-2])))
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        bounds = spy_exit_bounds(monkeypatch)
        it = fit_stack(controls[pick], start=(full.frame, pick)).frechet_iterations
        assert it == 2
        assert bounds[-1][1] <= group.GRADIENT_TOLERANCE  # the certificate accepted
        # each uncertified iteration decomposes the step, the mean and each
        # member, (distinct + 2) (it - 1); the certified one only the step
        # and the mean: distinct + 4 for two iterations
        assert sum(counted) == (distinct + 2) * (it - 1) + 2

    def test_first_step_restricts_the_control_fit_weights(self, monkeypatch):
        controls, pick = warm_case(0)
        full = fit_stack(controls)
        present = np.unique(pick)
        assert np.array_equal(full.frame.weights[present], _log_weights(full.frame.eigvals[present]))
        computed = []
        monkeypatch.setattr(group, "_log_weights", lambda e: computed.append(e) or _log_weights(e))
        it = fit_stack(controls[pick], start=(full.frame, pick)).frechet_iterations
        # one per decomposed frame: none for the restricted first one
        assert len(computed) == it - 1

    def test_start_at_the_fixed_point_decomposes_nothing(self, monkeypatch):
        controls, _ = warm_case(3)
        full = fit_stack(controls)
        monkeypatch.setattr(np.linalg, "eigh", None)  # any call fails
        rows = np.arange(len(controls))
        again = fit_stack(controls, start=(full.frame, rows))
        assert again.frechet_iterations == 0
        assert np.array_equal(again.mean, full.mean)
        assert np.array_equal(again.residuals, full.residuals)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_converges_to_the_cold_start_mean(self, seed):
        controls, pick = warm_case(seed, n=8)
        warm, cold = warm_and_cold(controls, pick)
        assert np.linalg.norm(warm.mean - cold.mean) <= 1e-8 * np.linalg.norm(cold.mean)
        assert abs(warm.sigma - cold.sigma) <= 1e-8 * cold.sigma
        assert warm.gradient_norm <= group.GRADIENT_TOLERANCE
        # the gradient at exit is the mean log at the returned mean
        inv_root = eig_apply(warm.mean, lambda e: 1.0 / np.sqrt(e))
        gradient = eig_apply(whiten(inv_root, controls[pick]), np.log).mean(axis=0)
        assert abs(np.linalg.norm(gradient) - warm.gradient_norm) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 1])
    def test_controls_with_a_repeated_matrix(self, seed):
        controls, pick = warm_case(seed, repeat=(2, 5))
        pick[:3] = [2, 5, 5]  # the repeated matrix under both of its rows
        warm, cold = warm_and_cold(controls, pick)
        assert np.linalg.norm(warm.mean - cold.mean) <= 1e-8 * np.linalg.norm(cold.mean)
        assert np.allclose(warm.residuals, cold.residuals, rtol=0, atol=1e-8)
        assert warm.frame is None


def exact_exit_gradient(model, controls, pick) -> float:
    """The gradient norm that the decomposed check computes at the mean of
    a refit of ``controls[pick]``: one ``eigh`` of each drawn control
    whitened by ``model.inv_root``, the logs gathered back into the draws."""
    present, inverse = np.unique(pick, return_inverse=True)
    logs = eig_apply(whiten(model.inv_root, controls[present]), np.log)
    return float(np.linalg.norm(logs[inverse].mean(axis=0)))


def resamples(seed, s_count, count):
    """The first resamples of bootstrap iterations ``0 <= k < count``."""
    return [next(inference._resamples(seed, k, s_count))[1] for k in range(count)]


def certified_refits(monkeypatch, controls, picks) -> np.ndarray:
    """``(bound, estimate, exact exit gradient)`` of each refit of
    ``controls[pick]`` that ends on the exit certificate, started from the
    fit of ``controls``."""
    full = fit_stack(controls)
    bounds = spy_exit_bounds(monkeypatch)
    rows = []
    for pick in picks:
        bounds.clear()
        model = fit_stack(controls[pick], start=(full.frame, pick))
        if bounds and bounds[-1][1] <= group.GRADIENT_TOLERANCE:
            estimate, bound = bounds[-1]
            assert model.gradient_norm == estimate
            rows.append((bound, estimate, exact_exit_gradient(model, controls, pick)))
    return np.array(rows).reshape(-1, 3)


@pytest.fixture(scope="module")
def roc_controls():
    """Controls of the roc_tangent workload's shape: n=33, S=20, sigma=0.1."""
    cfg = SimConfig(n=33, n_controls=20, sigma=0.1, k_diffs=20, d_sigma=0.2, seed=1)
    return sample_population(cfg)[0]


class TestExitCertificate:
    """A warm refit may end on a bound of its exit gradient; the bound is
    never below the gradient that decomposing the members would give."""

    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"seed{c[0]}")
    def test_bound_covers_the_exit_gradient_on_golden_inputs(self, case, monkeypatch):
        cfg, controls, _ = case_inputs(*case)
        got = certified_refits(monkeypatch, controls, resamples(case[0], len(controls), cfg.m))
        assert len(got) == cfg.m
        assert np.all(got[:, 0] >= got[:, 2])

    def test_bound_covers_the_exit_gradient_at_benchmark_scale(self, roc_controls, monkeypatch):
        got = certified_refits(monkeypatch, roc_controls, resamples(5, 20, 60))
        assert len(got) >= 0.9 * 60
        assert np.all(got[:, 0] >= got[:, 2])
        # the estimate is the exact norm to within the remainder
        assert np.all(np.abs(got[:, 1] - got[:, 2]) <= got[:, 0] - got[:, 1])

    def test_bound_covers_the_exit_gradient_on_spread_inputs(self, monkeypatch):
        # the unclustered families of TestFrechetMean; at condition 1e6 the
        # slack, which grows with the members' condition number, refuses many
        certified = 0
        for n, s_count, cond in [(4, 5, 1e3), (5, 6, 1e3), (5, 3, 1e6), (4, 5, 1e6), (8, 10, 1e6)]:
            for seed in range(20):
                rng = np.random.default_rng(seed)
                controls = np.stack([random_spd(rng, n, cond) for _ in range(s_count)])
                got = certified_refits(monkeypatch, controls, resamples(seed, s_count, 5))
                assert np.all(got[:, 0] >= got[:, 2]), (n, s_count, cond, seed)
                certified += len(got)
        assert certified >= 250

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_estimate_with_repeated_and_near_eigenvalues(self, seed):
        # a member with equal or near eigenvalues (relative gaps 1e-9 and
        # 1e-7, below _NEAR) refuses the certificate; separated ones, one
        # pair at relative gap 2 _NEAR, give sums of second divided
        # differences of order |step|^2 = 1e-8, far above the remainder
        # and slack
        rng = np.random.default_rng(seed)
        t = 2.0 * group._NEAR
        separated = [
            [0.3, 0.7, 1.1, 1.9, 2.6], [0.5, 1, (1 + t) / (1 - t), 2, 3], [0.4, 0.8, 1.3, 1.6, 2.2],
        ]
        near = [[1, 1, 1, 2, 3], [0.5, 0.5 + 1e-9, 1, 1 + 1e-7, 2], [2] * 5]
        step = random_symmetric(rng, 5, scale=1e-4)
        inverse = np.array([0, 1, 1, 2, 3, 3])
        identity = np.eye(5)

        def exit_bound(spectra):
            rotations = [random_orthogonal(rng, 5) for _ in spectra]
            members = np.stack([(q * np.array(e)) @ q.T for e, q in zip(spectra, rotations)])
            eigvals, eigvecs, logs = eig_decompose(members, np.log)
            frame = group.TangentFrame(identity, identity, identity, members, eigvals, eigvecs, logs)
            estimate, bound = group._exit_bound(frame, step, logs[inverse].mean(axis=0), inverse)
            after = whiten(spd_expm(-0.5 * step), members)
            return estimate, bound, np.linalg.norm(eig_apply(after, np.log)[inverse].mean(axis=0))

        for spectrum in near:
            assert exit_bound([*separated, spectrum])[:2] == (np.inf, np.inf)
        estimate, bound, exact = exit_bound([*separated, [0.6, 0.9, 1.2, 1.5, 3.0]])
        assert abs(estimate - exact) <= bound - estimate <= 1e-9

    def test_a_step_that_could_leave_the_cone_gets_no_bound(self):
        # one member of condition 1e5 among 19 near the mean keeps the
        # slack small, and a step along its extreme eigenvectors perturbs
        # it by beta >= 1 relative to its smallest eigenvalue
        rng = np.random.default_rng(0)
        spectra = [np.linspace(0.8, 1.2, 5)] * 19 + [np.geomspace(10**-2.5, 10**2.5, 5)]
        rotations = [random_orthogonal(rng, 5) for _ in spectra]
        members = np.stack([(q * e) @ q.T for e, q in zip(spectra, rotations)])
        eigvals, eigvecs, logs = eig_decompose(members, np.log)
        identity = np.eye(5)
        frame = group.TangentFrame(identity, identity, identity, members, eigvals, eigvecs, logs)
        low, high = eigvecs[-1][:, 0], eigvecs[-1][:, -1]
        direction = np.outer(low, high) + np.outer(high, low)
        inverse = np.arange(20)

        def exit_bound(half_norm):  # of |step / 2|
            step = direction * (2 * half_norm / np.linalg.norm(direction))
            return group._exit_bound(frame, step, logs.mean(axis=0), inverse)

        estimate, bound = exit_bound(5e-3)
        assert np.isfinite(estimate) and bound == np.inf
        assert np.isfinite(exit_bound(1e-4)[1])

    def test_no_exit_after_the_last_iteration_allowed(self, monkeypatch):
        # the decomposed check after the second step is never made, so a
        # refit that needs two steps fails as the decomposed one would
        controls, pick = warm_case(0)
        full = fit_stack(controls)
        monkeypatch.setattr(group, "MAX_ITERATIONS", 2)
        with pytest.raises(ConvergenceError, match="did not converge in 2 iterations"):
            fit_stack(controls[pick], start=(full.frame, pick))

    def test_residuals_whiten_every_drawn_row(self, roc_controls):
        full = fit_stack(roc_controls)
        n = roc_controls.shape[-1]
        for pick in resamples(7, 20, 50):
            model = fit_stack(roc_controls[pick], start=(full.frame, pick))
            every_row = vec_embed(whiten(model.inv_root, roc_controls[pick]) - np.eye(n))
            assert np.array_equal(model.residuals, every_row)

    def test_refusing_changes_no_refit(self, roc_controls, monkeypatch):
        full = fit_stack(roc_controls)
        picks = resamples(3, 20, 10)
        certified = [fit_stack(roc_controls[pick], start=(full.frame, pick)) for pick in picks]
        monkeypatch.setattr(group, "_exit_bound", lambda *args: (np.inf, np.inf))
        for pick, model in zip(picks, certified):
            decomposed = fit_stack(roc_controls[pick], start=(full.frame, pick))
            assert np.array_equal(model.mean, decomposed.mean)
            assert np.array_equal(model.inv_root, decomposed.inv_root)
            assert np.array_equal(model.residuals, decomposed.residuals)
            assert model.frechet_iterations == decomposed.frechet_iterations


def deviation(mean, subject) -> np.ndarray:
    """Tangent deviation of ``subject`` at ``mean`` as an ``(n, n)`` array,
    from the coordinates of :meth:`GroupModel.project`."""
    model = GroupModel(mean=validate_spd(mean), sigma=1.0, n_subjects=2)
    return vec_unembed(model.project(validate_spd(subject)), model.n)


class TestResidual:
    def test_residual_of_self_is_zero(self, rng):
        a = random_spd(rng, 4)
        assert np.linalg.norm(deviation(a, a)) < 1e-12

    def test_whitening_by_identity(self):
        out = deviation(np.eye(2), np.diag([4.0, 1.0]))
        assert np.allclose(out, np.diag([3.0, 0.0]), atol=1e-14)

    @given(seeds)
    def test_reconstruct_inverts_residual(self, seed):
        rng = np.random.default_rng(seed)
        mean, subject = random_spd(rng, 4), random_spd(rng, 4)
        back = reconstruct(mean, deviation(mean, subject))
        assert np.linalg.norm(back - subject) / np.linalg.norm(subject) < 1e-12


class TestFitGroupModel:
    @pytest.mark.parametrize("call", [
        lambda: group.check_parametrization("curved"),
        lambda: fit_from_matrices(np.stack([np.eye(3)] * 3), parametrization="curved"),
        lambda: inference.build_null(np.stack([np.eye(3)] * 3), m=5, parametrization="curved"),
        lambda: SimConfig(n=5, n_controls=5, k_diffs=2, parametrization="curved"),
    ], ids=["check", "fit", "build_null", "SimConfig"])
    def test_refuses_an_unknown_parametrization(self, call):
        message = r"^unknown parametrization 'curved'; expected one of \('tangent', 'flat'\)$"
        with pytest.raises(InvalidInputError, match=message):
            call()

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

    @pytest.mark.parametrize("fit", [fit_from_matrices, frechet_mean])
    def test_rejects_mixed_shapes(self, fit):
        with pytest.raises(InvalidInputError, match="inconsistent shapes"):
            fit([np.eye(3), np.eye(4)])
        with pytest.raises(InvalidInputError, match="not a numeric matrix"):
            fit([np.eye(2), [[1.0, 0.0], [0.0]]])

    @pytest.mark.parametrize("fit", [fit_from_matrices, frechet_mean])
    def test_rejects_empty_input(self, fit):
        with pytest.raises(InvalidInputError, match="empty"):
            fit([])

    @pytest.mark.parametrize("fit", [fit_from_matrices, frechet_mean, as_correlation_matrices])
    def test_validates_the_stack_in_one_call(self, fit, monkeypatch):
        mats, _ = sample_population(SimConfig(n=5, n_controls=6, sigma=0.05, seed=1, k_diffs=2))
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            calls.append(np.shape(a))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        fit(list(mats))
        assert calls == [(6, 5, 5)]


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

    def test_dimension_mismatch(self, rng):
        model = GroupModel(mean=random_spd(rng, 3), sigma=1.0, n_subjects=3)
        with pytest.raises(InvalidInputError, match="shape"):
            log_likelihood(model, random_spd(rng, 4))

    def test_takes_a_time_series_named_as_the_model(self):
        cfg = SimConfig(n=5, n_controls=7, sigma=0.08, seed=42, k_diffs=3)
        *controls, subject = sample_time_series(cfg, t=60)
        model = fit_group_model(controls)
        assert log_likelihood(model, subject) == log_likelihood(model, correlation_matrix(subject))
        perm = [1, 0, 2, 3, 4]
        swapped = TimeSeries(subject.values[:, perm], [subject.region_names[k] for k in perm])
        with pytest.raises(InvalidInputError, match="differ from the controls'"):
            log_likelihood(model, swapped)


class TestLeaveOneOut:
    def test_scores_match_manual_fit(self, rng):
        mats = [random_spd(rng, 4) * 0.4 + 0.6 * np.eye(4) for _ in range(5)]
        scores, _ = leave_one_out_scores(mats)
        model_wo_0 = fit_from_matrices(mats[1:])
        assert np.isclose(scores[0], log_likelihood(model_wo_0, mats[0]))

    def test_needs_three_subjects(self, rng):
        mats = [random_spd(rng, 3) * 0.4 + 0.6 * np.eye(3) for _ in range(2)]
        with pytest.raises(InvalidInputError, match="leave-one-out needs at least 3 subjects"):
            leave_one_out_scores(mats)

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

    def test_rejects_other_subjects_with_permuted_regions(self):
        cfg = SimConfig(n=5, n_controls=7, sigma=0.08, seed=42, k_diffs=3)
        *controls, patient = sample_time_series(cfg, t=60)
        perm = [1, 0, 2, 3, 4]
        swapped = TimeSeries(
            patient.values[:, perm], [patient.region_names[k] for k in perm]
        )
        leave_one_out_scores(controls, [patient])
        with pytest.raises(InvalidInputError, match="regions"):
            leave_one_out_scores(controls, [swapped])

    def test_rejects_other_dimension(self, rng, monkeypatch):
        from spdconn import group

        fits = []
        original = group.fit_stack

        def counting(*args, **kwargs):
            fits.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(group, "fit_stack", counting)
        mats = [random_spd(rng, 4) * 0.4 + 0.6 * np.eye(4) for _ in range(4)]
        with pytest.raises(InvalidInputError):
            leave_one_out_scores(mats, [np.eye(3)])
        assert fits == []
