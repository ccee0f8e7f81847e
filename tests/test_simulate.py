import tracemalloc
import warnings

import numpy as np
import pytest

from spdconn import (
    ConfigurationError,
    GroupModel,
    InvalidInputError,
    SimConfig,
    auc,
    default_group_correlation,
    fit_from_matrices,
    inject_differences,
    pair_count,
    roc_experiment,
    sample_population,
    sample_time_series,
    symmetrize,
    vec_dim,
    vec_embed,
)
from spdconn import simulate


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SimConfig(n=1, n_controls=5)
        with pytest.raises(ConfigurationError):
            SimConfig(n=10, n_controls=2)
        with pytest.raises(ConfigurationError):
            SimConfig(n=10, n_controls=5, sigma=0.0)
        with pytest.raises(ConfigurationError):
            SimConfig(n=10, n_controls=5, d_sigma=-0.1)
        with pytest.raises(ConfigurationError):
            SimConfig(n=5, n_controls=5)  # default k_diffs exceeds pairs
        with pytest.raises(ConfigurationError):
            SimConfig(n=5, n_controls=5, k_diffs=2, sigma_star=np.eye(4))

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", 2.7), ("seed", True), ("n", 5.0), ("n_controls", 5.5),
        ("k_diffs", 2.5), ("m", 2.5), ("m", True), ("n_patients", 1.5),
    ])
    def test_rejects_non_integer_counts_and_seeds(self, field, value):
        fields = dict(n=5, n_controls=5, k_diffs=2)
        fields[field] = value
        with pytest.raises(ConfigurationError, match=f"^{field} must be .*, got {value!r}$"):
            SimConfig(**fields)

    @pytest.mark.parametrize("field, value", [
        ("sigma", "0.1"), ("sigma", True), ("sigma", np.inf), ("sigma", np.nan),
        ("d_sigma", "0.5"), ("d_sigma", False), ("d_sigma", np.inf), ("d_sigma", [0.5]),
    ])
    def test_rejects_non_finite_or_non_numeric_amplitudes(self, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} must be a finite number, got "):
            SimConfig(n=5, n_controls=5, k_diffs=2, **{field: value})

    def test_accepts_numpy_integers(self):
        cfg = SimConfig(n=np.int64(5), n_controls=np.int32(5), k_diffs=np.int64(2),
                        seed=np.int64(3), m=np.int64(4), n_patients=np.uint8(2))
        mats, _ = sample_population(cfg)
        assert mats.shape == (5, 5, 5)

    def test_default_group_matrix(self):
        m = default_group_correlation(6)
        assert np.array_equal(np.diag(m), np.ones(6))
        assert np.isclose(m[0, 1], 0.3) and np.isclose(m[0, 2], 0.09)
        assert np.linalg.eigvalsh(m).min() > 0


class TestSamplePopulation:
    def test_tiny_sigma_recovers_group_matrix(self):
        cfg = SimConfig(n=6, n_controls=4, sigma=1e-8, seed=0, k_diffs=3)
        mats, n_clipped = sample_population(cfg)
        assert n_clipped == 0
        for m in mats:
            assert np.linalg.norm(m - cfg.group_matrix()) < 1e-6

    def test_dispersion_consistency(self):
        cfg = SimConfig(n=10, n_controls=100, sigma=0.1, seed=5, k_diffs=5)
        mats, _ = sample_population(cfg)
        model = fit_from_matrices(mats)
        assert abs(model.sigma - cfg.sigma) / cfg.sigma < 0.10

    def test_residual_coordinate_clt_bound(self):
        cfg = SimConfig(n=10, n_controls=200, sigma=0.1, seed=1, k_diffs=5)
        mats, _ = sample_population(cfg)
        star = cfg.group_matrix()
        vecs = GroupModel(mean=star, sigma=cfg.sigma, n_subjects=len(mats)).project(mats)
        assert np.max(np.abs(vecs.mean(axis=0))) <= 3.0 * cfg.sigma / np.sqrt(200)

    def test_determinism(self):
        cfg = SimConfig(n=8, n_controls=6, sigma=0.1, seed=9, k_diffs=4)
        a, _ = sample_population(cfg)
        b, _ = sample_population(cfg)
        assert np.array_equal(a, b)

    def test_oversized_sigma_aborts(self):
        # sigma * sqrt(2n) >> 1: placement leaves the cone almost surely
        cfg = SimConfig(n=20, n_controls=10, sigma=0.5, seed=0, k_diffs=5)
        with pytest.raises(ConfigurationError):
            sample_population(cfg)


class TestInjectDifferences:
    def test_zero_amplitude_is_identity(self, rng):
        cfg = SimConfig(n=8, n_controls=5, sigma=0.1, d_sigma=0.0, k_diffs=6, seed=2)
        base = np.zeros((8, 8))
        out, pairs = inject_differences(base, cfg, rng=rng)
        assert np.array_equal(out, base)
        assert len(pairs) == 6

    def test_exactly_k_coordinates_change(self, rng):
        cfg = SimConfig(n=8, n_controls=5, sigma=0.1, d_sigma=0.25, k_diffs=6, seed=2)
        base = symmetrize(rng.standard_normal((8, 8)) * 0.05)
        out, pairs = inject_differences(base, cfg, rng=rng)
        delta = vec_embed(out) - vec_embed(base)
        changed = np.nonzero(np.abs(delta) > 1e-15)[0]
        assert len(changed) == 6
        # selected coefficients move by the amplitude (sqrt 2 in coordinates)
        np.testing.assert_allclose(
            np.abs(delta[changed]), np.sqrt(2.0) * 0.25, rtol=1e-12
        )
        # diagonal coordinates untouched
        assert np.all(changed < pair_count(8))

    def test_ground_truth_pairs_distinct_lower_triangle(self, rng):
        cfg = SimConfig(n=10, n_controls=5, sigma=0.1, d_sigma=0.1, k_diffs=9, seed=4)
        base = np.zeros((10, 10))
        _, pairs = inject_differences(base, cfg, rng=rng)
        assert len(set(pairs)) == 9
        assert all(j < i for i, j in pairs)

    def test_more_differences_than_pairs_of_the_matrix(self, rng):
        # the config allows 4 differences at n=8; a 3 x 3 residual has 3 pairs
        cfg = SimConfig(n=8, n_controls=5, sigma=0.1, d_sigma=0.2, k_diffs=4, seed=13)
        with pytest.raises(ConfigurationError, match="k_diffs exceeds the number of pairs"):
            inject_differences(np.zeros((3, 3)), cfg, rng=rng)

    def test_seeded_determinism(self):
        cfg = SimConfig(n=8, n_controls=5, sigma=0.1, d_sigma=0.2, k_diffs=4, seed=13)
        base = np.zeros((8, 8))
        a, pa = inject_differences(base, cfg)
        b, pb = inject_differences(base, cfg)
        assert np.array_equal(a, b) and pa == pb


class TestAuc:
    def test_perfect_detector(self):
        assert auc([(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]) == 1.0

    def test_chance_diagonal(self):
        assert auc([(0.0, 0.0), (1.0, 1.0)]) == 0.5

    def test_always_wrong(self):
        assert auc([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]) == 0.0

    @pytest.mark.parametrize("points", [[0.0, 1.0], [(0.0, 0.0, 1.0)], np.zeros((2, 2, 2))])
    def test_refuses_what_is_not_k_by_2(self, points):
        with pytest.raises(InvalidInputError, match=r"points must be a \(k, 2\) array"):
            auc(points)


class TestRocExperiment:
    def test_determinism(self):
        cfg = SimConfig(
            n=8, n_controls=10, sigma=0.1, d_sigma=0.2, k_diffs=4, seed=21,
            m=40, n_patients=3,
        )
        a = roc_experiment(cfg)
        b = roc_experiment(cfg)
        assert np.array_equal(a.points, b.points)
        assert a.auc == b.auc
        assert a.thresholds[0] == 0.0 and a.thresholds[-1] == 1.0
        assert a.fpr[0] == 0.0 and a.tpr[-1] == 1.0

    def test_no_signal_is_chance_level(self):
        cfg = SimConfig(
            n=10, n_controls=12, sigma=0.1, d_sigma=0.0, k_diffs=10, seed=3,
            m=150, n_patients=8,
        )
        curve = roc_experiment(cfg)
        assert 0.40 < curve.auc < 0.60

    def test_signal_beats_no_signal(self):
        base = dict(n=9, n_controls=12, sigma=0.1, k_diffs=5, m=120, n_patients=5)
        quiet = roc_experiment(SimConfig(d_sigma=0.0, seed=7, **base))
        loud = roc_experiment(SimConfig(d_sigma=0.3, seed=7, **base))
        assert loud.auc > quiet.auc + 0.2

    def test_details_expose_scores_and_detections(self):
        cfg = SimConfig(
            n=8, n_controls=10, sigma=0.1, d_sigma=0.25, k_diffs=4, seed=5,
            m=60, n_patients=4,
        )
        curve, details = roc_experiment(cfg, return_details=True)
        assert details["scores"].shape == (4, pair_count(8))
        assert details["labels"].sum() == 4 * 4
        assert 0.0 <= details["mean_raw_detections"] <= pair_count(8)
        assert 0.0 <= curve.auc <= 1.0

    @pytest.mark.parametrize("n, k_diffs", [(2, 1), (3, 3), (5, 10)])
    def test_refuses_a_config_with_every_pair_injected(self, monkeypatch, n, k_diffs):
        # no unlabelled score would leave the false positive rate undefined
        def no_draw(*args, **kwargs):
            raise AssertionError("drew a population")

        monkeypatch.setattr(simulate, "sample_population", no_draw)
        cfg = SimConfig(n=n, n_controls=6, k_diffs=k_diffs, m=20, n_patients=2)
        message = f"^k_diffs must be at most {pair_count(n) - 1} for n={n}: "
        with pytest.raises(ConfigurationError, match=message):
            roc_experiment(cfg)

    def test_one_pair_left_without_a_difference_is_enough(self):
        cfg = SimConfig(n=3, n_controls=6, k_diffs=2, m=20, n_patients=2, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = roc_experiment(cfg)
        assert np.all(np.isfinite(curve.points))
        assert 0.0 <= curve.auc <= 1.0

    def test_scoring_memory_holds_no_copy_of_the_null(self):
        # the traced peak of one whole run at roc_flat scale, in copies of
        # the (m, P) null: the patients are scored while the null is built,
        # chunk by chunk, so no point of the run holds it; storing the null
        # and then scoring it peaks at 1.10 copies
        cfg = SimConfig(
            n=33, n_controls=20, sigma=0.1, k_diffs=20, d_sigma=0.2, m=10_000,
            n_patients=20, parametrization="flat", seed=1,
        )
        tracemalloc.start()
        try:
            roc_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (cfg.m * pair_count(cfg.n) * 8) <= 0.3


class TestSampleTimeSeries:
    def test_shapes_and_determinism(self):
        cfg = SimConfig(n=6, n_controls=4, sigma=0.05, seed=8, k_diffs=3)
        a = sample_time_series(cfg, t=50)
        b = sample_time_series(cfg, t=50)
        assert len(a) == 4
        assert a[0].values.shape == (50, 6)
        assert np.array_equal(a[2].values, b[2].values)

    def test_needs_more_samples_than_regions(self):
        cfg = SimConfig(n=6, n_controls=4, sigma=0.05, seed=8, k_diffs=3)
        with pytest.raises(ConfigurationError):
            sample_time_series(cfg, t=6)
