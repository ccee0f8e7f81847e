"""The invariances of the model that the paper's analysis relies on.

Relabelling the regions permutes the per-pair report and changes nothing
else; a congruence ``A -> g A g.T`` applied to every subject leaves the
dispersion and the likelihoods of the tangent model unchanged.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spdconn import (
    SimConfig,
    build_null,
    fit_from_matrices,
    leave_one_out_scores,
    log_likelihood,
    sample_population,
    test_patient,
)
from helpers import random_invertible

seeds = st.integers(0, 2**31 - 1)
parametrizations = st.sampled_from(["tangent", "flat"])


def population(seed, n=6, n_controls=10):
    """Controls and one further draw, the patient, of a simulated group."""
    cfg = SimConfig(n=n, n_controls=n_controls, sigma=0.1, k_diffs=3, seed=seed)
    controls, _ = sample_population(cfg)
    (patient,), _ = sample_population(cfg, rng=np.random.default_rng([seed, 1]), size=1)
    return controls, patient


@settings(max_examples=10, deadline=None)
@given(seeds, parametrizations)
def test_region_permutation_permutes_the_report(seed, parametrization):
    controls, patient = population(seed)
    perm = np.random.default_rng(seed).permutation(controls.shape[-1])
    permuted = controls[:, perm][:, :, perm]
    report = test_patient(
        patient, build_null(controls, 100, seed, parametrization=parametrization)
    )
    moved = test_patient(
        patient[perm][:, perm],
        build_null(permuted, 100, seed, parametrization=parametrization),
    )
    by_pair = {(p.i, p.j): p for p in report.pairs}
    for p in moved.pairs:
        i, j = perm[p.i], perm[p.j]
        original = by_pair[max(i, j), min(i, j)]
        assert abs(p.t - original.t) <= 1e-12
        assert p.p_raw == original.p_raw


@settings(max_examples=10, deadline=None)
@given(seeds)
def test_congruence_keeps_dispersion_and_likelihoods(seed):
    controls, patient = population(seed)
    g = random_invertible(np.random.default_rng(seed), controls.shape[-1], max_cond=20)
    moved_controls, moved_patient = g @ controls @ g.T, g @ patient @ g.T
    model, moved = fit_from_matrices(controls), fit_from_matrices(moved_controls)
    np.testing.assert_allclose(moved.sigma, model.sigma, rtol=1e-9)
    np.testing.assert_allclose(
        log_likelihood(moved, moved_patient), log_likelihood(model, patient), rtol=1e-9
    )
    for got, want in zip(
        leave_one_out_scores(moved_controls, [moved_patient]),
        leave_one_out_scores(controls, [patient]),
    ):
        np.testing.assert_allclose(got, want, rtol=1e-9)
