"""Reference results of the full pipeline at three fixed seeds.

``tests/data/golden.npz`` holds these results as computed at commit
ba73681, where each matrix function ran its own eigendecomposition;
``test_golden.py`` recomputes them and compares.  Floating-point results
may move by rounding only, while p-values, ROC points and iteration and
failure counts must not move at all.  Regenerate the file only for an
intended change of results:

    PYTHONPATH=src python tests/golden.py tests/data/golden.npz
"""

import sys
from dataclasses import replace

import numpy as np

from spdconn import (
    SimConfig,
    build_null,
    fit_from_matrices,
    leave_one_out_scores,
    roc_experiment,
    sample_population,
    test_patient,
)

# (seed, n, d_sigma); the last case clips two of its four patient draws.
CASES = ((3, 12, 0.3), (17, 15, 0.3), (29, 12, 0.5))
PARAMETRIZATIONS = ("tangent", "flat")


def golden_cases() -> dict[str, np.ndarray]:
    """Named result arrays, keyed ``<seed>/<parametrization>/<quantity>``."""
    out = {}
    for seed, n, d_sigma in CASES:
        cfg = SimConfig(
            n=n, n_controls=15, sigma=0.08, d_sigma=d_sigma, k_diffs=8, m=40,
            n_patients=4, seed=seed,
        )
        controls, _ = sample_population(cfg)
        (patient,), _ = sample_population(
            cfg, rng=np.random.default_rng([seed, 1]), size=1
        )
        for par in PARAMETRIZATIONS:
            key = f"{seed}/{par}"
            model = fit_from_matrices(controls, parametrization=par)
            out[f"{key}/fit_mean"] = model.mean
            out[f"{key}/fit_sigma"] = np.array(model.sigma)
            out[f"{key}/frechet_iterations"] = np.array(model.frechet_iterations)
            null = build_null(controls, cfg.m, seed, parametrization=par)
            out[f"{key}/null_values"] = null.values
            out[f"{key}/null_failures"] = np.array(null.n_failures)
            report = test_patient(controls, patient, null)
            out[f"{key}/test_t"] = np.array([p.t for p in report.pairs])
            out[f"{key}/test_p"] = np.array([p.p_raw for p in report.pairs])
            own, other = leave_one_out_scores(
                controls[:6], [patient], parametrization=par
            )
            out[f"{key}/loo_scores"] = np.concatenate([own, other])
            curve, details = roc_experiment(
                replace(cfg, parametrization=par), return_details=True
            )
            out[f"{key}/roc_scores"] = details["scores"]
            out[f"{key}/roc_fpr"] = curve.fpr
            out[f"{key}/roc_tpr"] = curve.tpr
            out[f"{key}/roc_null_failures"] = np.array(details["null_failures"])
            out[f"{key}/roc_patients_clipped"] = np.array(details["patients_clipped"])
    return out


if __name__ == "__main__":
    np.savez_compressed(sys.argv[1], **golden_cases())
