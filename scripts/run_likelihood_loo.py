#!/usr/bin/env python3
"""Leave-one-out likelihood experiment on simulated data.

Draws a control population and a set of patients carrying injected
coefficient differences, then scores every control by leave-one-out
likelihood and every patient by its average likelihood across the
leave-one-out models, under both the tangent and the flat group model.
The tangent model should separate the two groups more cleanly.

Example:
    python scripts/run_likelihood_loo.py --out loo_scores.csv
"""

import argparse
import csv
import sys

import numpy as np

from spdconn import (
    SimConfig,
    leave_one_out_scores,
    sample_population,
    simulate_patients,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="loo_scores.csv")
    ap.add_argument("--n", type=int, default=33)
    ap.add_argument("--n-controls", type=int, default=20)
    ap.add_argument("--n-patients", type=int, default=10)
    ap.add_argument("--sigma", type=float, default=0.1)
    ap.add_argument("--d-sigma", type=float, default=0.2)
    ap.add_argument("--k-diffs", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    cfg = SimConfig(
        n=args.n,
        n_controls=args.n_controls,
        sigma=args.sigma,
        d_sigma=args.d_sigma,
        k_diffs=args.k_diffs,
        seed=args.seed,
        n_patients=args.n_patients,
    )
    controls, _ = sample_population(cfg)
    patients, _, _ = simulate_patients(cfg, np.random.default_rng([args.seed, 1]))

    rows = []
    for parametrization in ("tangent", "flat"):
        control_scores, patient_scores = leave_one_out_scores(
            controls, list(patients), parametrization=parametrization
        )
        for k, score in enumerate(control_scores):
            rows.append([parametrization, "control", k, score])
        for k, score in enumerate(patient_scores):
            rows.append([parametrization, "patient", k, score])
        gap = control_scores.mean() - patient_scores.mean()
        spread = control_scores.std(ddof=1)
        print(
            f"{parametrization}: mean control {control_scores.mean():10.2f}, "
            f"mean patient {patient_scores.mean():10.2f}, "
            f"gap/control-spread {gap / spread:6.2f}"
        )

    with open(args.out, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["parametrization", "group", "index", "log_likelihood"])
        w.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
