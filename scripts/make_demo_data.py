#!/usr/bin/env python3
"""Generate a small synthetic dataset of time-series CSVs for trying the CLI.

Writes control subjects drawn from the group variability model and patients
with injected coefficient differences, plus a matching confound file per
subject (a slow drift), into the output directory.

Example:
    python scripts/make_demo_data.py --out demo/
    spdconn fit --controls demo/control_*.csv --out demo/model.json
    spdconn test --controls demo/control_*.csv --patient demo/patient_00.csv \\
        --m 2100 --seed 1 --out demo/report.csv
"""

import argparse
import csv
import os
import sys

import numpy as np

from spdconn import SimConfig, sample_population, simulate_patients


def write_csv(path, names, values):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(names)
        w.writerows(values.tolist())


def series_from_cov(cov, t, rng):
    chol = np.linalg.cholesky(cov)
    return rng.standard_normal((t, cov.shape[0])) @ chol.T


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="demo")
    ap.add_argument("--n", type=int, default=15, help="regions")
    ap.add_argument("--t", type=int, default=120, help="time points")
    ap.add_argument("--n-controls", type=int, default=20)
    ap.add_argument("--n-patients", type=int, default=3)
    ap.add_argument("--sigma", type=float, default=0.08)
    ap.add_argument("--d-sigma", type=float, default=0.2)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    cfg = SimConfig(
        n=args.n,
        n_controls=args.n_controls,
        sigma=args.sigma,
        d_sigma=args.d_sigma,
        k_diffs=min(10, args.n * (args.n - 1) // 2),
        seed=args.seed,
        n_patients=args.n_patients,
    )
    rng = np.random.default_rng(args.seed)
    names = [f"roi{k:02d}" for k in range(args.n)]

    controls, _ = sample_population(cfg, rng=rng)
    patients, labels, _ = simulate_patients(cfg, rng)

    for k, cov in enumerate(controls):
        write_csv(
            os.path.join(args.out, f"control_{k:02d}.csv"),
            names,
            series_from_cov(cov, args.t, rng),
        )
        drift = np.cumsum(rng.standard_normal((args.t, 1)), axis=0)
        write_csv(os.path.join(args.out, f"confound_{k:02d}.csv"), ["drift"], drift)
    for k, cov in enumerate(patients):
        write_csv(
            os.path.join(args.out, f"patient_{k:02d}.csv"),
            names,
            series_from_cov(cov, args.t, rng),
        )
    with open(os.path.join(args.out, "ground_truth.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["patient", "pair_index"])
        for p in range(labels.shape[0]):
            for idx in np.nonzero(labels[p])[0]:
                w.writerow([p, int(idx)])
    print(
        f"wrote {args.n_controls} controls, {args.n_patients} patients, "
        f"confounds, and ground_truth.csv to {args.out}/"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
