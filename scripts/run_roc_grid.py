#!/usr/bin/env python3
"""Sweep the simulated detection experiment over difference amplitude,
control dispersion, and control-group size, comparing the tangent and flat
parametrizations.

Writes one CSV per panel (AUC per cell) plus the pooled ROC points of the
amplitude panel, suitable for plotting with any external tool.

Example:
    python scripts/run_roc_grid.py --out results/ --quick
"""

import argparse
import csv
import os
import sys
import time

import numpy as np

from spdconn import SimConfig, roc_experiment
from spdconn.simulate import cell_seed


def run_cell(seed, **kw):
    aucs = {}
    curves = {}
    for parametrization in ("tangent", "flat"):
        cfg = SimConfig(seed=seed, parametrization=parametrization, **kw)
        curve = roc_experiment(cfg)
        aucs[parametrization] = curve.auc
        curves[parametrization] = curve
    return aucs, curves


def write_rows(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
    print(f"wrote {path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="roc_grid", help="output directory")
    ap.add_argument("--n", type=int, default=33)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--m", type=int, default=1000, help="bootstrap iterations")
    ap.add_argument("--n-patients", type=int, default=10)
    ap.add_argument(
        "--quick", action="store_true", help="small grid and m for a fast dry run"
    )
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    m = 200 if args.quick else args.m
    n = 15 if args.quick else args.n
    base = dict(n=n, k_diffs=20, m=m, n_patients=args.n_patients)
    sigma0, s0 = 0.1, 20
    d_grid = [0.0, 0.05, 0.1, 0.2, 0.3]
    sigma_grid = [0.05, 0.08, 0.1]
    s_grid = [10, 20, 40]
    if args.quick:
        d_grid, sigma_grid, s_grid = d_grid[::2], sigma_grid[::2], s_grid[:2]

    t0 = time.time()
    cell = 0

    # panel a: difference amplitude
    rows, points = [], []
    for d in d_grid:
        aucs, curves = run_cell(
            cell_seed(args.seed, cell),
            n_controls=s0, sigma=sigma0, d_sigma=d, **base,
        )
        rows.append([d, aucs["tangent"], aucs["flat"]])
        for par, curve in curves.items():
            points.extend(
                [par, d, t, f, tp]
                for t, f, tp in zip(curve.thresholds, curve.fpr, curve.tpr)
            )
        cell += 1
        print(f"[{time.time()-t0:6.1f}s] d_sigma={d}: {aucs}")
    write_rows(
        os.path.join(args.out, "panel_a_amplitude.csv"),
        ["d_sigma", "auc_tangent", "auc_flat"],
        rows,
    )
    write_rows(
        os.path.join(args.out, "panel_a_curves.csv"),
        ["parametrization", "d_sigma", "threshold", "fpr", "tpr"],
        points,
    )

    # panel b: control dispersion at fixed relative amplitude
    rows = []
    for sigma in sigma_grid:
        aucs, _ = run_cell(
            cell_seed(args.seed, cell),
            n_controls=s0, sigma=sigma, d_sigma=2 * sigma0, **base,
        )
        rows.append([sigma, aucs["tangent"], aucs["flat"]])
        cell += 1
        print(f"[{time.time()-t0:6.1f}s] sigma={sigma}: {aucs}")
    write_rows(
        os.path.join(args.out, "panel_b_dispersion.csv"),
        ["sigma", "auc_tangent", "auc_flat"],
        rows,
    )

    # panel c: number of controls
    rows = []
    for s_count in s_grid:
        aucs, _ = run_cell(
            cell_seed(args.seed, cell),
            n_controls=s_count, sigma=sigma0, d_sigma=2 * sigma0, **base,
        )
        rows.append([s_count, aucs["tangent"], aucs["flat"]])
        cell += 1
        print(f"[{time.time()-t0:6.1f}s] S={s_count}: {aucs}")
    write_rows(
        os.path.join(args.out, "panel_c_group_size.csv"),
        ["n_controls", "auc_tangent", "auc_flat"],
        rows,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
