"""Workload parameters, input generation and output checks.

Inputs are made here with plain numpy from the workload seed, so the
program under test receives only generated files or a simulation config,
and set-up time does not depend on the program's own code.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

WORKLOADS = ("roc_tangent", "roc_flat", "cli_session")

# SimConfig fields of the two simulation workloads.  roc_tangent has the
# shape of acceptance test 06 with a smaller m; roc_flat is the same
# population in the flat parametrization, where the null has no Frechet fit
# and the dense p-value and ROC sweeps dominate.
_ROC_BASE = dict(n=33, n_controls=20, sigma=0.1, k_diffs=20, d_sigma=0.2)
ROC = {
    "full": {
        "roc_tangent": dict(_ROC_BASE, m=50, n_patients=10, parametrization="tangent"),
        "roc_flat": dict(_ROC_BASE, m=10000, n_patients=20, parametrization="flat"),
    },
    "tiny": {
        "roc_tangent": dict(_ROC_BASE, n=12, k_diffs=8, d_sigma=0.4, m=20,
                            n_patients=4, parametrization="tangent"),
        "roc_flat": dict(_ROC_BASE, n=12, k_diffs=8, d_sigma=0.4, m=200,
                         n_patients=4, parametrization="flat"),
    },
}

# Output checks of the simulation workloads: the AUC floor (strict for
# roc_flat) and whether it is inclusive.
AUC_FLOOR = {"roc_tangent": (0.9, True), "roc_flat": (0.55, False)}

# The CLI session: controls with drift confound files, patients, and the
# bootstrap size passed to `spdconn test`.
SESSION = {
    "full": dict(n=33, n_controls=20, n_patients=5, t=600, m=50),
    "tiny": dict(n=10, n_controls=6, n_patients=2, t=120, m=10),
}

# A small fixed pass that enters every layer.  The traced run ends with it
# on every workload, so each per-layer figure is measured everywhere.
PROBE_SESSION = dict(n=12, n_controls=6, n_patients=2, t=150, m=10)
PROBE_ROC = dict(n=12, n_controls=10, sigma=0.1, k_diffs=8, d_sigma=0.4, m=10,
                 n_patients=2, parametrization="tangent", seed=0)
PROBE_SEED = 0

_DRIFT_NAMES = ("trend", "cosine")


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def group_root(n: int) -> np.ndarray:
    idx = np.arange(n)
    e, v = np.linalg.eigh(0.3 ** np.abs(idx[:, None] - idx[None, :]))
    return (v * np.sqrt(e)) @ v.T


def subject_chol(rng, root, sigma=0.1, k_diffs=0, d=0.0) -> np.ndarray:
    """Cholesky factor of one subject covariance ``root (I + W) root``;
    redrawn until positive definite."""
    n = root.shape[0]
    ii, jj = np.tril_indices(n, -1)
    while True:
        a = rng.normal(0.0, sigma, (n, n))
        w = 0.5 * (a + a.T)
        if k_diffs:
            pick = rng.choice(len(ii), size=k_diffs, replace=False)
            signs = rng.choice([-1.0, 1.0], size=k_diffs)
            w[ii[pick], jj[pick]] += signs * d
            w[jj[pick], ii[pick]] += signs * d
        cov = root @ (np.eye(n) + w) @ root
        try:
            return np.linalg.cholesky(0.5 * (cov + cov.T))
        except np.linalg.LinAlgError:
            continue


def _write_csv(path, names, values):
    np.savetxt(path, values, fmt="%.17g", delimiter=",",
               header=",".join(names), comments="")


def write_session(directory, seed: int, n: int, n_controls: int,
                  n_patients: int, t: int, **_) -> dict:
    """Write the CSV inputs of one CLI session and return their paths.

    Every subject carries a slow drift with a modest loading on each region;
    the controls come with confound files holding that drift.  Patients differ from the
    group on 10 pairs (fewer when n is small).
    """
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng(seed)
    root = group_root(n)
    names = [f"r{k:02d}" for k in range(n)]
    clock = np.linspace(0.0, 1.0, t)
    drift = np.column_stack([clock - 0.5, np.cos(np.pi * clock)])
    paths = {"controls": [], "confounds": [], "patients": []}

    def subject(chol):
        loadings = rng.normal(0.0, 0.3, (drift.shape[1], n))
        return rng.standard_normal((t, n)) @ chol.T + drift @ loadings

    for s in range(n_controls):
        series = subject(subject_chol(rng, root))
        path = os.path.join(directory, f"control{s:02d}.csv")
        _write_csv(path, names, series)
        paths["controls"].append(path)
        path = os.path.join(directory, f"drift{s:02d}.csv")
        _write_csv(path, _DRIFT_NAMES, drift + rng.normal(0.0, 1e-3, drift.shape))
        paths["confounds"].append(path)
    k = min(10, pair_count(n))
    for p in range(n_patients):
        series = subject(subject_chol(rng, root, k_diffs=k, d=0.3))
        path = os.path.join(directory, f"patient{p:02d}.csv")
        _write_csv(path, names, series)
        paths["patients"].append(path)
    return paths


def session_argvs(paths: dict, out_dir: str, m: int, seed: int) -> dict:
    """The three `spdconn` command lines of one session, in order."""
    return {
        "fit": ["fit", "--controls", *paths["controls"],
                "--confounds", *paths["confounds"],
                "--out", os.path.join(out_dir, "model.json")],
        "likelihood": ["likelihood", "--model", os.path.join(out_dir, "model.json"),
                       *paths["patients"]],
        "test": ["test", "--controls", *paths["controls"],
                 "--patient", paths["patients"][0],
                 "--out", os.path.join(out_dir, "report.csv"),
                 "--m", str(m), "--seed", str(seed)],
    }


def check_session(out_dir: str, n: int, n_patients: int, stdout: dict):
    """Check one session's outputs; returns (problems, fingerprint).

    The report must hold every pair once with p-values in (0, 1] and the
    Bonferroni column equal to ``min(1, P * p_raw)``; the model JSON must
    reload as a finite SPD matrix; every likelihood must be finite.
    """
    problems = []
    digest = hashlib.sha256()
    n_pairs = pair_count(n)
    report_path = os.path.join(out_dir, "report.csv")
    model_path = os.path.join(out_dir, "model.json")
    try:
        with open(report_path, "rb") as handle:
            report = handle.read()
        with open(model_path, "rb") as handle:
            model_bytes = handle.read()
    except OSError as exc:
        return [f"missing output: {exc}"], None
    digest.update(report)
    digest.update(model_bytes)
    digest.update(stdout.get("likelihood", "").encode())

    lines = [ln for ln in report.decode().splitlines() if not ln.startswith("#")]
    rows = list(csv.DictReader(lines))
    if len(rows) != n_pairs:
        problems.append(f"report has {len(rows)} rows, expected {n_pairs}")
    for row in rows:
        p_raw, p_corr = float(row["p_raw"]), float(row["p_corrected"])
        if not 0.0 < p_raw <= 1.0:
            problems.append(f"p_raw {p_raw} outside (0, 1]")
            break
        if p_corr != min(1.0, n_pairs * p_raw):
            problems.append(f"p_corrected {p_corr} != min(1, {n_pairs} * {p_raw})")
            break

    try:
        doc = json.loads(model_bytes)
        mean = np.asarray(doc["sigma_star"], dtype=np.float64).reshape(n, n)
        if not (math.isfinite(doc["sigma"]) and doc["sigma"] > 0):
            problems.append(f"model sigma {doc['sigma']} is not a positive number")
        np.linalg.cholesky(mean)
    except (ValueError, KeyError, TypeError, np.linalg.LinAlgError) as exc:
        problems.append(f"model JSON does not reload: {exc}")

    lik = stdout.get("likelihood", "").splitlines()
    scores = [ln.split("\t")[1] for ln in lik[1:] if "\t" in ln]
    if len(scores) != n_patients or not all(math.isfinite(float(s)) for s in scores):
        problems.append(f"likelihoods not finite for every patient: {lik}")
    return problems, digest.hexdigest()


def check_roc(workload: str, curve) -> list[str]:
    """AUC floor and curve end points of one simulated experiment."""
    problems = []
    floor, inclusive = AUC_FLOOR[workload]
    if not (curve.auc >= floor if inclusive else curve.auc > floor):
        problems.append(f"AUC {curve.auc:.4f} below the {floor} floor")
    first, last = curve.points[0].tolist(), curve.points[-1].tolist()
    if first != [0.0, 0.0] or last != [1.0, 1.0]:
        problems.append(f"curve runs {first} -> {last}, not (0,0) -> (1,1)")
    return problems


def roc_fingerprint(curve, details) -> str:
    digest = hashlib.sha256()
    for array in (curve.fpr, curve.tpr, details["scores"], details["labels"]):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()
