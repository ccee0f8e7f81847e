"""Command-line interface: fit a group model, test a patient, score
likelihoods, and run simulated detection experiments."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import io as sio
from .estimators import correlation_matrix, residualize_confounds
from .exceptions import (
    ConfigurationError,
    ConvergenceError,
    DegenerateInputError,
    DegenerateModelError,
    InvalidInputError,
    NearSingularError,
    NumericRangeError,
)
from .group import (
    FLAT,
    TANGENT,
    fit_group_model,
    leave_one_out_scores,
    log_likelihood,
)
from .inference import build_null, test_patient
from .simulate import SimConfig, cell_seed, roc_experiment

_ERRORS = (
    ConfigurationError,
    ConvergenceError,
    DegenerateInputError,
    DegenerateModelError,
    InvalidInputError,
    NearSingularError,
    NumericRangeError,
    OSError,
)


def _load_series(paths, confound_paths=None):
    series = [sio.read_time_series(p) for p in paths]
    if confound_paths:
        if len(confound_paths) != len(paths):
            raise InvalidInputError(
                f"{len(confound_paths)} confound files for {len(paths)} subjects"
            )
        series = [
            residualize_confounds(ts, sio.read_time_series(cp).values)
            for ts, cp in zip(series, confound_paths)
        ]
    return series


def cmd_fit(args) -> int:
    series = _load_series(args.controls, args.confounds)
    model = fit_group_model(series)
    sio.write_model(args.out, model)
    print(f"subjects: {model.n_subjects}")
    print(f"regions: {model.n}")
    print(f"sigma: {model.sigma:.6e}")
    print(f"frechet_iterations: {model.frechet_iterations}")
    return 0


def cmd_test(args) -> int:
    controls = _load_series(args.controls)
    patient = sio.read_time_series(args.patient)
    null = build_null(
        controls, args.m, args.seed, parametrization=args.parametrization
    )
    subject_id = os.path.splitext(os.path.basename(args.patient))[0]
    report = test_patient(
        controls, patient, null, alpha=args.alpha, subject_id=subject_id
    )
    sio.write_report(args.out, report, m=args.m, seed=args.seed)
    print(f"pairs_tested: {len(report.pairs)}")
    print(f"significant_corrected: {report.n_significant(corrected=True)}")
    print(f"significant_raw: {report.n_significant(corrected=False)}")
    return 0


def cmd_likelihood(args) -> int:
    if args.loo:
        if not args.controls:
            raise InvalidInputError("--loo requires --controls")
        controls = _load_series(args.controls)
        others = _load_series(args.subjects) if args.subjects else []
        control_scores, other_scores = leave_one_out_scores(
            controls, others, parametrization=args.parametrization
        )
        print("control\tloo_log_likelihood")
        for path, score in zip(args.controls, control_scores):
            print(f"{os.path.basename(path)}\t{score:.6f}")
        if args.subjects:
            print("subject\tmean_loo_log_likelihood")
            for path, score in zip(args.subjects, other_scores):
                print(f"{os.path.basename(path)}\t{score:.6f}")
        return 0
    if not args.model:
        raise InvalidInputError("either --model or --loo is required")
    if not args.subjects:
        raise InvalidInputError("no subject files given")
    if args.parametrization == FLAT:
        raise InvalidInputError(
            "a saved model is always tangent; --parametrization flat needs --loo"
        )
    model = sio.read_model(args.model)
    subjects = _load_series(args.subjects)
    print("subject\tlog_likelihood")
    for path, ts in zip(args.subjects, subjects):
        score = log_likelihood(model, correlation_matrix(ts))
        print(f"{os.path.basename(path)}\t{score:.6f}")
    return 0


_SIM_KEYS = frozenset(f.name for f in dataclasses.fields(SimConfig))


def _simulate_config(args) -> dict:
    base = {}
    if args.config:
        with open(args.config) as handle:
            base = json.load(handle)
        unknown = set(base) - _SIM_KEYS
        if unknown:
            raise ConfigurationError(
                f"{args.config}: unknown simulation keys {sorted(unknown)}"
            )
        if base.get("sigma_star") is not None:
            base["sigma_star"] = np.asarray(base["sigma_star"], dtype=np.float64)
    for key in ("n", "n_controls", "sigma", "k_diffs", "m", "seed", "n_patients"):
        value = getattr(args, key)
        if value is not None:
            base[key] = value
    if args.d_sigma is not None:
        base["d_sigma"] = args.d_sigma
    if args.parametrization is not None:
        base["parametrization"] = args.parametrization
    base.setdefault("n", 15)
    base.setdefault("n_controls", 20)
    return base


def cmd_simulate(args) -> int:
    base = _simulate_config(args)
    d_grid = base.pop("d_sigma", 0.0)
    if np.isscalar(d_grid):
        d_grid = [d_grid]
    requested = base.pop("parametrization", TANGENT)
    parametrizations = [TANGENT, FLAT] if requested == "both" else [requested]
    seed = int(base.pop("seed", 0))
    rows = []
    cell = 0
    for parametrization in parametrizations:
        for d_sigma in d_grid:
            cfg = SimConfig(
                d_sigma=float(d_sigma),
                parametrization=parametrization,
                seed=cell_seed(seed, cell),
                **base,
            )
            curve = roc_experiment(cfg)
            key = (parametrization, repr(float(d_sigma)), repr(cfg.sigma), cfg.n_controls)
            for point in zip(curve.thresholds, curve.fpr, curve.tpr):
                rows.append(("point", *key, *(repr(float(x)) for x in point), ""))
            rows.append(("auc", *key, "", "", "", repr(float(curve.auc))))
            print(
                f"parametrization={parametrization} d_sigma={d_sigma} "
                f"auc={curve.auc:.4f}"
            )
            cell += 1
    sio.write_roc_table(args.out, rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdconn",
        description=(
            "Group-level covariance statistics on the SPD manifold: fit a "
            "control-group model, test single subjects per region pair, "
            "score likelihoods, and run simulated detection experiments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit the group model from control time series")
    fit.add_argument("--controls", nargs="+", required=True, metavar="CSV")
    fit.add_argument("--confounds", nargs="+", metavar="CSV")
    fit.add_argument("--out", required=True, help="output model JSON path")
    fit.set_defaults(func=cmd_fit)

    test = sub.add_parser("test", help="test one patient against the controls")
    test.add_argument("--controls", nargs="+", required=True, metavar="CSV")
    test.add_argument("--patient", required=True, metavar="CSV")
    test.add_argument("--out", required=True, help="output report CSV path")
    test.add_argument("--m", type=int, default=1000, help="bootstrap iterations")
    test.add_argument("--seed", type=int, default=0)
    test.add_argument("--alpha", type=float, default=0.05)
    test.add_argument(
        "--parametrization", choices=(TANGENT, FLAT), default=TANGENT
    )
    test.set_defaults(func=cmd_test)

    lik = sub.add_parser("likelihood", help="log-likelihood of subjects under a model")
    lik.add_argument("subjects", nargs="*", metavar="CSV")
    lik.add_argument("--model", help="fitted model JSON")
    lik.add_argument("--loo", action="store_true", help="leave-one-out over --controls")
    lik.add_argument("--controls", nargs="+", metavar="CSV")
    lik.add_argument(
        "--parametrization", choices=(TANGENT, FLAT), default=TANGENT
    )
    lik.set_defaults(func=cmd_likelihood)

    sim = sub.add_parser("simulate", help="simulated detection experiment (ROC)")
    sim.add_argument("--config", help="JSON file with simulation parameters")
    sim.add_argument("--out", required=True, help="output table CSV path")
    sim.add_argument("--n", type=int, default=None)
    sim.add_argument("--n-controls", dest="n_controls", type=int, default=None)
    sim.add_argument("--sigma", type=float, default=None)
    sim.add_argument("--d-sigma", dest="d_sigma", type=float, nargs="+", default=None)
    sim.add_argument("--k-diffs", dest="k_diffs", type=int, default=None)
    sim.add_argument("--m", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--n-patients", dest="n_patients", type=int, default=None)
    sim.add_argument(
        "--parametrization", choices=(TANGENT, FLAT, "both"), default=None
    )
    sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
