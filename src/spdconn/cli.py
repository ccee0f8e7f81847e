"""Command-line interface: fit a group model, test a patient, score
likelihoods, and run simulated detection experiments."""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import os
import sys

import numpy as np

from . import io as sio
from .estimators import as_correlation_matrices, residualize_confounds
from .exceptions import (
    ConfigurationError,
    InvalidInputError,
    SpdconnError,
    check_finite,
    check_integer,
)
from .geometry import pair_count
from .group import (
    FLAT,
    TANGENT,
    fit_group_model,
    fit_stack,
    leave_one_out_scores,
    log_likelihood,
    subject_stack,
)
from .inference import (
    bonferroni_floor,
    check_alpha,
    check_controls,
    degenerate_floor,
    score_stack,
)
from .simulate import SimConfig, cell_seed, roc_experiment

_ERRORS = (SpdconnError, OSError)


def _load_series(paths, confound_paths=None):
    """Read the time series at ``paths``, each residualized on the series
    at the matching ``confound_paths`` where those are given; a count of
    confound files other than that of ``paths`` is refused before any read."""
    if confound_paths and len(confound_paths) != len(paths):
        raise InvalidInputError(
            f"{len(confound_paths)} confound files for {len(paths)} subjects"
        )
    series = [sio.read_time_series(p) for p in paths]
    if confound_paths:
        series = [
            residualize_confounds(ts, sio.read_time_series(cp).values)
            for ts, cp in zip(series, confound_paths)
        ]
    return series


def _check_out(path, inputs):
    """Refuse a directory, a missing directory or one of the ``inputs`` as ``--out``."""
    if os.path.isdir(path):
        raise InvalidInputError(f"--out {path}: it is a directory")
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise InvalidInputError(f"--out {path}: its directory does not exist")
    if os.path.exists(path):
        for name in inputs:
            if os.path.exists(name) and os.path.samefile(path, name):
                raise InvalidInputError(f"--out {path}: it is the input {name}")


def _check_distinct(inputs):
    """Refuse a file given twice among ``inputs``, ``(flag, path)`` pairs in
    argument order, before any is read.  Two paths name the same file when
    ``os.path.samefile`` would say so, by device and inode; a path that
    ``os.stat`` cannot reach is left to its reader to report."""
    seen = {}
    for flag, path in inputs:
        try:
            info = os.stat(path)
        except OSError:
            continue
        key = (info.st_dev, info.st_ino)
        if key in seen:
            raise InvalidInputError(f"{flag} {path}: it is also given as {seen[key]}")
        seen[key] = f"{flag} {path}"


def cmd_fit(args) -> int:
    _check_out(args.out, [*args.controls, *(args.confounds or ())])
    _check_distinct([("--controls", path) for path in args.controls])
    series = _load_series(args.controls, args.confounds)
    model = fit_group_model(series)
    sio.write_model(args.out, model)
    print(f"subjects: {model.n_subjects}")
    print(f"regions: {model.n}")
    print(f"sigma: {model.sigma:.6e}")
    print(f"frechet_iterations: {model.frechet_iterations}")
    return 0


def _warn_if_no_pair_can_be_significant(n_pairs: int, s_count: int, m: int, alpha: float):
    """Say on stderr when no pair can be significant after Bonferroni
    correction, naming the smallest control count and the smallest ``m``
    that can be, for each of the two that falls short."""
    reasons = []
    share = degenerate_floor(s_count)
    if n_pairs * share >= alpha:
        # the share falls to 0.0 as s grows, so the search ends
        enough = next(s for s in itertools.count(s_count + 1)
                      if n_pairs * degenerate_floor(s) < alpha)
        reasons.append(
            f"with {s_count} controls, about {share:.3g} of the null rows resample "
            f"one control and exceed every statistic, so the smallest "
            f"Bonferroni-corrected p-value over {n_pairs} pairs is about "
            f"{min(1.0, n_pairs * share):.6g}, not below alpha {alpha}; "
            f"use {enough} controls or more"
        )
    floor = bonferroni_floor(n_pairs, m)
    if floor >= alpha:  # a report's own test is p_corrected < alpha
        # the smallest m + 1 > P / alpha, found by bisection with the same
        # floating-point test, which holds for every m above one that
        # passes; m + 1.0 overflows beyond the largest float
        low, high = 1, int(sys.float_info.max)
        while low < high:
            mid = (low + high) // 2
            if bonferroni_floor(n_pairs, mid) < alpha:
                high = mid
            else:
                low = mid + 1
        reachable = bonferroni_floor(n_pairs, low) < alpha
        advice = f"use --m {low} or more" if reachable else "no --m can reach it"
        reasons.append(
            f"the smallest Bonferroni-corrected p-value over {n_pairs} pairs with "
            f"--m {m} is {floor:.6g}, not below alpha {alpha}; {advice}"
        )
    if reasons:
        print("warning: no pair can be significant: " + "; and ".join(reasons), file=sys.stderr)


def cmd_test(args) -> int:
    check_alpha(args.alpha)
    check_integer("--m", args.m, 1)
    check_integer("seed", args.seed, 0)
    _check_out(args.out, [*args.controls, args.patient])
    _check_distinct([*(("--controls", path) for path in args.controls), ("--patient", args.patient)])
    # estimate and check the controls and the patient before the warning and the bootstrap
    controls, names = as_correlation_matrices(_load_series(args.controls))
    check_controls(controls)
    n = controls.shape[-1]
    patient = subject_stack([sio.read_time_series(args.patient)], n, names)
    _warn_if_no_pair_can_be_significant(pair_count(n), len(controls), args.m, args.alpha)
    model = fit_stack(controls, args.parametrization, region_names=names)
    scores = score_stack(model, patient, args.m, args.seed)
    subject_id = os.path.splitext(os.path.basename(args.patient))[0]
    report = scores.report(0, args.alpha, subject_id=subject_id)
    sio.write_report(args.out, report, m=args.m, seed=args.seed)
    print(f"pairs_tested: {len(report.pairs)}")
    print(f"significant_corrected: {report.n_significant(corrected=True)}")
    print(f"significant_raw: {report.n_significant(corrected=False)}")
    return 0


def cmd_likelihood(args) -> int:
    if args.loo and args.model:
        raise InvalidInputError("--loo reads no --model; give one of them")
    if args.model and args.controls:
        raise InvalidInputError("--model reads no --controls; leave-one-out needs --loo")
    if args.loo:
        if not args.controls:
            raise InvalidInputError("--loo requires --controls")
        _check_distinct([*(("--controls", path) for path in args.controls),
                         *(("subject", path) for path in args.subjects)])
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
    # every subject is scored before anything is printed
    scores = [log_likelihood(model, ts) for ts in _load_series(args.subjects)]
    print("subject\tlog_likelihood")
    for path, score in zip(args.subjects, scores):
        print(f"{os.path.basename(path)}\t{score:.6f}")
    return 0


_SIM_KEYS = frozenset(f.name for f in dataclasses.fields(SimConfig))


def _simulate_config(args) -> dict:
    base = {}
    if args.config:
        base = sio.read_json_object(args.config)
        unknown = set(base) - _SIM_KEYS
        if unknown:
            raise ConfigurationError(
                f"{args.config}: unknown simulation keys {sorted(unknown)}"
            )
        if base.get("sigma_star") is not None:
            try:
                base["sigma_star"] = np.asarray(base["sigma_star"], dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"{args.config}: sigma_star: {exc}") from None
    for key in _SIM_KEYS:
        value = getattr(args, key, None)  # sigma_star has no flag
        if value is not None:
            base[key] = value
    base.setdefault("n", 15)
    base.setdefault("n_controls", 20)
    return base


def cmd_simulate(args) -> int:
    base = _simulate_config(args)
    d_grid = base.pop("d_sigma", 0.0)
    if not isinstance(d_grid, list):
        d_grid = [d_grid]
    if not d_grid:
        raise ConfigurationError("d_sigma grid is empty; give at least one value")
    for d_sigma in d_grid:
        check_finite("d_sigma", d_sigma)
    requested = base.pop("parametrization", TANGENT)
    parametrizations = [TANGENT, FLAT] if requested == "both" else [requested]
    seed = base.pop("seed", 0)
    check_integer("seed", seed, 0)
    _check_out(args.out, [args.config] if args.config else [])
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
