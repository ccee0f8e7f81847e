"""One fresh process of the benchmark; imports spdconn.

    python3 perfbench/worker.py '<json spec>'

Mode ``roc`` prints ``ready`` once spdconn is imported and the config is
built, then runs one `roc_experiment` and prints its result as JSON.
Mode ``trace`` runs the per-layer measurement of one workload: traced
passes (the operation, then a fixed probe that enters every layer) for
the given number of seconds, then the layer sweep, and prints the figures
as JSON.  The last line of output is always the JSON result.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time

import numpy as np

import layertrace as tr
import workloads as wl


def run_op(spec):
    """One operation of the workload, with its output checks; returns
    (seconds, fingerprint, problems)."""
    import spdconn

    workload = spec["workload"]
    if workload == "cli_session":
        start = time.perf_counter()
        stdout = session_op(spec["argvs"])
        seconds = time.perf_counter() - start
        params = wl.SESSION[spec["size"]]
        problems, fingerprint = wl.check_session(
            spec["out_dir"], params["n"], params["n_patients"], stdout)
        return seconds, fingerprint, problems
    cfg = spdconn.SimConfig(**wl.ROC[spec["size"]][workload], seed=spec["seed"])
    start = time.perf_counter()
    curve, details = spdconn.simulate.roc_experiment(cfg, return_details=True)
    seconds = time.perf_counter() - start
    return seconds, wl.roc_fingerprint(curve, details), wl.check_roc(workload, curve)


def session_op(argvs: dict) -> dict:
    """Run the session commands in-process, in order; returns their stdout."""
    from spdconn import cli

    stdout = {}
    for name, argv in argvs.items():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"spdconn {name} exited with {code}")
        stdout[name] = buffer.getvalue()
    return stdout


def probe(spec):
    import spdconn

    session_op(spec["probe_argvs"])
    spdconn.simulate.roc_experiment(spdconn.SimConfig(**wl.PROBE_ROC), return_details=True)


def traced_pass(spec):
    """One traced pass: the operation, then the probe.  Returns (operation
    seconds, fingerprint, problems, figures, counter mismatches, missing
    names)."""
    trace = tr.Trace()
    with tr.installed(trace) as missing:
        with trace.span("bench.op"):
            seconds, fingerprint, problems = run_op(spec)
        with trace.span("bench.probe"):
            probe(spec)
    figures, mismatches = tr.pass_metrics(trace.spans)
    return seconds, fingerprint, problems, figures, mismatches, missing


def sweep(size: str) -> dict:
    """Per-layer timings at n in {15, 33, 100} with S=20 subjects: batched
    spd_logm, one fit_from_matrices, and build_null per iteration.  Each is
    the best of three calls."""
    import spdconn

    sizes = {"full": ((15, 20), (33, 10), (100, 3)), "tiny": ((15, 2), (33, 1), (100, 1))}
    out = {}
    for n, m in sizes[size]:
        rng = np.random.default_rng(n)
        root = wl.group_root(n)
        sigma = 0.1 * (33 / n) ** 0.5  # keeps I + W inside the cone as n grows
        chols = [wl.subject_chol(rng, root, sigma=sigma) for _ in range(20)]
        stack = np.stack([c @ c.T for c in chols])
        cases = {
            f"geometry.logm_s.n{n}": (lambda: spdconn.spd_logm(stack), 1),
            f"group.fit_s.n{n}": (lambda: spdconn.fit_from_matrices(stack), 1),
            f"inference.null_iter_s.n{n}": (
                lambda: spdconn.build_null(stack, m=m, seed=n), m),
        }
        for name, (call, per) in cases.items():
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                call()
                best = min(best, time.perf_counter() - start)
            out[name] = best / per
    return out


def trace_run(spec) -> dict:
    """Rounds of one untraced operation and one traced pass, for the given
    seconds; the tracing overhead compares their median operation times."""
    untraced, passes = [], []
    deadline = time.perf_counter() + spec["seconds"]
    while not passes or time.perf_counter() < deadline:
        untraced.append(run_op(spec))
        passes.append(traced_pass(spec))
    fingerprint = untraced[0][1]
    problems = [p for u in untraced for p in u[2]]

    # An operation fails when its outputs fail their checks, when its trace
    # counters disagree with the program's own, or when a traced output
    # differs from the untraced one.
    failed = sum(bool(u[2]) or u[1] != fingerprint for u in untraced)
    for p in passes:
        if p[1] != fingerprint:
            p[2].append("traced and untraced outputs differ")
        failed += bool(p[2] or p[4])
        problems.extend(p[2] + p[4])
    counts = [{k: v for k, v in p[3].items() if k in spec["count_metrics"]} for p in passes]
    if any(c != counts[0] for c in counts):
        problems.append(f"trace counters differ between passes: {counts}")
        failed = max(failed, 1)
    missing = passes[0][5]
    figures = {k: statistics.median(p[3][k] for p in passes) for k in passes[0][3]}
    traced_s = statistics.median(p[0] for p in passes)
    figures.update(sweep(spec["size"]))
    figures["trace.overhead_s"] = traced_s - statistics.median(u[0] for u in untraced)
    figures["trace.missing_names"] = len(missing)
    figures["trace.counter_mismatches"] = sum(len(p[4]) for p in passes)
    return {"figures": figures, "fingerprint": fingerprint, "missing": missing,
            "problems": problems, "passes": len(passes), "failed": failed}


def main():
    spec = json.loads(sys.argv[1])
    if spec["mode"] == "roc":
        import spdconn  # noqa: F401  (import is part of set-up)

        print("ready", flush=True)
        seconds, fingerprint, problems = run_op(spec)
        print(json.dumps({"seconds": seconds, "fingerprint": fingerprint,
                          "problems": problems}))
    elif spec["mode"] == "trace":
        print(json.dumps(trace_run(spec)))
    else:
        raise SystemExit(f"unknown mode {spec['mode']!r}")


if __name__ == "__main__":
    main()
