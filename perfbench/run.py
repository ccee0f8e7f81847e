"""Benchmark of spdconn; see README.md beside this file.

    python3 perfbench/run.py --workload roc_tangent --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  The load is a closed loop from this one
process: one operation at a time, each in a fresh child process (each CLI
command its own child), so peak memory is measured per operation.  With
``--trace 0`` the last line of output is the end-to-end result; with
``--trace 1`` it is the per-layer result of a traced run.  Every metric
and unit comes from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

# Every process the benchmark starts, this one included, runs
# single-threaded BLAS: on a small shared machine this narrows the spread of
# run times at about the same median.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import numpy  # noqa: E402  (BLAS reads the thread settings when it loads)

import workloads as wl  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
# Each run must end within 180 s; children still running at this point are
# killed and the run fails.
DEADLINE_S = 170
SETUP_REPEATS = 3


class OperationFailed(Exception):
    pass


class Bench:
    """One benchmark run, rooted at a checkout."""

    def __init__(self, root: str, size: str):
        self.root = root
        self.size = size
        self.work = os.path.join(root, ".perfbench_work", str(os.getpid()))
        self.env = dict(os.environ, **THREAD_ENV, PYTHONPATH=os.path.join(root, "src"))
        with open(os.path.join(root, "BENCHMARK.json")) as handle:
            self.schema = json.load(handle)

    # -- children ----------------------------------------------------------

    @contextlib.contextmanager
    def _child(self, argv, log_name):
        """A child process with stdout piped; killed if the block raises."""
        with open(os.path.join(self.work, log_name), "w") as log:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=log,
                                    env=self.env, cwd=self.root, text=True)
        try:
            yield proc
        except BaseException:
            proc.kill()
            proc.wait()
            raise

    @staticmethod
    def _reap(proc):
        """Read a child's output to the end and wait for it; returns the
        output and the child's peak resident memory in MiB."""
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return out, usage.ru_maxrss / 1024.0

    def _log_tail(self, log_name):
        with open(os.path.join(self.work, log_name)) as handle:
            return handle.read()[-2000:]

    def python(self, *args, log_name="child.log"):
        """Run a Python child to the end; returns (stdout, seconds, peak MB)."""
        start = time.perf_counter()
        with self._child([sys.executable, *args], log_name) as proc:
            out, rss = self._reap(proc)
        seconds = time.perf_counter() - start
        if proc.returncode != 0:
            raise OperationFailed(f"{args[:2]} exited with {proc.returncode}: "
                                  f"{self._log_tail(log_name)}")
        return out, seconds, rss

    # -- inputs ------------------------------------------------------------

    def write_inputs(self, workload, seed):
        """Generate the workload's input files; returns the worker spec."""
        spec = {"workload": workload, "size": self.size, "seed": seed}
        if workload == "cli_session":
            params = wl.SESSION[self.size]
            paths = wl.write_session(os.path.join(self.work, "inputs"), seed, **params)
            spec["out_dir"] = os.path.join(self.work, "out")
            os.makedirs(spec["out_dir"], exist_ok=True)
            spec["argvs"] = wl.session_argvs(paths, spec["out_dir"], params["m"], seed)
        return spec

    def write_probe(self, spec):
        paths = wl.write_session(os.path.join(self.work, "probe"), wl.PROBE_SEED,
                                 **wl.PROBE_SESSION)
        out_dir = os.path.join(self.work, "probe_out")
        os.makedirs(out_dir, exist_ok=True)
        spec["probe_argvs"] = wl.session_argvs(paths, out_dir, wl.PROBE_SESSION["m"],
                                              wl.PROBE_SEED)

    # -- one operation -----------------------------------------------------

    def roc_operation(self, spec):
        """One roc_experiment in a fresh worker.  Set-up is the time from
        spawning it until spdconn is imported and the config is built."""
        start = time.perf_counter()
        argv = [sys.executable, os.path.join(HERE, "worker.py"),
                json.dumps(dict(spec, mode="roc"))]
        with self._child(argv, "worker.log") as proc:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            out, rss = self._reap(proc)
        if proc.returncode != 0 or ready.strip() != "ready":
            raise OperationFailed(f"worker exited with {proc.returncode}: "
                                  f"{self._log_tail('worker.log')}")
        result = json.loads(out.splitlines()[-1])
        return {"wall_s": result["seconds"], "peak_rss_mb": rss, "setup_s": setup_s,
                "fingerprint": result["fingerprint"], "problems": result["problems"]}

    def session_operation(self, spec):
        """The three CLI commands, each a fresh process, in order."""
        stdout, times, peaks = {}, {}, []
        for name, argv in spec["argvs"].items():
            stdout[name], times[name], rss = self.python(
                "-m", "spdconn.cli", *argv, log_name=f"{name}.log")
            peaks.append(rss)
        params = wl.SESSION[self.size]
        problems, fingerprint = wl.check_session(
            spec["out_dir"], params["n"], params["n_patients"], stdout)
        return {"wall_s": sum(times.values()), "test_s": times["test"],
                "peak_rss_mb": max(peaks), "fingerprint": fingerprint,
                "problems": problems}

    # -- runs --------------------------------------------------------------

    def timed_run(self, workload, seed, seconds):
        setups = []
        if workload == "cli_session":
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                spec = self.write_inputs(workload, seed)
                setups.append(time.perf_counter() - start)
            operation = self.session_operation
        else:
            spec = self.write_inputs(workload, seed)
            operation = self.roc_operation

        ops, failed, fingerprints = [], 0, set()
        deadline = time.perf_counter() + seconds
        while not ops or time.perf_counter() < deadline:
            try:
                op = operation(spec)
            except OperationFailed as exc:
                print(f"operation failed: {exc}", file=sys.stderr)
                failed += 1
                ops.append(None)
                continue
            ops.append(op)
            fingerprints.add(op["fingerprint"])
            if op["problems"]:
                print(f"output check failed: {op['problems']}", file=sys.stderr)
                failed += 1
        done = [op for op in ops if op is not None]
        if not done:
            raise SystemExit("every operation failed; nothing to report")
        setups += [op["setup_s"] for op in done if "setup_s" in op]
        figures = {
            "wall_s": statistics.median(op["wall_s"] for op in done),
            "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in done),
            "setup_s": statistics.median(setups),
        }
        if len(fingerprints) > 1:
            print(f"outputs differ between operations: {fingerprints}", file=sys.stderr)
            failed = max(failed, 1)
        walls = sorted(op["wall_s"] for op in done)
        summary = {"operations": len(ops), "failed": failed,
                   "fail_ratio": failed / len(ops), "wall_s_min": walls[0],
                   "wall_s_max": walls[-1], "fingerprints": sorted(fingerprints)}
        if workload == "cli_session":
            summary["test_s"] = statistics.median(op["test_s"] for op in done)
        return figures, len(ops), failed, summary

    def traced_run(self, workload, seed, seconds):
        spec = self.write_inputs(workload, seed)
        self.write_probe(spec)
        imports = [self.python("-c", "import spdconn")[1] for _ in range(SETUP_REPEATS)]
        spec.update(mode="trace", seconds=seconds, count_metrics=[
            m["name"] for m in self.schema["per_layer"] if m["unit"] == "count"])
        out, _, _ = self.python(os.path.join(HERE, "worker.py"), json.dumps(spec),
                                log_name="worker.log")
        result = json.loads(out.splitlines()[-1])
        figures = dict(result["figures"], **{"cli.import_s": statistics.median(imports)})
        for name in result["missing"]:
            print(f"trace: wrapped name missing: {name}", file=sys.stderr)
        for problem in result["problems"]:
            print(f"trace: {problem}", file=sys.stderr)
        summary = {"passes": result["passes"], "fingerprint": result["fingerprint"],
                   "problems": len(result["problems"])}
        return figures, 2 * result["passes"], result["failed"], summary

    def result(self, figures, declared, attempted, failed):
        missing = [m["name"] for m in declared if m["name"] not in figures]
        if missing:
            raise SystemExit(f"benchmark emitted no value for {missing}")
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
                        for m in declared},
        }


def machine_facts(root) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root)),
        ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "spdconn")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as handle:
                digest.update(handle.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
    }


def smoke(root) -> int:
    """Tiny-size check of the output contract: every declared metric is
    emitted with its unit, counts repeat exactly across two runs with one
    seed, and the result keys stay the same."""
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        schema = json.load(handle)
    problems = []
    for workload in (w["name"] for w in schema["workloads"]):
        for trace, declared in ((0, schema["end_to_end"]), (1, schema["per_layer"])):
            runs = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--workload", workload,
                     "--seed", "1", "--seconds", "1", "--trace", str(trace),
                     "--size", "tiny"],
                    cwd=root, capture_output=True, text=True, timeout=DEADLINE_S)
                if proc.returncode != 0:
                    problems.append(f"{workload} trace={trace}: exit {proc.returncode}: "
                                    f"{proc.stderr[-1000:]}")
                    break
                runs.append(json.loads(proc.stdout.splitlines()[-1]))
            where = f"{workload} trace={trace}"
            for run in runs:
                if set(run) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{where}: result keys {sorted(run)}")
                if not run["correct"] or run["failed"]:
                    problems.append(f"{where}: incorrect run {run['failed']} failed")
                units = {k: v["unit"] for k, v in run["metrics"].items()}
                if units != {m["name"]: m["unit"] for m in declared}:
                    problems.append(f"{where}: metrics or units differ from BENCHMARK.json")
            counts = [{k: v["value"] for k, v in run["metrics"].items()
                       if v["unit"] == "count"} for run in runs]
            if len(counts) == 2 and counts[0] != counts[1]:
                problems.append(f"{where}: counts differ between runs: {counts}")
            print(f"smoke {where}: {'ok' if not problems else 'problems so far'}",
                  flush=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


def _timeout(signum, frame):
    raise TimeoutError(f"run did not finish within {DEADLINE_S} s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the smoke check only")
    parser.add_argument("--smoke", action="store_true",
                        help="check the output contract at tiny sizes")
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spdconn", "__init__.py")):
        print("error: run from the root of an spdconn checkout (no src/spdconn)",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {wl.WORKLOADS}")
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(DEADLINE_S)
    bench = Bench(root, args.size)
    os.makedirs(bench.work)
    try:
        if args.trace:
            figures, attempted, failed, summary = bench.traced_run(
                args.workload, args.seed, args.seconds)
            declared = bench.schema["per_layer"]
        else:
            figures, attempted, failed, summary = bench.timed_run(
                args.workload, args.seed, args.seconds)
            declared = bench.schema["end_to_end"]
        result = bench.result(figures, declared, attempted, failed)
    finally:
        signal.alarm(0)
        shutil.rmtree(bench.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(bench.work))
    print("machine: " + json.dumps(machine_facts(root)))
    print(f"summary {args.workload} seed={args.seed} trace={args.trace}: "
          + json.dumps(dict(summary, **figures) if not args.trace else summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
