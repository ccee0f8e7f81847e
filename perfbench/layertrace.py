"""Outside-in tracing of spdconn for the per-layer run.

While installed, every public function of each layer module is replaced,
at every module binding that refers to it, by a wrapper that records a
span (name, start, end, parent).  ``numpy.linalg.eigh`` and ``eigvalsh``
are wrapped the same way, and the fit-failure exceptions record an event
when they are created.  Nothing in the program's source changes, and
everything is restored on exit.

A name the per-layer figures rely on that no longer exists is reported as
missing; the figures that depend on it read 0 and the run goes on.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter

LAYERS = ("geometry", "estimators", "group", "inference", "simulate", "io", "cli")
EIGEN = ("eigh", "eigvalsh")
# Exceptions that make one bootstrap fit count as failed; together with a
# LinAlgError out of eigh they are the program's _FIT_FAILURES.
FAILURE_EXCEPTIONS = ("ConvergenceError", "NearSingularError")


def _matrices(args, kwargs, result):
    """Number of matrices in the stack passed to an eigensolver."""
    a = args[0] if args else kwargs.get("a")
    shape = getattr(a, "shape", ())
    count = 1
    for dim in shape[:-2]:
        count *= dim
    return count


# Return values that feed counters and cross-checks, by wrapped name.
OBSERVE = {
    "geometry.clip_spd": lambda a, k, r: bool(r[1]),
    "group.fit_from_matrices": lambda a, k, r: r.frechet_iterations,
    "inference.build_null": lambda a, k, r: (r.m, r.n_failures),
    "simulate.sample_population": lambda a, k, r: int(r[1]),
    "simulate.roc_experiment": (
        lambda a, k, r: r[1]["patients_clipped"] if isinstance(r, tuple) else None
    ),
    "io.read_time_series": lambda a, k, r: os.path.getsize(a[0] if a else k["path"]),
}
# Names the figures below are computed from.
EXPECTED = tuple(OBSERVE) + (
    "geometry.spd_expm",
    "geometry.spd_logm",
    "inference.test_patient",
    "estimators.correlation_matrix",
    "io.write_model",
    "io.write_report",
    "cli.cmd_fit",
    "cli.cmd_likelihood",
    "cli.cmd_test",
)

NAME, START, END, PARENT, NOTE, ERROR = range(6)


class Trace:
    """Spans kept in memory: ``[name, start, end, parent, note, error]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, None, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx, error=None):
        self.spans[idx][END] = time.perf_counter()
        self.spans[idx][ERROR] = error
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def event(self, name):
        self._close(self._open(name))

    def wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, type(exc).__name__)
                raise
            self._close(idx)
            if observe is not None:
                self.spans[idx][NOTE] = observe(args, kwargs, result)
            return result

        return wrapper


@contextlib.contextmanager
def installed(trace: Trace):
    """Wrap the program for the duration of the block; yields the list of
    expected names that were not found."""
    import numpy

    import spdconn

    layer_modules = {layer: importlib.import_module(f"spdconn.{layer}") for layer in LAYERS}
    wrappers = {}
    names = set()
    for layer, module in layer_modules.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            names.add(name)
            wrappers[id(obj)] = (obj, trace.wrap(name, obj, OBSERVE.get(name)))
    missing = [name for name in EXPECTED if name not in names]

    restore = []
    modules = [spdconn, *(m for m in list(sys.modules.values())
                          if getattr(m, "__name__", "").startswith("spdconn."))]
    for module in modules:
        for attr, obj in list(vars(module).items()):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                restore.append((module, attr, obj))
                setattr(module, attr, entry[1])
    for fn_name in EIGEN:
        original = getattr(numpy.linalg, fn_name)
        restore.append((numpy.linalg, fn_name, original))
        setattr(numpy.linalg, fn_name, trace.wrap(f"numpy.{fn_name}", original, _matrices))

    restore_init = []
    for cls_name in FAILURE_EXCEPTIONS:
        cls = getattr(spdconn.exceptions, cls_name, None)
        if cls is None:
            missing.append(f"exceptions.{cls_name}")
            continue
        restore_init.append((cls, cls.__dict__.get("__init__")))
        cls.__init__ = _counting_init(trace, f"exceptions.{cls_name}", cls.__init__)
    try:
        yield missing
    finally:
        for module, attr, obj in reversed(restore):
            setattr(module, attr, obj)
        for cls, init in restore_init:
            if init is None:
                del cls.__init__
            else:
                cls.__init__ = init


def _counting_init(trace, name, init):
    def __init__(self, *args, **kwargs):
        trace.event(name)
        init(self, *args, **kwargs)

    return __init__


# --------------------------------------------------------------------------
# Figures derived from the spans


def _nearest(spans, names):
    """For each span, the index of its nearest enclosing span (itself
    included) whose name is in ``names``, or None."""
    out = [None] * len(spans)
    for i, span in enumerate(spans):
        if span[NAME] in names:
            out[i] = i
        elif span[PARENT] is not None:
            out[i] = out[span[PARENT]]
    return out


def _total(spans, name):
    return sum(s[END] - s[START] for s in spans if s[NAME] == name)


def pass_metrics(spans) -> tuple[dict, list[str]]:
    """Per-layer figures of one traced pass (the operation under a
    ``bench.op`` span, then the probe under ``bench.probe``) and the list of
    disagreements between trace counters and the program's own counters."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
    self_time = {}
    for s, c in zip(spans, child):
        layer = s[NAME].split(".")[0]
        self_time[layer] = self_time.get(layer, 0.0) + (s[END] - s[START]) - c

    in_op = _nearest(spans, {"bench.op"})
    in_null = _nearest(spans, {"inference.build_null"})
    in_fit = _nearest(spans, {"group.fit_from_matrices"})
    in_roc = _nearest(spans, {"simulate.roc_experiment"})
    in_pop = _nearest(spans, {"simulate.sample_population"})
    eigen = {f"numpy.{e}" for e in EIGEN}

    op_nulls = [i for i, s in enumerate(spans)
                if s[NAME] == "inference.build_null" and in_op[i] is not None
                and s[NOTE] is not None]
    op_null_set = set(op_nulls)
    null_m = sum(spans[i][NOTE][0] for i in op_nulls)
    null_failures = sum(spans[i][NOTE][1] for i in op_nulls)
    null_s = sum(spans[i][END] - spans[i][START] for i in op_nulls)
    eig_calls = eig_mats = 0
    eig_null_s = 0.0
    for i, s in enumerate(spans):
        if s[NAME] in eigen and in_null[i] in op_null_set:
            eig_calls += 1
            eig_mats += s[NOTE] or 0
            eig_null_s += s[END] - s[START]

    reads = [s for s in spans if s[NAME] == "io.read_time_series" and s[NOTE]]
    read_s = sum(s[END] - s[START] for s in reads)
    roc_s = [i for i, s in enumerate(spans) if s[NAME] == "simulate.roc_experiment"]
    per_iter = max(null_m, 1)
    metrics = {
        "geometry.eigh_calls_per_iter": eig_calls / per_iter,
        "geometry.eigh_mats_per_iter": eig_mats / per_iter,
        "geometry.eigh_s": sum(_total(spans, e) for e in eigen),
        "geometry.eigh_share": eig_null_s / null_s if null_s else 0.0,
        "group.fit_s": _total(spans, "group.fit_from_matrices"),
        "group.frechet_iterations": sum(
            s[NOTE] or 0 for s in spans if s[NAME] == "group.fit_from_matrices"),
        "inference.null_s": _total(spans, "inference.build_null"),
        "inference.null_iters_per_s": null_m / null_s if null_s else 0.0,
        "inference.null_fit_success_ratio": (
            null_m / (null_m + null_failures) if null_m else 0.0),
        "inference.test_patient_s": _total(spans, "inference.test_patient"),
        "simulate.sample_population_s": _total(spans, "simulate.sample_population"),
        "simulate.patients_clipped": sum(
            s[NOTE] or 0 for s in spans if s[NAME] == "simulate.roc_experiment"),
        "simulate.roc_self_s": sum(
            (spans[i][END] - spans[i][START]) - child[i] for i in roc_s),
        "estimators.correlation_calls": sum(
            1 for s in spans if s[NAME] == "estimators.correlation_matrix"),
        "estimators.correlation_s": _total(spans, "estimators.correlation_matrix"),
        "io.read_s": read_s,
        "io.read_mb_per_s": (
            sum(s[NOTE] for s in reads) / 1e6 / read_s if read_s else 0.0),
        "io.files_read": len(reads),
        "io.write_s": sum(_total(spans, f"io.{w}") for w in (
            "write_model", "write_report", "write_roc_table")),
        "cli.fit_s": _total(spans, "cli.cmd_fit"),
        "cli.likelihood_s": _total(spans, "cli.cmd_likelihood"),
        "cli.test_s": _total(spans, "cli.cmd_test"),
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_time.get(layer, 0.0)

    mismatches = []
    # Clip counts returned by the simulator against clip_spd's own flags.
    clipped = [i for i, s in enumerate(spans) if s[NAME] == "geometry.clip_spd" and s[NOTE]]
    for i, s in enumerate(spans):
        if s[NAME] == "simulate.sample_population" and s[NOTE] is not None:
            seen = sum(1 for c in clipped if in_pop[c] == i)
            if seen != s[NOTE]:
                mismatches.append(f"sample_population clipped {s[NOTE]}, trace saw {seen}")
        if s[NAME] == "simulate.roc_experiment" and s[NOTE] is not None:
            seen = sum(1 for c in clipped
                       if in_roc[c] == i and (in_pop[c] is None or in_pop[c] < i))
            if seen != s[NOTE]:
                mismatches.append(f"patients_clipped {s[NOTE]}, trace saw {seen}")
    # Fit failures counted by the null against failure exceptions created
    # and eigensolver errors raised inside it.
    failures_seen = Counter(
        in_null[j] for j, s in enumerate(spans)
        if s[NAME].startswith("exceptions.") or (s[NAME] in eigen and s[ERROR]))
    for i, s in enumerate(spans):
        if s[NAME] == "inference.build_null" and s[NOTE] is not None:
            if failures_seen[i] != s[NOTE][1]:
                mismatches.append(
                    f"null n_failures {s[NOTE][1]}, trace saw {failures_seen[i]}")
    # Frechet iterations reported by each fit against the expm steps taken
    # inside it; skipped when the fit no longer steps through spd_expm.
    expm_fit = [in_fit[j] for j, s in enumerate(spans)
                if s[NAME] == "geometry.spd_expm" and in_fit[j] is not None]
    if expm_fit:
        for i, s in enumerate(spans):
            if s[NAME] == "group.fit_from_matrices" and s[NOTE] is not None:
                seen = expm_fit.count(i)
                if seen != s[NOTE]:
                    mismatches.append(f"frechet_iterations {s[NOTE]}, trace saw {seen}")
    return metrics, mismatches
