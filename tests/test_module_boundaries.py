"""No module of the package uses another module's private names, only
``geometry`` calls numpy's symmetric eigensolvers, ``inference`` runs no
generator of ``numpy.random``, draws bootstrap chunks in one place, counts
exceedances in one kernel, seeds each bootstrap stream once, runs one
bootstrap loop with one abort, takes the bootstrap's controls from the
fitted model only, computes the
statistic in one function, checks a control group in one place, subjects
are paired with the controls in one place, matrices are checked in one
place, only the bootstrap forks, its workers send nothing through a pickle
or a pipe, ``import spdconn`` loads no process pool, every function the
benchmark's tracer relies on stays a public function, and the public API is
the listed one."""

import ast
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spdconn

PACKAGE = Path(__file__).parent.parent / "src" / "spdconn"
LAYERTRACE = Path(__file__).parent.parent / "perfbench" / "layertrace.py"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_uses(source: str) -> list[str]:
    """``from .<mod> import _name`` and ``<mod>._name`` uses in ``source``,
    where ``<mod>`` is a module of the package."""
    tree = ast.parse(source)
    modules = set()
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if not (node.level or module.startswith("spdconn")):
                continue
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"from {module} import {alias.name}")
                if module in (".", "spdconn"):
                    modules.add(alias.asname or alias.name)
        else:
            for alias in node.names:
                if alias.name.startswith("spdconn."):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            owner = ast.unparse(node.value)
            if owner in modules:
                found.append(f"{owner}.{node.attr}")
    return found


def test_guard_finds_private_uses():
    source = (
        "from .group import _frechet, fit_stack\n"
        "from . import io as sio\n"
        "import spdconn.inference\n"
        "sio._atomic_write_text('a', 'b')\n"
        "spdconn.inference._null_rows(())\n"
        "print(sio.__name__)\n"
    )
    assert private_uses(source) == [
        "from .group import _frechet",
        "sio._atomic_write_text",
        "spdconn.inference._null_rows",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    assert private_uses(path.read_text()) == []


EIGENSOLVERS = ("eigh", "eigvalsh")


def eigensolver_uses(source: str) -> list[str]:
    """Attribute uses and imports of numpy's symmetric eigensolvers in
    ``source``, however numpy or its ``linalg`` module is bound."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in EIGENSOLVERS:
            found.append(ast.unparse(node))
        elif isinstance(node, ast.ImportFrom):
            found += [f"from {node.module} import {a.name}"
                      for a in node.names if a.name in EIGENSOLVERS]
    return found


def test_guard_finds_eigensolver_uses():
    source = (
        "import numpy as np\n"
        "from numpy import linalg as la\n"
        "from numpy.linalg import eigvalsh\n"
        "np.linalg.eigh(a)\n"
        "la.eigvalsh(a)\n"
        "np.linalg.eig(a)\n"
    )
    assert eigensolver_uses(source) == [
        "from numpy.linalg import eigvalsh", "np.linalg.eigh", "la.eigvalsh",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_eigensolvers_only_in_geometry(path):
    # one eigen kernel: every eigendecomposition goes through geometry
    uses = eigensolver_uses(path.read_text())
    assert bool(uses) == (path.name == "geometry.py"), uses


def numpy_random_uses(source: str) -> list[str]:
    """Attribute uses and imports of ``numpy.random`` in ``source``, however
    numpy is bound."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "random":
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names if a.name.startswith("numpy.random")]
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("numpy"):
            found += [f"from {node.module} import {a.name}" for a in node.names
                      if node.module.startswith("numpy.random") or a.name == "random"]
    return found


def test_guard_finds_numpy_random_uses():
    source = (
        "import numpy as np\n"
        "import numpy.random as npr\n"
        "from numpy import random\n"
        "from numpy.random import default_rng\n"
        "np.random.default_rng([0, 1]).integers(5)\n"
        "np.linalg.norm(a)\n"
    )
    assert numpy_random_uses(source) == [
        "import numpy.random", "from numpy import random",
        "from numpy.random import default_rng", "np.random",
    ]


def test_inference_draws_without_numpy_random():
    # the bootstrap's stream is the package's own: inference.py computes
    # every draw and never runs one of numpy's generators
    assert numpy_random_uses((PACKAGE / "inference.py").read_text()) == []


def call_sites(source: str, name: str) -> list[int]:
    """Line numbers of the calls of the bare name ``name`` in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name]


def test_guard_finds_call_sites():
    source = (
        "def f(seed):\n"
        "    a = _resample_range(seed, 0, 8, 3)\n"
        "    return [_resample_range(seed, s, s + 8, 3) for s in (8, 16)], _resample_range\n"
        "m._resample_range(0, 0, 1, 3)\n"
    )
    assert call_sites(source, "_resample_range") == [2, 3]


def test_one_draw_loop_in_inference():
    # both nulls draw their chunks in _null_chunk; a second caller of
    # _resample_range would fork the chunk rule again
    assert len(call_sites((PACKAGE / "inference.py").read_text(), "_resample_range")) == 1


def functions(source: str) -> dict[str, str]:
    """The source of each top-level function of ``source``, by name."""
    return {node.name: ast.get_source_segment(source, node)
            for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}


def test_one_counting_kernel_in_inference():
    # a stored null's slices and the bootstrap's chunks are counted by
    # _count_below alone, so both p-values come from one search
    source = (PACKAGE / "inference.py").read_text()
    assert len(call_sites(source, "_count_below")) == 2
    callers = [name for name, text in functions(source).items() if call_sites(text, "_count_below")]
    assert callers == ["empirical_pvalue", "_bootstrap"]
    searches = [node.lineno for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Attribute) and node.attr == "searchsorted"
                or isinstance(node, ast.Name) and node.id == "searchsorted"]
    assert searches == []


def test_flat_blocks_never_straddle_a_chunk():
    # the flat null draws whole blocks aligned to multiples of _FLAT_BLOCK
    # in k: such a block lies inside one draw chunk and on one side of 2**32,
    # where _resample_range's streams change their seeding
    from spdconn.inference import _DRAW_CHUNK, _FLAT_BLOCK

    assert _DRAW_CHUNK % _FLAT_BLOCK == 0
    assert 2**32 % _FLAT_BLOCK == 0
    assert 2**32 % _DRAW_CHUNK == 0


def test_each_stream_is_one_generator():
    # _resample_range takes a chunk's first block of its streams and
    # _resamples reads all of one row's: a third caller, or a _stream_words
    # that restarts a stream, would compute its values again
    source = (PACKAGE / "inference.py").read_text()
    defined = functions(source)
    assert "_stream_words" not in defined
    assert len(call_sites(source, "_streams")) == 2
    callers = [name for name, text in defined.items() if call_sites(text, "_streams")]
    assert callers == ["_resample_range", "_resamples"]


def test_the_bootstrap_reads_its_controls_from_the_model():
    # a control stack passed beside the model could differ from the one the
    # model was fitted to, and the null would resample other controls than
    # those that score the subjects
    from spdconn import inference

    for name in ("_bootstrap", "_null_chunk", "_refit_row"):
        parameters = list(inspect.signature(getattr(inference, name)).parameters)
        assert parameters[0] == "model", name
        assert not {"mats", "controls", "stack"} & set(parameters), name


def raise_sites(source: str, text: str) -> list[int]:
    """Line numbers of the ``raise`` statements in ``source`` whose
    message has a literal part containing ``text``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Raise)
                  and any(isinstance(part, ast.Constant) and isinstance(part.value, str)
                          and text in part.value for part in ast.walk(node)))


def test_guard_finds_raise_sites():
    source = (
        "def f(n, m):\n"
        "    if n > m:\n"
        "        raise ValueError(f'{n} failed over {m} (> 10%)')\n"
        "    print('(> 10%)')\n"
        "    raise ValueError('over (> 10%) of ' + str(m))\n"
        "raise KeyError('other')\n"
    )
    assert raise_sites(source, "(> 10%)") == [3, 5]


def test_one_bootstrap_loop_in_inference():
    # the stored null of build_null and the counted one of score_subjects
    # run one loop over _null_chunk, with one 10% abort: a second caller or
    # a second abort would fork their retries and failure counts
    source = (PACKAGE / "inference.py").read_text()
    assert len(call_sites(source, "_null_chunk")) == 1
    assert len(raise_sites(source, "(> 10%)")) == 1


def test_one_control_check_in_the_package():
    # the CLI and the bootstrap refuse a control group through
    # inference.check_controls; a second copy of a message could drift from it
    for text in ("need at least 3 controls", "need at least 2 regions to test a pair"):
        sites = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 for _ in raise_sites(path.read_text(), text)]
        assert sites == ["inference.py"], text


def test_one_subject_check_in_the_package():
    # every scorer pairs its subjects with the controls through
    # group.subject_stack; a second copy of the check could drift from it
    def modules(text):
        return [path.name for path in sorted(PACKAGE.glob("*.py"))
                for _ in raise_sites(path.read_text(), text)]

    assert modules("differ from the controls'") == ["group.py"]
    assert set(modules("subjects have shape")) == {"group.py"}


def test_one_matrix_check_in_the_package():
    # every geometry entry checks its matrices through _square and
    # _symmetric; a hand-written copy could drift from them, as one that
    # lacked the square test did
    def sites(text):
        return [path.name for path in sorted(PACKAGE.glob("*.py"))
                for _ in raise_sites(path.read_text(), text)]

    assert sites("must be square and non-empty") == ["geometry.py"]
    assert sites("non-finite entries") == ["geometry.py"]


FORKS = ("fork", "forkpty", "Process", "ProcessPoolExecutor", "ThreadPoolExecutor")


def fork_uses(source: str) -> list[str]:
    """Uses of ``os.fork`` and of other ways to start a process or a pool
    in ``source``: attribute uses, bare names and imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in FORKS:
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Name) and node.id in FORKS:
            found.append(node.id)
        elif isinstance(node, ast.ImportFrom):
            found += [f"from {node.module} import {a.name}" for a in node.names if a.name in FORKS]
    return found


def test_guard_finds_fork_uses():
    source = (
        "import os\n"
        "from os import fork\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "pid = os.fork()\n"
        "fork()\n"
        "os.getpid()\n"
    )
    assert fork_uses(source) == [
        "from os import fork", "from concurrent.futures import ThreadPoolExecutor", "os.fork", "fork",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_bootstrap_forks(path):
    # the bootstrap's workers are the package's only processes: a second
    # place that forks would need its own reaping and its own error rule
    uses = fork_uses(path.read_text())
    assert uses == (["os.fork"] if path.name == "inference.py" else []), uses


def channel_uses(source: str) -> list[str]:
    """Imports of ``pickle`` and uses of ``os.pipe`` in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "pipe":
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names if a.name == "pickle"]
        elif isinstance(node, ast.ImportFrom):
            found += [f"from {node.module} import {a.name}" for a in node.names
                      if node.module == "pickle" or (node.module == "os" and a.name == "pipe")]
    return found


def test_guard_finds_channel_uses():
    source = (
        "import os, pickle\n"
        "from os import pipe\n"
        "from pickle import loads\n"
        "read, write = os.pipe()\n"
        "os.close(read)\n"
    )
    assert channel_uses(source) == [
        "import pickle", "from os import pipe", "from pickle import loads", "os.pipe",
    ]


def test_workers_report_only_their_exit_status():
    # a range that raised in its child runs again in the calling process,
    # which raises its error: a pickle sent down a pipe would be a second
    # error path, with a traceback cut at the parent
    assert channel_uses((PACKAGE / "inference.py").read_text()) == []


def test_import_loads_no_process_pool():
    # workers are plain forks: the pools' modules cost memory and start-up
    code = (
        "import sys, spdconn\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'multiprocessing' or m.startswith('concurrent')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def name_readers(source: str, name: str) -> list[str]:
    """The top-level definitions of ``source`` that read the bare name
    ``name``, in order; a read outside any definition is ``<module>``."""
    return [node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            for node in ast.parse(source).body
            if any(isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
                   for n in ast.walk(node))]


def test_guard_finds_name_readers():
    source = (
        "LIMIT = 1\n"
        "def f(x):\n"
        "    return max(x, LIMIT)\n"
        "def g(x):\n"
        "    LIMIT = 2\n"
        "    return x\n"
        "class C:\n"
        "    def h(self):\n"
        "        return lambda: LIMIT\n"
        "print(LIMIT)\n"
    )
    assert name_readers(source, "LIMIT") == ["f", "C", "<module>"]


def test_one_statistic_in_inference():
    # subjects, tangent rows and flat rows all take the statistic from
    # _t_rows, which floors the spread and scales it, whoever sums the
    # moments; a second function that floors the spread would be a second
    # copy of it
    assert name_readers((PACKAGE / "inference.py").read_text(), "SD_FLOOR") == ["_t_rows"]


def test_traced_names_are_public_functions():
    # the per-layer benchmark wraps these names; one that is renamed or made
    # private would only show as a missing name in a traced run
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    not_found = []
    for name in layertrace.EXPECTED:
        layer, attr = name.split(".")
        module = importlib.import_module(f"spdconn.{layer}")
        obj = getattr(module, attr, None)
        if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
            not_found.append(name)
    assert layertrace.EXPECTED and not_found == []


# Every public name, sorted; adding or removing one shows up here in review.
PUBLIC_API = [
    "ConfigurationError", "ConvergenceError", "DegenerateInputError",
    "DegenerateModelError", "FLAT", "GroupModel",
    "InvalidInputError", "NearSingularError", "NullDistribution",
    "NumericRangeError", "PairTest", "RocCurve", "SPD_EIG_FLOOR", "SimConfig",
    "SubjectScores", "TANGENT", "TestReport", "TimeSeries", "auc", "build_null",
    "clip_spd", "correlation_matrix", "default_group_correlation",
    "empirical_pvalue", "fit_from_matrices", "fit_group_model", "frechet_mean",
    "geodesic_distance", "inject_differences", "leave_one_out_scores",
    "ledoit_wolf", "log_likelihood", "pair_count", "reconstruct",
    "residualize_confounds", "roc_experiment", "sample_covariance",
    "sample_population", "sample_time_series", "score_subjects",
    "simulate_patients", "spd_expm", "spd_logm", "spd_sqrtm", "symmetrize",
    "t_statistic", "tangent_inverse_map", "tangent_map", "test_patient",
    "to_correlation", "tril_pairs", "validate_spd", "vec_dim", "vec_embed",
    "vec_unembed",
]


def test_public_api():
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert spdconn.__all__ == PUBLIC_API
