"""The experiment scripts run end to end at tiny size.

Nothing else calls them, so a change to the API they use would otherwise
break them silently.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

CASES = {
    "make_demo_data.py": (
        ["--n", "6", "--t", "40", "--n-controls", "5", "--n-patients", "2"],
        [
            "control_00.csv", "control_04.csv", "confound_04.csv",
            "patient_01.csv", "ground_truth.csv",
        ],
    ),
    "run_likelihood_loo.py": (
        ["--n", "6", "--n-controls", "5", "--n-patients", "2", "--k-diffs", "3"],
        ["scores.csv"],
    ),
    "run_roc_grid.py": (
        ["--n", "8", "--m", "10", "--n-patients", "2"],
        [
            "panel_a_amplitude.csv", "panel_a_curves.csv",
            "panel_b_dispersion.csv", "panel_c_group_size.csv",
        ],
    ),
}


@pytest.mark.parametrize("script", sorted(CASES))
def test_script_runs(script, tmp_path):
    args, outputs = CASES[script]
    out = tmp_path / "scores.csv" if script == "run_likelihood_loo.py" else tmp_path
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args, "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    missing = [name for name in outputs if not (tmp_path / name).is_file()]
    assert missing == []
