"""The pipeline still returns the results recorded in ``data/golden.npz``,
and those stay within rounding of the unit-step Fréchet iteration that the
Newton steps replaced and of bootstrap refits started at the arithmetic
mean of each resample, which the warm start from the control group's mean
replaced."""

from pathlib import Path

import numpy as np
import pytest

from spdconn import group
from golden import golden_cases
from test_group import cold_frechet, unit_step_frechet

GOLDEN = Path(__file__).parent / "data" / "golden.npz"
# Quantities that rounding must never move: counts, p-values, ROC points.
EXACT = (
    "frechet_iterations",
    "null_failures",
    "test_p",
    "roc_scores",
    "roc_fpr",
    "roc_tpr",
    "roc_null_failures",
    "roc_patients_clipped",
)


@pytest.fixture(scope="module")
def computed():
    return golden_cases()


def test_golden_results(computed):
    with np.load(GOLDEN) as expected:
        assert sorted(expected.files) == sorted(computed)
        mismatched = []
        for key in expected.files:
            want, got = expected[key], computed[key]
            if key.rsplit("/", 1)[1] in EXACT:
                ok = np.array_equal(got, want)
            else:
                ok = got.shape == want.shape and np.allclose(got, want, rtol=0, atol=1e-10)
            if not ok:
                mismatched.append(key)
    assert not mismatched, f"results moved: {mismatched}"


def test_newton_rebase_against_unit_step(computed, monkeypatch):
    # the fixture was regenerated when Newton steps replaced the unit step;
    # both iterations stop inside the same gradient tolerance
    monkeypatch.setattr(group, "_frechet", unit_step_frechet)
    unit = golden_cases()
    for key, got in computed.items():
        want, quantity = unit[key], key.rsplit("/", 1)[1]
        if quantity == "fit_mean":
            assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want), key
        elif quantity == "null_values":
            assert np.allclose(got, want, rtol=0, atol=1e-7), key
        elif quantity in ("null_failures", "test_p", "roc_fpr", "roc_tpr"):
            assert np.array_equal(got, want), key


def test_warm_start_rebase_against_cold_start(computed, monkeypatch):
    # the fixture was regenerated again when the bootstrap refits started
    # from the control group's mean; only the tangent null moves, and no
    # p-value, ROC point or count with it
    monkeypatch.setattr(group, "_frechet", cold_frechet)
    cold = golden_cases()
    for key, got in computed.items():
        if key.endswith("/tangent/null_values"):
            assert np.allclose(got, cold[key], rtol=0, atol=1e-7), key
        else:
            assert np.array_equal(got, cold[key]), key
