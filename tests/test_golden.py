"""The pipeline still returns the results recorded in ``data/golden.npz``."""

from pathlib import Path

import numpy as np
import pytest

from golden import golden_cases

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
