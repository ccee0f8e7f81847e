import sys
from pathlib import Path

import hypothesis
import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=50, derandomize=True
)
hypothesis.settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


@pytest.fixture
def one_worker(monkeypatch):
    """Run every bootstrap in this process, so that a spy on the calls it
    makes sees them all, whatever BLAS thread count the environment sets."""
    from spdconn import inference

    monkeypatch.setattr(inference, "_worker_count", lambda m: 1)
