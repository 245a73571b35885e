import json
from pathlib import Path

import numpy as np
import pytest

from bikepls import plsr
from bikepls.frames import TRANSITION_LABELS, build_frame, frames_from_analysis_table
from bikepls.reproduce import load_bundled_table, load_golden

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "fixtures"

# Floats whose decimal text is easy to get wrong: signed zero, the smallest
# subnormal, the largest finite double, and values with short or long reprs.
SPECIAL_VALUES = (-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1.7976931348623157e308,
                  -1.7976931348623157e308, 2.0, 0.1, 1 / 3)


@pytest.fixture(scope="session")
def table1_text() -> str:
    return load_bundled_table()


@pytest.fixture(scope="session")
def golden() -> dict:
    return load_golden()


@pytest.fixture(scope="session")
def table1_frames(table1_text):
    return frames_from_analysis_table(table1_text, standardize_y=False)


@pytest.fixture(scope="session")
def table1_models(table1_frames):
    return {
        label: plsr.fit(frame, 3) for label, frame in table1_frames.items()
    }


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(424242)


def random_frame(rng, n=None, j=None):
    """A frame of gaussian predictors and response, sized for the tests."""
    n = int(rng.integers(4, 9)) if n is None else n
    j = int(rng.integers(2, 7)) if j is None else j
    raw = rng.normal(size=(n, j)) * rng.uniform(0.5, 3.0)
    y = rng.normal(size=n) * rng.uniform(0.5, 3.0)
    return build_frame(
        tuple(f"s{i}" for i in range(n)), raw, y, TRANSITION_LABELS[0]
    )


@pytest.fixture
def demo_config(tmp_path) -> Path:
    """Copy of the demo pipeline config with paths made absolute."""
    cfg = json.loads((FIXTURES / "config.json").read_text())
    for key, value in cfg.items():
        if isinstance(value, str) and value.startswith("fixtures/"):
            cfg[key] = str(REPO_ROOT / value)
        elif isinstance(value, list):
            cfg[key] = [
                str(REPO_ROOT / v) if isinstance(v, str) and v.startswith("fixtures/") else v
                for v in value
            ]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path
