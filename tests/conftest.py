import json
from pathlib import Path

import numpy as np
import pytest

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "oracle_fixtures.json"


def pytest_report_header(config):
    # numpy picks its SIMD loops per CPU, and its vector power rounds unlike
    # libm's: a golden digest that fails on another CPU may fail for this
    try:
        simd = np.show_config(mode="dicts")["SIMD Extensions"]
    except TypeError:  # numpy before 1.26 only prints its configuration
        return f"numpy {np.__version__}"
    baseline, found = (", ".join(simd[key]) for key in ("baseline", "found"))
    return f"numpy {np.__version__}, SIMD baseline: {baseline}; found: {found}"


@pytest.fixture(scope="session")
def oracle_fixtures():
    with open(FIXTURE_PATH, encoding="utf-8") as fh:
        return json.load(fh)
