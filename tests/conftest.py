import json
from pathlib import Path

import numpy as np
import pytest

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "oracle_fixtures.json"


def pytest_report_header(config):
    # numpy picks its SIMD loops per CPU; the output bytes should not depend
    # on them (test_cli runs the golden matrix with AVX-512 switched off),
    # and a digest that fails on one CPU only is read against this line
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
