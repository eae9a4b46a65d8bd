import json
from pathlib import Path

import pytest

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "oracle_fixtures.json"


@pytest.fixture(scope="session")
def oracle_fixtures():
    with open(FIXTURE_PATH, encoding="utf-8") as fh:
        return json.load(fh)
