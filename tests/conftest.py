import json
import pathlib
import warnings

import pytest

import mixorder
from mixorder import builtin_catalog

CATALOG_DIR = pathlib.Path(mixorder.__file__).resolve().parent / "catalog"


@pytest.fixture(scope="session")
def catalog():
    return builtin_catalog()


@pytest.fixture
def catalog_path():
    """Path of the packaged catalog file of one scenario id."""
    return lambda scenario_id: CATALOG_DIR / f"{scenario_id.replace('.', '_')}.json"


@pytest.fixture
def catalog_doc(catalog_path):
    """Parsed packaged catalog file of one scenario id."""
    return lambda scenario_id: json.loads(catalog_path(scenario_id).read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def _quiet_location_warnings():
    # some randomized draws use sigma = 0 boundaries; keep runs quiet
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        yield
