import pathlib

import pytest
from hypothesis import HealthCheck, settings

# print_blob: a failing example prints the @reproduce_failure line that replays it.
settings.register_profile(
    "suite",
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
    print_blob=True,
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def fixtures_dir() -> pathlib.Path:
    return pathlib.Path(__file__).parent / "fixtures"
