import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from pointseg.cli import blas_core  # noqa: F401  (tests import it from conftest)

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

# Acceptance tests record one verdict line each; the terminal summary prints
# them after the run so they are visible even with output capture on.
_CRITERION_LINES = []


def record_criterion(number: int, passed: bool, detail: str) -> bool:
    line = f"CRITERION {number}: {'PASS' if passed else 'FAIL'} - {detail}"
    _CRITERION_LINES.append((number, line))
    print(line)
    return passed


def pytest_terminal_summary(terminalreporter):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(_CRITERION_LINES):
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
