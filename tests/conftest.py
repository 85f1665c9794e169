import ctypes
import glob
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

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


def blas_core() -> str:
    """The kernel name of numpy's bundled OpenBLAS in this process ("SkylakeX",
    "Haswell", ...), or "unknown" when that library or its query is missing.
    Values pinned on one kernel name it in their failure message."""
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "libscipy_openblas64_*"))
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


@pytest.fixture
def rng():
    return np.random.default_rng(0)
