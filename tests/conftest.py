import os
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from pointseg.cli import blas_core  # noqa: F401  (tests import it from conftest)
from pointseg.models import CHECKPOINT_MAGIC, MOMENTUM_PREFIX, ModelParams, save_checkpoint

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

# Acceptance tests record one verdict line each; the terminal summary prints
# them after the run so they are visible even with output capture on, then
# the size of the package, as `cat src/pointseg/*.py | wc -l` counts it.
_CRITERION_LINES = []
SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pointseg"


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
    modules = sorted(SRC.glob("*.py"))
    lines = sum(m.read_bytes().count(b"\n") for m in modules)
    terminalreporter.write_line(f"src/pointseg: {lines} lines in {len(modules)} modules")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# Checkpoints each broken in one way, keyed by test id: the kind of model
# broken, and the entries put into it, each parameter with its momentum twin
# and the first the one a loader must name (None: its enc1.b entry written a
# second time, after every other entry).
MALFORMED_CHECKPOINTS = {
    "rank-0-enc1.w": ("conv-ed", lambda v: {"enc1.w": np.zeros(())}),
    "one-class-field": ("logit-field", lambda v: {n: np.zeros((1,) + a.shape[1:]) for n, a in v.items()}),
    "one-class-head": ("conv-ed", lambda v: {"head.w": v["head.w"][:1], "head.b": v["head.b"][:1]}),
    "extra-bogus.w": ("conv-ed", lambda v: {"bogus.w": v["enc1.w"]}),
    "orphan-momentum": ("conv-ed", lambda v: {"momentum:x": np.zeros(3)}),
    "conv-entry-in-field": ("logit-field", lambda v: {"enc1.w": np.zeros((2, 1, 3, 3))}),
    "repeated-entry": ("conv-ed", None),
}


def write_malformed_checkpoint(path, case, params):
    """Write `params`, a model of the case's kind, to path broken as
    MALFORMED_CHECKPOINTS[case] says; returns the entry a loader must name."""
    edit = MALFORMED_CHECKPOINTS[case][1]
    if edit is None:
        save_checkpoint(path, params)
        save_checkpoint(f"{path}.one", ModelParams(params.spec, {"enc1.b": params.values["enc1.b"]}, {}))
        with open(path, "ab") as fh, open(f"{path}.one", "rb") as one:
            fh.write(one.read()[len(CHECKPOINT_MAGIC):])
        os.remove(f"{path}.one")
        return "enc1.b"
    values, momentum = dict(params.values), dict(params.momentum)
    changed = edit(values)
    for name, array in changed.items():
        if name.startswith(MOMENTUM_PREFIX):
            momentum[name[len(MOMENTUM_PREFIX):]] = array
        else:
            values[name] = momentum[name] = array
    save_checkpoint(path, ModelParams(params.spec, values, momentum))
    return next(iter(changed))
