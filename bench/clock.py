"""Untraced timing, and the calibration kernel that end-to-end times are divided by.

On a shared machine the same work runs at very different speeds from one
minute to the next: repeated identical gradient checks on a shared 2-CPU
virtual machine took 0.6x to 1.7x their median time, in episodes tens of
seconds long, with process CPU time tracking wall time throughout. Medians
within a run cannot remove that, because a whole run can fall inside one
episode. So every end-to-end time is reported in units of a calibration
kernel that the job times between steps: fixed work that is not pointseg
code, mixing the two kinds of work the program does, many calls on tiny
arrays through varied numpy and Python code, and BLAS and memory-bound work
on arrays of a few MB. A change to the program moves the program's time, not
the kernel's, so the ratio moves with it.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

PROBE_EVERY_S = 0.2  # run the kernel at most this often from the probe hook


@dataclass(frozen=True)
class _Cell:
    """A small validated record, like the program's frozen dataclasses."""

    values: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.values).all():
            raise ValueError("non-finite")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))


class Calibration:
    """A fixed kernel of about 15 ms; `run()` returns its duration in seconds.

    It mixes the kinds of work the program does: many calls on tiny arrays
    through varied numpy and Python code, and BLAS and memory-bound work on
    arrays of a few MB.
    """

    def __init__(self):
        rng = np.random.default_rng(20221217)
        self.v = rng.random(64)
        self.s = rng.random((3, 8, 8))
        self.m = rng.random((6, 6))
        self.b = self.m > 0.5
        self.w = rng.random((16, 48))
        self.x = rng.random((48, 66, 66))
        self.doc = {"rows": [{"k": i, "v": list(range(10))} for i in range(40)]}

    def run(self) -> float:
        v, s, m, b, w, x = self.v, self.s, self.m, self.b, self.w, self.x
        t0 = time.perf_counter()
        for _ in range(200):
            float(v @ v) / (np.linalg.norm(s) + 1e-12)
            _Cell(s.max(axis=0, keepdims=True))
        for _ in range(20):
            np.pad(m, 1)
            np.percentile(m, 95)
            np.argwhere(b)
            np.concatenate([m, m]).sum(axis=(0, 1))
        sorted(json.loads(json.dumps(self.doc))["rows"], key=lambda r: -r["k"])
        for i in range(3):
            for j in range(3):
                np.tensordot(w, x[:, i:i + 64, j:j + 64], axes=(1, 0))
        np.exp(-x).sum()
        return time.perf_counter() - t0


class Clock:
    """Start and end clock reads of the wrapped calls, plus calibration runs.

    The kernel runs inside the probe hook, before the wrapped call starts,
    at most every PROBE_EVERY_S seconds. Intervals exclude the time it took.
    """

    def __init__(self, calibration: Calibration):
        self.calibration = calibration
        self.calls = []   # (attribute, start, end, positional arguments)
        self.probes = []  # (start, end), in time order
        self._next_probe = 0.0

    @contextmanager
    def installed(self, module, attrs, probe_attr):
        names = tuple(dict.fromkeys((*attrs, probe_attr)))
        saved = [(attr, getattr(module, attr)) for attr in names]
        for attr, fn in saved:
            setattr(module, attr, self._wrap(attr, fn, attr in attrs, attr == probe_attr))
        try:
            yield self
        finally:
            for attr, fn in saved:
                setattr(module, attr, fn)

    def probe(self, force=False):
        t0 = time.perf_counter()
        if force or t0 >= self._next_probe:
            t1 = t0 + self.calibration.run()
            self.probes.append((t0, t1))
            self._next_probe = t1 + PROBE_EVERY_S

    def _wrap(self, attr, fn, ticked, probed):
        calls = self.calls

        def clocked(*args, **kwargs):
            if probed:
                self.probe()
            if not ticked:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            calls.append((attr, t0, time.perf_counter(), args))
            return result

        clocked.__wrapped__ = fn
        return clocked

    def probe_seconds(self, t0, t1) -> float:
        """Calibration time spent inside [t0, t1]."""
        return sum(max(0.0, min(e, t1) - max(s, t0)) for s, e in self.probes)

    def calibrated(self, t0, t1, nearest=5) -> float:
        """[t0, t1] in calibration units, calibration time excluded.

        Each stretch between calibration runs is divided by the median
        duration of the `nearest` runs closest to it, so a change of machine
        speed partway through an interval is followed.
        """
        mids = [(s + e) / 2 for s, e in self.probes]
        cuts = sorted({t0, t1, *(t for p in self.probes for t in p if t0 < t < t1)})
        total = 0.0
        for a, b in zip(cuts, cuts[1:]):
            mid = (a + b) / 2
            i = bisect.bisect_left(mids, mid)
            if i < len(mids) and self.probes[i][0] <= mid <= self.probes[i][1]:
                continue  # inside a calibration run
            if i > 0 and self.probes[i - 1][0] <= mid <= self.probes[i - 1][1]:
                continue
            lo = max(0, min(i - nearest // 2, len(mids) - nearest))
            local = statistics.median(e - s for s, e in self.probes[lo:lo + nearest])
            total += (b - a) / local
        return total
