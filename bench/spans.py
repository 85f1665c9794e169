"""Spans recorded from outside the program, around calls into its modules.

A `Tracer` replaces public functions at the module globals the program calls
through (for example `pointseg.train.forward` and `pointseg.losses.cv_loss`)
with wrappers that record one span per call: name, start, end and the
enclosing span. Every module global bound to the same function object is
replaced, so an alias such as `pointseg.train.augment_sample` (which is
`pointseg.data.augment`) is traced too. Spans live in flat in-memory arrays
and are written out only when the benchmark ends.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Module -> public functions traced there; a span is named "<module>.<function>".
# Gradcheck suites are named after their check_* function, with the arguments
# that tell the calls apart (the conv kernel, the end-to-end kind and mode).
TRACED = {
    "grids": ("as_grid", "softmax", "softmax_backward"),
    "losses": ("partial_cross_entropy", "ms_data_term", "tv_term", "cv_loss", "total_loss"),
    "models": ("forward", "backward", "init_params", "save_checkpoint", "load_checkpoint"),
    "data": ("augment",),
    "train": ("train_loop", "assemble_batch", "sgd_step"),
    "metrics": ("hard_mask", "dsc", "hd95", "evaluate"),
    "gradcheck": (
        "run_all", "check_softmax", "check_pce", "check_ms", "check_tv", "check_cv",
        "check_conv", "check_relu", "check_maxpool", "check_upsample", "check_end_to_end",
    ),
}


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


def _gradcheck_name(attr):
    if attr == "run_all":
        return "gradcheck.run_all"
    suite = attr[len("check_"):]
    if suite == "conv":
        return lambda a, k: f"gradcheck.conv{_arg(a, k, 0, 'kernel')}"
    if suite == "end_to_end":
        return lambda a, k: (
            f"gradcheck.e2e.{_arg(a, k, 0, 'kind')}."
            f"{_arg(a, k, 1, 'mode').replace('+', '-')}"
        )
    return f"gradcheck.{suite}"


def conv_flops(spec) -> float:
    """Nominal forward conv FLOPs for one image (2 per multiply-add), computed
    from the ModelSpec: enc1, enc2 at full size, enc3 at half size, dec1 on the
    skip concatenation, and the 1x1 head. A logit field has no convolutions."""
    if spec.kind != "conv-ed":
        return 0.0
    c1, c2, c3, c4 = spec.channels
    hw = spec.height * spec.width
    macs = 9 * (c1 * 1 + c2 * c1 + c4 * (c2 + c3)) * hw + 9 * c3 * c2 * hw / 4
    macs += spec.num_classes * c4 * hw
    return 2.0 * macs


def cv_pairs(present, plan) -> tuple:
    """(anchors, cosine pairs) that cv_loss evaluates for this batch, computed
    from the PairingPlan: one positive plus every other image's other-class
    map per anchor."""
    present = [set(int(k) for k in s) for s in present]
    pairs = 0
    anchors = 0
    for (n, k), _ in plan.items():
        anchors += 1
        pairs += 1 + sum(len(s - {k}) for i, s in enumerate(present) if i != n)
    return anchors, pairs


class Tracer:
    """In-memory span recorder. Use `installed(pointseg)` around traced work."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")  # computed count attached to a span (FLOPs, pairs)
        self.cache_bytes = 0
        self.cv_anchors = 0
        self._stack = [-1]

    def _nid(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.work.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, e.g. around the eval phase."""
        idx = self._open(self._nid(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name, observe):
        fixed = None if callable(name) else self._nid(name)

        def traced(*args, **kwargs):
            idx = self._open(fixed if fixed is not None else self._nid(name(args, kwargs)))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(idx, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # Observers attach computed counts; they run after the span closes.
    def _observe_forward(self, idx, args, kwargs, result):
        self.work[idx] = conv_flops(_arg(args, kwargs, 1, "spec"))
        cache = result[1]
        nbytes = sum(v.nbytes for v in cache.values() if isinstance(v, np.ndarray))
        self.cache_bytes = max(self.cache_bytes, nbytes)

    def _observe_backward(self, idx, args, kwargs, result):
        # Input and kernel gradients each cost one forward's worth of MACs.
        self.work[idx] = 2.0 * conv_flops(_arg(args, kwargs, 1, "spec"))

    def _observe_cv(self, idx, args, kwargs, result):
        anchors, pairs = cv_pairs(_arg(args, kwargs, 2, "present"), _arg(args, kwargs, 3, "plan"))
        self.cv_anchors += anchors
        self.work[idx] = pairs

    @contextmanager
    def installed(self, package):
        observers = {
            "models.forward": self._observe_forward,
            "models.backward": self._observe_backward,
            "losses.cv_loss": self._observe_cv,
        }
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in TRACED]
        saved = []
        for mod_name, attrs in TRACED.items():
            home = importlib.import_module(f"{package.__name__}.{mod_name}")
            for attr in attrs:
                current = getattr(home, attr)
                name = _gradcheck_name(attr) if mod_name == "gradcheck" else f"{mod_name}.{attr}"
                wrapper = self._wrap(current, name, observers.get(f"{mod_name}.{attr}"))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is current:
                            saved.append((mod, key, value))
                            setattr(mod, key, wrapper)
        try:
            yield self
        finally:
            for mod, key, value in reversed(saved):
                setattr(mod, key, value)

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds and summed work.

        Self time is a span's duration minus the durations of its direct
        children; spans nest because the program is single-threaded. Each
        name is also split by the benchmark span it ran under (its root), so
        forward calls in training and in eval are told apart.
        """
        n = len(self.start)
        nid = np.frombuffer(self.name_id, dtype=np.int32)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n]
        dur = np.frombuffer(self.end, dtype=np.float64)[:n] - np.frombuffer(self.start, dtype=np.float64)[:n]
        work = np.frombuffer(self.work, dtype=np.float64)[:n]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        root = np.where(has_parent, parent, np.arange(n))
        while True:  # one step up the tree per pass, until every span is at its root
            up = parent[root]
            if not (up >= 0).any():
                break
            root = np.where(up >= 0, up, root)
        root_nid = nid[root]
        out = {}
        for key_nid, key_root in set(zip(nid.tolist(), root_nid.tolist())):
            sel = (nid == key_nid) & (root_nid == key_root)
            out[(self.names[key_nid], self.names[key_root])] = {
                "calls": int(sel.sum()),
                "inclusive_s": float(dur[sel].sum()),
                "self_s": float(self_time[sel].sum()),
                "work": float(work[sel].sum()),
            }
        return out

    def write(self, path_prefix) -> None:
        """Write the raw spans (`.npz`) and the name table (`.names.json`)."""
        n = len(self.start)
        np.savez(
            f"{path_prefix}.npz",
            name_id=np.frombuffer(self.name_id, dtype=np.int32)[:n],
            parent=np.frombuffer(self.parent, dtype=np.int32)[:n],
            start=np.frombuffer(self.start, dtype=np.float64)[:n],
            end=np.frombuffer(self.end, dtype=np.float64)[:n],
            work=np.frombuffer(self.work, dtype=np.float64)[:n],
        )
        with open(f"{path_prefix}.names.json", "w", encoding="utf-8") as fh:
            json.dump(self.names, fh)

