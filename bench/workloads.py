"""The benchmark's three workloads and the checks on their outputs.

Each workload has a set-up, which builds its inputs from the seed, and a job,
which the runner repeats in a closed loop: the next job starts when the
previous one returns. The program receives only the generated inputs.

* conv-cv: the default `pointseg train` config (conv-ed, pce+cv, batch 8),
  then save, `load_checkpoint` and eval on the test split. Conv forward and
  backward dominate each iteration, so changes to `models` show here.
* field-cv: logit-field with pce+cv at batch 16 on a train split of 32 (two
  equal batches per epoch), then a transductive eval on the train split.
  `forward` only copies a parameter, so `cv_loss` dominates; a conv change
  should show no change here.
* gradcheck: `gradcheck.run_all` on fixed instances. Thousands of calls on
  grids of 8x8 or smaller: the same `losses`/`grids`/`models` code at the
  opposite size extreme, where per-call overhead and validation dominate.

Functions are always looked up on the pointseg modules at call time, so the
tracer's wrappers at those module globals see every call.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from contextlib import nullcontext

import numpy as np

import pointseg
import pointseg.gradcheck  # not imported by the package itself
from pointseg.errors import PointsegError

# Work per job; "tiny" is the benchmark's own smoke test.
SIZES = {
    "full": {
        "conv-cv": {"height": 64, "train": 40, "test": 10, "iterations": 15},
        "field-cv": {"height": 64, "train": 32, "test": 0, "iterations": 32},
        "gradcheck": {"trials": 15, "end_to_end_trials": 1},
    },
    "tiny": {
        "conv-cv": {"height": 16, "train": 8, "test": 2, "iterations": 2},
        "field-cv": {"height": 16, "train": 16, "test": 0, "iterations": 2},
        "gradcheck": {"trials": 2, "end_to_end_trials": 1},
    },
}

GRADCHECK_SUITES = (
    "check_softmax", "check_pce", "check_ms", "check_tv", "check_cv",
    "check_conv", "check_relu", "check_maxpool", "check_upsample", "check_end_to_end",
)


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Tally:
    """Operations attempted and failed; a failure is recorded, not raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def params_equal(a, b) -> bool:
    """Same spec and bit-identical parameter and momentum arrays."""
    if a.spec != b.spec or sorted(a.values) != sorted(b.values):
        return False
    return all(
        np.array_equal(a.values[n], b.values[n]) and np.array_equal(a.momentum[n], b.momentum[n])
        for n in a.values
    )


class TrainWorkload:
    """Train with pce+cv, save, load the checkpoint back, evaluate."""

    def __init__(self, name, kind, batch_size, eval_split, size):
        self.name = name
        self.kind = kind
        self.batch_size = batch_size
        self.eval_split = eval_split
        self.size = SIZES[size][name]
        # Step = one training iteration, from batch assembly to the SGD step;
        # the calibration kernel runs between iterations.
        self.hooks = (pointseg.train, ("assemble_batch", "sgd_step"), "assemble_batch")

    def prepare(self, seed, root):
        """Synthesize, write, load back and annotate the dataset."""
        shutil.rmtree(root, ignore_errors=True)
        s = self.size
        spec = pointseg.data.SynthSpec(
            height=s["height"], width=s["height"], train_count=s["train"],
            test_count=s["test"], seed=seed)
        train, test, _ = pointseg.data.synth_generate(spec)
        pointseg.data.save_dataset(root, train, test, spec.num_classes)
        train = pointseg.data.generate_annotations(pointseg.data.load_split(root, "train"), seed)
        test = pointseg.data.load_split(root, "test")
        return {"train": train, "test": test}

    def steps(self, calls):
        starts = [t0 for attr, t0, _, _ in calls if attr == "assemble_batch"]
        ends = [t1 for attr, _, t1, _ in calls if attr == "sgd_step"]
        return list(zip(starts, ends))

    def job(self, inputs, seed, job_dir, tally, span=lambda name: nullcontext()):
        """Returns the phase intervals, counts, digests and quality figures."""
        os.makedirs(job_dir, exist_ok=True)
        config = pointseg.train.TrainConfig(
            model_kind=self.kind, batch_size=self.batch_size,
            total_iterations=self.size["iterations"], seed=seed)
        samples = inputs["train"]
        H, W = samples[0].image.intensities.shape
        record = {"phases": {}, "digests": {}, "info": {}}
        phases = record["phases"]

        t0 = time.perf_counter()
        try:
            with span("bench.train"):
                state = pointseg.train.train_loop(samples, config, checkpoint_dir=job_dir)
        except PointsegError as exc:
            tally.check(False, f"train_loop raised {exc}")
            return record
        phases["train"] = (t0, time.perf_counter())
        tally.check(True, "train_loop")
        losses = [row[-1] for row in state.history]
        tally.check(all(np.isfinite(losses)), "training loss is not finite")

        path = os.path.join(job_dir, "checkpoint_final.bin")
        t0 = time.perf_counter()
        with span("bench.load"):
            params = pointseg.models.load_checkpoint(path, height=H, width=W)
        phases["load"] = (t0, time.perf_counter())
        tally.check(params_equal(params, state.params),
                    "loaded checkpoint differs from the in-memory parameters")

        eval_samples = inputs[self.eval_split]
        eval_path = os.path.join(job_dir, "eval.json")
        t0 = time.perf_counter()
        with span("bench.eval"):
            preds = []
            for s in eval_samples:
                try:
                    field, _ = pointseg.models.forward(params, params.spec, s.image, s.id)
                    preds.append(pointseg.metrics.hard_mask(pointseg.grids.softmax(field)))
                    tally.check(True, "eval image")
                except PointsegError as exc:
                    tally.check(False, f"eval image {s.id} raised {exc}")
            report = None
            if len(preds) == len(eval_samples):
                report = pointseg.metrics.evaluate(preds, [s.mask for s in eval_samples])
                with open(eval_path, "w", encoding="utf-8") as fh:
                    fh.write(report.to_json())
        phases["eval"] = (t0, time.perf_counter())
        if not tally.check(report is not None, "evaluation did not run"):
            return record
        tally.check(0.0 <= report.dsc_average <= 1.0 and np.isfinite(report.hd95_average)
                    and report.hd95_average >= 0.0, "eval report out of range")

        record["counts"] = {"train": config.total_iterations * self.batch_size,
                            "eval": len(eval_samples)}
        record["digests"] = {"checkpoint_sha256": sha256_file(path),
                             "eval_json_sha256": sha256_file(eval_path)}
        record["info"] = {"dsc_avg": report.dsc_average, "hd95_avg": report.hd95_average,
                          "checkpoint_bytes": os.path.getsize(path)}
        return record


class GradcheckWorkload:
    """`gradcheck.run_all` on the CLI's default seed, with fewer trials.

    The instances stay those of seed 0 whatever the workload seed: with few
    trials per suite, the shapes each seed draws changed the work of a job by
    up to 45% between seeds. Fifteen trials and one end-to-end trial (the CLI
    runs 50 and 4) keep a job near 5 s, so that one round of jobs fits a run.
    """

    def __init__(self, size):
        self.size = SIZES[size]["gradcheck"]
        # Step = one trial (an "instance" in the report): from the draw of its
        # random instance to the next trial's draw, or the end of its suite.
        # The calibration kernel runs at those draws.
        self.hooks = (pointseg.gradcheck, GRADCHECK_SUITES + ("keyed_rng",), "keyed_rng")

    def prepare(self, seed, root):
        return {}  # run_all builds its own instances from the seed

    def steps(self, calls):
        # Trials draw keyed_rng(seed, "gradcheck", suite, ..., t); the layer
        # checks draw a second stream for their probe, keyed "probe" last.
        starts = [t0 for attr, t0, _, args in calls
                  if attr == "keyed_rng" and args[1:2] == ("gradcheck",) and args[-1] != "probe"]
        steps = []
        for attr, s0, s1, _ in calls:
            if attr != "keyed_rng":
                inside = [t for t in starts if s0 <= t <= s1]
                steps += zip(inside, inside[1:] + [s1])
        return steps

    def job(self, inputs, seed, job_dir, tally, span=lambda name: nullcontext()):
        t0 = time.perf_counter()
        with span("bench.gradcheck"):
            report = pointseg.gradcheck.run_all(
                seed=0, trials=self.size["trials"],
                end_to_end_trials=self.size["end_to_end_trials"])
        t1 = time.perf_counter()
        for c in report.components:
            tally.check(c.passed, f"gradcheck {c.name}: rel err {c.worst_rel_err:.3e} "
                                  f"at seed {c.worst_seed}, coordinate {c.worst_coordinate}")
        # The verdict table without its timing line is fixed by the seed.
        verdicts = "\n".join(report.format_table().splitlines()[:-1])
        return {
            "phases": {"gradcheck": (t0, t1)},
            "counts": {},
            "digests": {"verdicts_sha256": hashlib.sha256(verdicts.encode()).hexdigest()},
            "info": {},
        }


def make(name, size):
    if name == "conv-cv":
        return TrainWorkload("conv-cv", "conv-ed", 8, "test", size)
    if name == "field-cv":
        return TrainWorkload("field-cv", "logit-field", 16, "train", size)
    if name == "gradcheck":
        return GradcheckWorkload(size)
    raise ValueError(f"unknown workload {name!r}")
