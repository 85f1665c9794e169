"""pointseg benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload conv-cv --seed 1 --seconds 25 --trace 0

Run from the root of a pointseg checkout; the package is imported from its
`src/`. The run sets the workload up three times (`setup_s` is the median),
then runs the workload's job in rounds of one child process per hash seed in
HASH_SEEDS, round after round until another would pass `--seconds`, and
checks every job's outputs. The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` the first job runs
untraced and the others traced, and the metrics are the per-layer ones.
Lines before it record the environment, each job, and raw figures. Files go
to `.bench_out/<workload>-seed<n>-trace<t>/` under the checkout. See
bench/README.md for the workloads, the metrics and how to read a traced run."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread: the convs are small tensordots that gain nothing from a
# second thread, and one thread keeps figures steadier on a shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("PSCV_THREADS", None)

SETUP_REPEATS = 3
HARD_LIMIT_S = 150.0  # start no round that would end the run after this
# Each job runs in a fresh interpreter. String hashing is randomized per
# process, and with it the layout of every dict the interpreter looks names up
# in; identical gradient checks in separate processes differed by up to 25%
# that way, with the calibration kernel unchanged. Every round runs one job
# per hash seed below, so every run averages over the same layouts.
HASH_SEEDS = (0, 1, 2, 3)

# End-to-end times are in units of the calibration kernel ("cal"); see clock.py.
END_TO_END = {
    "setup_s": "s",
    "job_cal": "cal",
    "step_p50_cal": "cal",
    "step_p90_cal": "cal",
    "peak_rss_mb": "MB",
}

SUITE_NAMES = (
    ["softmax", "pce", "ms", "tv", "cv", "conv3", "conv1", "relu", "maxpool", "upsample"]
    + [f"e2e.{kind}.{mode}" for kind in ("logit-field", "conv-ed")
       for mode in ("pce", "pce-ms", "pce-cv")]
)

PER_LAYER = {
    "models.forward_ms": "ms",
    "models.backward_ms": "ms",
    "models.forward_gflops": "GFLOP/s",
    "models.backward_gflops": "GFLOP/s",
    "models.forward_eval_ms": "ms",
    "models.cache_bytes": "bytes",
    "models.save_checkpoint_ms": "ms",
    "models.load_checkpoint_ms": "ms",
    "models.checkpoint_bytes": "bytes",
    "losses.cv_loss_self_ms": "ms",
    "losses.cv_loss_calls": "count",
    "losses.cv_anchors": "count",
    "losses.cv_pairs": "count",
    "losses.total_loss_self_ms": "ms",
    "losses.pce_ms": "ms",
    "losses.ms_data_ms": "ms",
    "losses.tv_ms": "ms",
    "grids.softmax_ms": "ms",
    "grids.softmax_calls": "count",
    "grids.softmax_backward_ms": "ms",
    "grids.as_grid_ms": "ms",
    "grids.as_grid_calls": "count",
    "data.augment_ms": "ms",
    "train.assemble_batch_ms": "ms",
    "train.sgd_step_ms": "ms",
    "train.train_loop_ms": "ms",
    "train.models_share": "ratio",
    "train.cv_loss_self_share": "ratio",
    "metrics.hard_mask_ms": "ms",
    "metrics.dsc_ms": "ms",
    "metrics.hd95_ms": "ms",
    "metrics.hd95_calls": "count",
    "metrics.evaluate_self_ms": "ms",
    "metrics.dsc_avg": "ratio",
    "metrics.hd95_avg": "px",
    "gradcheck.run_all_s": "s",
    **{f"gradcheck.{suite}_s": "s" for suite in SUITE_NAMES},
    "gradcheck.cv_share": "ratio",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("conv-cv", "field-cv", "gradcheck"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is the smoke-test size")
    p.add_argument("--job", type=int, help=argparse.SUPPRESS)  # set for child processes
    return p.parse_args(argv)


def blas_threads():
    """Threads the loaded OpenBLAS reports, or the configured count."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    except OSError:
        pass
    return BLAS_THREADS


def environment():
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        blob = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + blob)
        lines += blob.count(b"\n")
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        git_sha = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def fresh_import():
    """A new interpreter imports pointseg: what every CLI run pays."""
    subprocess.run([sys.executable, "-c", "import pointseg"], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True)


# Per-layer figures computed rather than measured: from the ModelSpec, from
# the cache dict forward returns, and from the PairingPlan.
COMPUTED = ("models.forward_gflops", "models.backward_gflops", "models.cache_bytes",
            "losses.cv_anchors", "losses.cv_pairs")

# What each workload was chosen to stress, as shares of the traced job.
EMPHASIS = {
    "conv-cv": (("train.models_share", ">= 0.75"),),
    "field-cv": (("train.models_share", "<= 0.05"), ("train.cv_loss_self_share", ">= 0.75")),
    "gradcheck": (("gradcheck.cv_share", ">= 1/3"),),
}


def layer_metrics(summary, tracer, record) -> dict:
    """Per-layer figures of one traced job; times are totals over the job."""

    def total(name, field="inclusive_s", root=None):
        return sum(v[field] for (n, r), v in summary.items()
                   if n == name and (root is None or r == root))

    def ms(name, field="inclusive_s"):
        return 1000.0 * total(name, field)

    def rate(work, seconds):
        return work / seconds / 1e9 if seconds > 0 else 0.0

    fwd_eval_s = total("models.forward", root="bench.eval")
    fwd_s = total("models.forward") - fwd_eval_s
    fwd_work = total("models.forward", "work") - total("models.forward", "work", root="bench.eval")
    bwd_s = total("models.backward")
    cv_calls = total("losses.cv_loss", "calls")
    train_s = total("train.train_loop")
    run_all_s = total("gradcheck.run_all")
    out = {
        "models.forward_ms": 1000.0 * fwd_s,
        "models.backward_ms": 1000.0 * bwd_s,
        "models.forward_gflops": rate(fwd_work, fwd_s),
        "models.backward_gflops": rate(total("models.backward", "work"), bwd_s),
        "models.forward_eval_ms": 1000.0 * fwd_eval_s,
        "models.cache_bytes": tracer.cache_bytes,
        "models.save_checkpoint_ms": ms("models.save_checkpoint"),
        "models.load_checkpoint_ms": ms("models.load_checkpoint"),
        "models.checkpoint_bytes": record["info"].get("checkpoint_bytes", 0),
        "losses.cv_loss_self_ms": ms("losses.cv_loss", "self_s"),
        "losses.cv_loss_calls": cv_calls,
        "losses.cv_anchors": tracer.cv_anchors / cv_calls if cv_calls else 0.0,
        "losses.cv_pairs": total("losses.cv_loss", "work") / cv_calls if cv_calls else 0.0,
        "losses.total_loss_self_ms": ms("losses.total_loss", "self_s"),
        "losses.pce_ms": ms("losses.partial_cross_entropy"),
        "losses.ms_data_ms": ms("losses.ms_data_term"),
        "losses.tv_ms": ms("losses.tv_term"),
        "grids.softmax_ms": ms("grids.softmax"),
        "grids.softmax_calls": total("grids.softmax", "calls"),
        "grids.softmax_backward_ms": ms("grids.softmax_backward"),
        "grids.as_grid_ms": ms("grids.as_grid"),
        "grids.as_grid_calls": total("grids.as_grid", "calls"),
        "data.augment_ms": ms("data.augment"),
        "train.assemble_batch_ms": ms("train.assemble_batch"),
        "train.sgd_step_ms": ms("train.sgd_step"),
        "train.train_loop_ms": 1000.0 * train_s,
        "train.models_share": (fwd_s + bwd_s) / train_s if train_s else 0.0,
        "train.cv_loss_self_share": total("losses.cv_loss", "self_s") / train_s if train_s else 0.0,
        "metrics.hard_mask_ms": ms("metrics.hard_mask"),
        "metrics.dsc_ms": ms("metrics.dsc"),
        "metrics.hd95_ms": ms("metrics.hd95"),
        "metrics.hd95_calls": total("metrics.hd95", "calls"),
        "metrics.evaluate_self_ms": ms("metrics.evaluate", "self_s"),
        "metrics.dsc_avg": record["info"].get("dsc_avg", 0.0),
        "metrics.hd95_avg": record["info"].get("hd95_avg", 0.0),
        "gradcheck.run_all_s": run_all_s,
        "gradcheck.cv_share": total("gradcheck.cv") / run_all_s if run_all_s else 0.0,
        "trace.spans": len(tracer.start),
    }
    for suite in SUITE_NAMES:
        out[f"gradcheck.{suite}_s"] = total(f"gradcheck.{suite}")
    return out


def percentile(values, q) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def out_dir(args) -> Path:
    return ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"


def run_job(args) -> int:
    """Child process: run job `args.job` and write its record as JSON."""
    import pointseg
    import workloads
    from clock import Calibration, Clock
    from spans import Tracer

    out = out_dir(args)
    workload = workloads.make(args.workload, args.size)
    inputs = workload.prepare(args.seed, out / "data")
    # Jobs take turns on the CPUs: on a shared machine each CPU has its own
    # speed, and a run should not depend on the one it happened to start on.
    cpus = sorted(os.sched_getaffinity(0))
    cpu = cpus[args.job % len(cpus)]
    os.sched_setaffinity(0, {cpu})
    traced = bool(args.trace) and args.job > 0
    tally = workloads.Tally()
    clock = Clock(Calibration())
    for _ in range(3):  # first runs pay one-off costs
        clock.calibration.run()

    clock.probe(force=True)
    if traced:
        tracer = Tracer()
        with tracer.installed(pointseg):
            record = workload.job(inputs, args.seed, out / "job", tally, tracer.span)
        steps = []
    else:
        with clock.installed(*workload.hooks):
            record = workload.job(inputs, args.seed, out / "job", tally)
        steps = workload.steps(clock.calls)
    clock.probe(force=True)

    phases = record.pop("phases")
    phase_s = {name: t1 - t0 - clock.probe_seconds(t0, t1) for name, (t0, t1) in phases.items()}
    record.update({
        "index": args.job,
        "traced": traced,
        "cpu": cpu,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "phase_s": phase_s,
        "seconds": sum(phase_s.values()),
        "cal": sum(clock.calibrated(t0, t1) for t0, t1 in phases.values()),
        "steps_ms": [1000.0 * (t1 - t0 - clock.probe_seconds(t0, t1)) for t0, t1 in steps],
        "steps_cal": [clock.calibrated(t0, t1) for t0, t1 in steps],
        "calibration_ms": 1000.0 * statistics.median(e - s for s, e in clock.probes),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
    })
    if traced:
        summary = tracer.summary()
        record["layers"] = layer_metrics(summary, tracer, record)
        tracer.write(out / f"spans_job{args.job}")
        rows = [{"name": n, "root": r, **v} for (n, r), v in sorted(summary.items())]
        (out / f"spans_summary_job{args.job}.json").write_text(json.dumps(rows, indent=1))
    (out / f"job{args.job}.json").write_text(json.dumps(record))
    return 0


def spawn_job(args, index, out, timeout):
    """Run one job in a fresh interpreter with its round's hash seed."""
    path = out / f"job{index}.json"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--job", str(index)]
    env = {**os.environ, "PYTHONHASHSEED": str(HASH_SEEDS[index % len(HASH_SEEDS)])}
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
        error = done.stderr.strip()[-2000:] if done.returncode else ""
    except subprocess.TimeoutExpired:
        error = f"timed out after {timeout:.0f} s"
    if error or not path.exists():
        return {"index": index, "error": error or "no record written"}
    return json.loads(path.read_text())


def run(args) -> int:
    """Parent process: set up, run jobs in rounds of child processes, report."""
    import pointseg
    import workloads

    if Path(pointseg.__file__).resolve().parent != (SRC / "pointseg").resolve():
        print(f"error: imported pointseg from {pointseg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    out = out_dir(args)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    workload = workloads.make(args.workload, args.size)

    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        fresh_import()
        workload.prepare(args.seed, out / "data")
        setup.append(time.perf_counter() - t0)

    tally = workloads.Tally()
    jobs = []
    loop_start = time.perf_counter()
    while True:
        for _ in HASH_SEEDS:
            elapsed = time.perf_counter() - loop_start
            job = spawn_job(args, len(jobs), out, max(10.0, HARD_LIMIT_S - elapsed))
            if "error" in job:
                tally.check(False, f"job {job['index']} failed: {job['error']}")
                print(f"job {job['index']}: failed", flush=True)
                continue
            tally.attempted += job["attempted"]
            tally.failed += job["failed"]
            tally.failures += job["failures"]
            if jobs:
                for key, value in job["digests"].items():
                    tally.check(value == jobs[0]["digests"].get(key),
                                f"job {job['index']}: {key} differs from job 0")
            jobs.append(job)
            print(f"job {job['index']}: {'traced' if job['traced'] else 'untraced'} "
                  f"{job['seconds']:.3f} s = {job['cal']:.1f} cal, CPU {job['cpu']}, "
                  f"hash seed {job['hash_seed']} "
                  f"{json.dumps(job['digests'], sort_keys=True)}", flush=True)
        elapsed = time.perf_counter() - loop_start
        per_round = elapsed * len(HASH_SEEDS) / max(len(jobs), 1)
        if not jobs or elapsed + per_round > min(args.seconds, HARD_LIMIT_S):
            break

    def median(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    untraced = [j for j in jobs if not j["traced"]]
    complete = [j for j in untraced if j.get("counts")]
    steps_ms = [s for j in untraced for s in j["steps_ms"]]
    steps_cal = [s for j in untraced for s in j["steps_cal"]]
    info = {
        "job_s": median(j["seconds"] for j in untraced),
        "calibration_ms": median(j["calibration_ms"] for j in jobs),
        "fail_ratio": tally.failed / max(tally.attempted, 1),
        "jobs": len(jobs),
        "step_samples": len(steps_ms),
    }
    if isinstance(workload, workloads.TrainWorkload):
        info.update({
            "train_iter_p50_ms": percentile(steps_ms, 50),
            "train_iter_p90_ms": percentile(steps_ms, 90),
            "train_images_per_s": median(j["counts"]["train"] / j["phase_s"]["train"]
                                         for j in complete),
            "eval_images_per_s": median(j["counts"]["eval"] / j["phase_s"]["eval"]
                                        for j in complete),
            **{key: median(j["info"][key] for j in complete)
               for key in ("dsc_avg", "hd95_avg", "checkpoint_bytes")},
        })
    else:
        info.update({"gradcheck_s": info["job_s"],
                     "trial_p50_ms": percentile(steps_ms, 50),
                     "trial_p90_ms": percentile(steps_ms, 90)})

    if args.trace:
        layered = [j for j in jobs if j["traced"]]
        values = {name: median(j["layers"][name] for j in layered)
                  for name in PER_LAYER if name != "trace.overhead_pct"}
        # Raw seconds: traced jobs run no calibration kernel (it would land
        # inside the spans); the jobs of one run are seconds apart.
        untraced_s = median(j["seconds"] for j in untraced)
        values["trace.overhead_pct"] = (
            100.0 * (median(j["seconds"] for j in layered) / untraced_s - 1.0)
            if layered and untraced_s else 0.0)
        units = PER_LAYER
        print("computed, not measured: " + ", ".join(COMPUTED))
        for name, claim in EMPHASIS.get(args.workload, ()):
            print(f"emphasis {name} = {values[name]:.3f} (design: {claim})")
    else:
        values = {
            "setup_s": statistics.median(setup),
            "job_cal": median(j["cal"] for j in untraced),
            "step_p50_cal": percentile(steps_cal, 50),
            "step_p90_cal": percentile(steps_cal, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    for name, value in info.items():
        print(f"info {name} {value}")
    for failure in tally.failures:
        print(f"FAILED {failure}")
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    detail = {"env": env, "args": vars(args), "setup_s": setup, "info": info,
              "failures": tally.failures, "jobs": jobs, "result": result}
    (out / "result.json").write_text(json.dumps(detail, indent=1, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pointseg" / "__init__.py").is_file():
        print(f"error: no pointseg package under {SRC}; run from a pointseg checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_job(args) if args.job is not None else run(args)


if __name__ == "__main__":
    sys.exit(main())
