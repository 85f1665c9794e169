"""
Sweeping the contrastive weight
===============================

This demo drives the full CLI pipeline (synthesize, annotate, sweep) at
toy scale to show the sweep artifacts: one run directory per value plus
sweep.csv and a gnuplot-friendly sweep.dat, rows in input order. The
directional story (a moderate weight helps, a dominating one hurts) needs
the acceptance-scale budget; a sixty-iteration toy run only shows the
plumbing.
"""

import json
import pathlib
import subprocess
import sys
import tempfile

spec = {
    "num_classes": 2,
    "height": 24,
    "width": 24,
    "anchors": [[0.5, 0.5]],
    "intensity_means": [0.25, 0.75],
    "train_count": 6,
    "test_count": 3,
    "seed": 2,
}

config = {
    "mode": "pce+cv",
    "model_kind": "conv-ed",
    "channels": [4, 4, 8, 4],
    "total_iterations": 60,
    "batch_size": 3,
    "lr0": 0.001,
    "seed": 0,
}


def run(*args):
    cmd = [sys.executable, "-m", "pointseg.cli", *args]
    print("$", " ".join(str(a) for a in cmd[2:]))
    subprocess.run(cmd, check=True)


with tempfile.TemporaryDirectory(prefix="pointseg_demo_") as tmp:
    work = pathlib.Path(tmp)
    data = work / "data"
    (work / "spec.json").write_text(json.dumps(spec))
    (work / "config.json").write_text(json.dumps(config))
    run("synth", "--spec", work / "spec.json", "--out", data)
    run("annotate", "--data", data, "--seed", "0")
    run("sweep", "--config", work / "config.json", "--data", data,
        "--out", work / "sweep", "--parameter", "lambda_cv",
        "--values", "0,0.3,3.0")

    print()
    print("sweep.csv:")
    print((work / "sweep" / "sweep.csv").read_text())
