import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import pointseg
import pointseg.gradcheck
from pointseg.cli import main


TINY_SPEC = {
    "num_classes": 2,
    "height": 16,
    "width": 16,
    "anchors": [[0.5, 0.5]],
    "jitter": 0.05,
    "radius_range": [0.2, 0.3],
    "intensity_means": [0.2, 0.8],
    "noise_sigma": 0.05,
    "train_count": 4,
    "test_count": 2,
    "seed": 0,
}

TINY_TRAIN = {
    "mode": "pce",
    "model_kind": "conv-ed",
    "channels": [2, 2, 3, 2],
    "total_iterations": 5,
    "batch_size": 2,
    "lr0": 0.001,
    "augment": False,
    "seed": 0,
}


def tree_digest(root):
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "data"
    spec_path = root.parent / "spec.json"
    spec_path.write_text(json.dumps(TINY_SPEC))
    assert main(["synth", "--spec", str(spec_path), "--out", str(root)]) == 0
    assert main(["annotate", "--data", str(root), "--seed", "0"]) == 0
    return root


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = out / "config.json"
    cfg.write_text(json.dumps(TINY_TRAIN))
    assert main(["train", "--config", str(cfg), "--data", str(dataset),
                 "--out", str(out)]) == 0
    return out


def test_synth_writes_expected_layout_and_is_deterministic(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(TINY_SPEC))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--spec", str(spec_path), "--out", str(a)]) == 0
    assert main(["synth", "--spec", str(spec_path), "--out", str(b)]) == 0
    manifest = json.loads((a / "manifest.json").read_text())
    assert manifest["K"] == 2 and manifest["H"] == 16
    assert len(list((a / "images").glob("train*.pgm"))) == 4
    assert len(list((a / "images").glob("test*.pgm"))) == 2
    assert tree_digest(a) == tree_digest(b)


def test_synth_seed_flag_changes_content(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(TINY_SPEC))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--spec", str(spec_path), "--out", str(a)]) == 0
    assert main(["synth", "--spec", str(spec_path), "--seed", "7",
                 "--out", str(b)]) == 0
    assert tree_digest(a) != tree_digest(b)


def test_synth_rejects_unknown_spec_keys(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"num_classes": 2, "blobs": 3}))
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "x")]) == 2
    assert "blobs" in capsys.readouterr().err


def test_annotate_is_deterministic(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(TINY_SPEC))
    root = tmp_path / "d"
    assert main(["synth", "--spec", str(spec_path), "--out", str(root)]) == 0
    assert main(["annotate", "--data", str(root), "--seed", "3"]) == 0
    first = (root / "annotations.json").read_bytes()
    assert main(["annotate", "--data", str(root), "--seed", "3"]) == 0
    assert (root / "annotations.json").read_bytes() == first
    points = json.loads(first)
    assert len(points) == 6  # every image, train and test


def test_train_writes_artifacts(trained):
    assert (trained / "checkpoint_final.bin").exists()
    assert (trained / "history.csv").exists()
    manifest = json.loads((trained / "run_manifest.json").read_text())
    assert manifest["config"]["total_iterations"] == 5
    assert manifest["artifacts"]["final_checkpoint"] == "checkpoint_final.bin"
    assert "created" in manifest
    history = (trained / "history.csv").read_text().strip().split("\n")
    assert history[0] == "iteration,lr,pce,ms_data,cv_contrastive,tv,total"
    assert len(history) == 6


def test_train_rerun_from_manifest_reproduces_checkpoint(dataset, trained, tmp_path):
    rerun = tmp_path / "rerun"
    assert main(["train", "--config", str(trained / "run_manifest.json"),
                 "--data", str(dataset), "--out", str(rerun)]) == 0
    assert ((rerun / "checkpoint_final.bin").read_bytes()
            == (trained / "checkpoint_final.bin").read_bytes())
    assert ((rerun / "history.csv").read_bytes()
            == (trained / "history.csv").read_bytes())


def test_train_flag_overrides_config(dataset, tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_TRAIN))
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--data", str(dataset),
                 "--out", str(out), "--total-iterations", "0"]) == 0
    assert "checkpoint equals initialization" in capsys.readouterr().out
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["total_iterations"] == 0


def test_train_rejects_unknown_config_keys(dataset, tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"mode": "pce", "warmup": 10}))
    assert main(["train", "--config", str(cfg), "--data", str(dataset),
                 "--out", str(tmp_path / "out")]) == 2
    assert "warmup" in capsys.readouterr().err


def test_train_divergence_exits_3(dataset, tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "mode": "pce", "model_kind": "conv-ed", "channels": [2, 2, 3, 2],
        "total_iterations": 40, "batch_size": 4, "lr0": 1e10,
        "momentum": 0.9, "augment": False, "seed": 0,
    }))
    assert main(["train", "--config", str(cfg), "--data", str(dataset),
                 "--out", str(tmp_path / "out")]) == 3
    assert "divergence" in capsys.readouterr().err


def test_eval_writes_report_and_predictions(dataset, trained, tmp_path):
    out = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(trained / "checkpoint_final.bin"),
                 "--data", str(dataset), "--out", str(out)]) == 0
    report = json.loads((out / "eval.json").read_text())
    assert set(report) >= {"per_class_dsc", "per_class_hd95", "dsc_average",
                           "hd95_average"}
    pgms = sorted((out / "predictions").glob("*.pgm"))
    assert len(pgms) == 2  # test split
    assert pgms[0].read_bytes().startswith(b"P5")


def test_eval_composite_and_train_split(dataset, trained, tmp_path):
    out = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(trained / "checkpoint_final.bin"),
                 "--data", str(dataset), "--out", str(out),
                 "--split", "train", "--composite"]) == 0
    overlays = sorted((out / "predictions").glob("*_overlay.ppm"))
    assert len(overlays) == 4  # train split
    assert overlays[0].read_bytes().startswith(b"P6")


def test_eval_checkpoint_dataset_mismatch_exits_2(trained, tmp_path, capsys):
    spec = dict(TINY_SPEC, num_classes=3, anchors=[[0.3, 0.3], [0.7, 0.7]],
                intensity_means=[0.2, 0.5, 0.8])
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    other = tmp_path / "other"
    assert main(["synth", "--spec", str(spec_path), "--out", str(other)]) == 0
    assert main(["eval", "--checkpoint", str(trained / "checkpoint_final.bin"),
                 "--data", str(other), "--out", str(tmp_path / "out")]) == 2
    assert "classes" in capsys.readouterr().err


def test_train_malformed_annotation_exits_2(dataset, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    path = data / "annotations.json"
    annotations = json.loads(path.read_text())
    victim = json.loads((data / "manifest.json").read_text())["train"][0]
    del annotations[victim][0]["class"]
    path.write_text(json.dumps(annotations))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_TRAIN))
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "annotations.json" in err and victim in err


def test_eval_missing_checkpoint_exits_2(dataset, tmp_path, capsys):
    assert main(["eval", "--checkpoint", str(tmp_path / "nope.bin"),
                 "--data", str(dataset), "--out", str(tmp_path / "out")]) == 2
    assert "error" in capsys.readouterr().err


def test_eval_nan_checkpoint_exits_2_naming_the_entry(dataset, trained, tmp_path, capsys):
    params = pointseg.load_checkpoint(trained / "checkpoint_final.bin", height=16, width=16)
    params.values["dec1.w"][0, 0, 1, 1] = float("nan")
    bad = tmp_path / "nan.bin"
    pointseg.save_checkpoint(bad, params)
    assert main(["eval", "--checkpoint", str(bad), "--data", str(dataset),
                 "--out", str(tmp_path / "out")]) == 2
    assert "entry 'dec1.w' holds NaN or Inf" in capsys.readouterr().err


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--trials", "2", "--end-to-end-trials", "1"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out


def test_gradcheck_detects_corruption(monkeypatch, capsys):
    real = pointseg.gradcheck.tv_term

    def broken(pred, smooth_value=False):
        value, grad = real(pred, smooth_value)
        return value, grad * 1.01
    monkeypatch.setattr(pointseg.gradcheck, "tv_term", broken)
    assert main(["gradcheck", "--trials", "2", "--end-to-end-trials", "1"]) == 1
    err = capsys.readouterr().err
    assert "tv_term" in err and "coordinate" in err


def test_sweep_orders_rows_and_writes_tables(dataset, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_TRAIN))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--data", str(dataset),
                 "--out", str(out), "--parameter", "lambda_cv",
                 "--values", "3.0,0.0"]) == 0
    csv_lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "value,dsc_avg,hd95_avg"
    assert csv_lines[1].startswith("3.0,")
    assert csv_lines[2].startswith("0.0,")
    dat_lines = (out / "sweep.dat").read_text().strip().split("\n")
    assert dat_lines[0] == "# lambda_cv dsc_avg hd95_avg"
    assert (out / "run_000_lambda_cv_3" / "eval.json").exists()
    assert (out / "run_001_lambda_cv_0" / "eval.json").exists()


def test_sweep_rejects_unknown_parameter(dataset, tmp_path):
    assert main(["sweep", "--data", str(dataset), "--out", str(tmp_path / "s"),
                 "--parameter", "power", "--values", "1,2"]) == 2


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["train", "--data"]) == 2
    assert main(["no-such-command"]) == 2


def _thread_env(threads):
    """Subprocess environment in which PSCV_THREADS alone sets the BLAS threads."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PSCV_THREADS"] = threads
    src = os.path.dirname(os.path.dirname(pointseg.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_bad_thread_count_exits_2_and_import_succeeds(tmp_path):
    env = _thread_env("abc")
    cli = subprocess.run(
        [sys.executable, "-m", "pointseg.cli", "annotate", "--data", str(tmp_path), "--seed", "0"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert cli.returncode == 2
    assert "error: PSCV_THREADS must be a positive integer, got 'abc'" in cli.stderr
    imported = subprocess.run(
        [sys.executable, "-c",
         "import os, pointseg; print(os.environ.get('OPENBLAS_NUM_THREADS'))"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert imported.returncode == 0, imported.stderr
    assert imported.stdout.strip() == "None"


def test_checkpoint_bytes_do_not_depend_on_blas_threads(tmp_path):
    # The convs hand BLAS strided slices; however BLAS splits that work over
    # threads, the checkpoint must not change. The default grid is large
    # enough to be split, a tiny one may never be.
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data)]) == 0
    assert main(["annotate", "--data", str(data), "--seed", "0"]) == 0
    checkpoints = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        run = subprocess.run(
            [sys.executable, "-m", "pointseg.cli", "train", "--data", str(data),
             "--out", str(out), "--model-kind", "conv-ed", "--total-iterations", "4"],
            env=_thread_env(threads), capture_output=True, text=True, timeout=600,
        )
        assert run.returncode == 0, run.stderr
        checkpoints.append((out / "checkpoint_final.bin").read_bytes())
    assert checkpoints[0] == checkpoints[1]


def test_version_flag():
    assert main(["--version"]) == 0
