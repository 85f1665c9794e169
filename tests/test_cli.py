import argparse
import dataclasses
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import MALFORMED_CHECKPOINTS, write_malformed_checkpoint

import pointseg
import pointseg.data
import pointseg.gradcheck
from pointseg import TrainConfig
from pointseg.cli import _from_json, blas_core, build_parser, main
from pointseg.losses import MODES
from pointseg.models import KINDS, load_checkpoint


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


def test_synth_malformed_anchor_exits_2(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"num_classes": 2, "anchors": [1], "intensity_means": [0.2, 0.8]}))
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "x")]) == 2
    assert f"error: {spec_path}: anchor 1 must be a (row, col) pair" in capsys.readouterr().err


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


@pytest.mark.parametrize("damage", ["stray-sample", "float-row"])
def test_annotate_regenerates_a_damaged_annotation_file(dataset, tmp_path, damage):
    # annotate rewrites annotations.json, so it must not read the old one.
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    path = data / "annotations.json"
    annotations = json.loads(path.read_text())
    if damage == "stray-sample":
        annotations["train999"] = annotations["train000"]
    else:
        annotations["train000"][0]["row"] = 1.5
    path.write_text(json.dumps(annotations))
    assert main(["annotate", "--data", str(data), "--seed", "0"]) == 0
    assert path.read_bytes() == (dataset / "annotations.json").read_bytes()


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


def test_train_manifest_records_what_the_bytes_depend_on(trained):
    numerics = json.loads((trained / "run_manifest.json").read_text())["numerics"]
    assert numerics == {"numpy": np.__version__, "openblas_core": blas_core(),
                        "blas_threads": numerics["blas_threads"],
                        "cpu_model": numerics["cpu_model"], "cpu_caches": numerics["cpu_caches"]}
    # None only where numpy bundles no OpenBLAS that answers the query.
    assert numerics["blas_threads"] is None or numerics["blas_threads"] >= 1
    # The host's CPU, None where the kernel's files cannot be read.
    cpuinfo = Path("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in
              (cpuinfo.read_text().splitlines() if cpuinfo.exists() else [])
              if line.startswith("model name")]
    assert numerics["cpu_model"] == (models[0] if models else None)
    caches = numerics["cpu_caches"]
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    if not cache_dir.is_dir():
        assert caches is None
    else:
        sizes = sorted((d / "size").read_text().strip() for d in cache_dir.glob("index*"))
        assert sorted(caches.values()) == sizes
        assert all(re.fullmatch(r"L\d[di]?", level) for level in caches)


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


def test_train_checkpoint_cadence(dataset, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_TRAIN))
    for total in (5, 4):
        out = tmp_path / f"every2_of_{total}"
        assert main(["train", "--config", str(cfg), "--data", str(dataset), "--out", str(out),
                     "--checkpoint-every", "2", "--total-iterations", str(total)]) == 0
        assert sorted(p.name for p in out.glob("checkpoint_*.bin")) == [
            "checkpoint_000002.bin", "checkpoint_000004.bin", "checkpoint_final.bin"]
    assert ((out / "checkpoint_000004.bin").read_bytes()
            == (out / "checkpoint_final.bin").read_bytes())


def test_train_channels_flag(dataset, tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_TRAIN))
    out = tmp_path / "out"
    argv = ["train", "--config", str(cfg), "--data", str(dataset), "--out", str(out),
            "--total-iterations", "1", "--channels"]
    assert main(argv + ["2,3,3,2"]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["channels"] == [2, 3, 3, 2]
    params = load_checkpoint(out / "checkpoint_final.bin", height=16, width=16)
    assert params.spec.channels == (2, 3, 3, 2)
    capsys.readouterr()
    assert main(argv + ["2,x"]) == 2
    assert "channels must be comma-separated integers: '2,x'" in capsys.readouterr().err


def test_train_rejects_unknown_config_keys(dataset, tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"mode": "pce", "warmup": 10}))
    assert main(["train", "--config", str(cfg), "--data", str(dataset),
                 "--out", str(tmp_path / "out")]) == 2
    assert "warmup" in capsys.readouterr().err


WRONG_TYPES = [
    ("synth", {"train_count": 2.5}, "train_count"),
    ("synth", {"height": 16.5, "width": 16}, "height"),
    ("synth", {"anchors": 0.5}, "anchors"),
    ("train", {"batch_size": 2.5}, "batch_size"),
    ("train", {"mu": "x"}, "mu"),
    ("train", {"lambda_cv": None}, "lambda_cv"),
    ("train", {"seed": 1.5}, "seed"),
    ("train", {"seed": True}, "seed"),
    ("train", {"tau": False}, "tau"),
    ("train", {"augment": "no"}, "augment"),
    ("train", {"mode": 1}, "mode"),
]


@pytest.mark.parametrize("command, values, key", WRONG_TYPES,
                         ids=[f"{c}-{k}={v[k]!r}" for c, v, k in WRONG_TYPES])
def test_config_value_of_wrong_type_exits_2(dataset, tmp_path, capsys, command, values, key):
    # Each value is checked against its field's declared type before the
    # dataclass sees it; the rest of the file is a valid tiny run or spec.
    path = tmp_path / "in.json"
    if command == "synth":
        path.write_text(json.dumps({**TINY_SPEC, **values}))
        argv, what = ["synth", "--spec", str(path), "--out", str(tmp_path / "x")], "spec"
    else:
        path.write_text(json.dumps({**TINY_TRAIN, **values}))
        argv = ["train", "--config", str(path), "--data", str(dataset), "--out", str(tmp_path / "x")]
        what = "config"
    assert main(argv) == 2
    assert f"error: {path}: bad {what} value: {key} must be " in capsys.readouterr().err


def test_config_takes_null_only_where_default_is_none_and_ints_as_floats():
    config = _from_json(TrainConfig, {"lr0": None, "mu": 0, "channels": [2, 2, 3, 2]}, {}, "config")
    assert (config.lr0, config.mu, config.channels) == (0.001, 0, (2, 2, 3, 2))


def test_config_file_error_names_the_file_and_a_flag_error_does_not(dataset, tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**TINY_TRAIN, "lr0": -1}))
    out = tmp_path / "out"
    argv = ["train", "--config", str(cfg), "--data", str(dataset), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {cfg}: lr0 must be positive, got -1\n"
    # A flag's bad value is the flag's error, whether or not it overrides a
    # bad file value; a good flag value overrides the bad file value.
    assert main(argv + ["--lr0", "-2"]) == 2
    assert capsys.readouterr().err == "error: lr0 must be positive, got -2.0\n"
    assert main(argv + ["--lr0", "0.001", "--mu", "-1"]) == 2
    assert capsys.readouterr().err == "error: mu must be nonnegative, got -1.0\n"
    assert not out.exists()
    assert main(argv + ["--lr0", "0.001", "--total-iterations", "0"]) == 0


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


BAD_FLAGS = [
    (["--lr0", "nan", "--model-kind", "logit-field"], "lr0"),
    (["--lr0", "nan"], "lr0"),
    (["--tau", "nan", "--mode", "pce+cv"], "tau"),
    (["--lambda-cv", "-1", "--mode", "pce+cv"], "lambda_cv"),
]


@pytest.mark.parametrize("flags, field", BAD_FLAGS, ids=[" ".join(f) for f, _ in BAD_FLAGS])
def test_non_finite_or_negative_flag_exits_2_naming_the_field(dataset, tmp_path, capsys,
                                                             flags, field):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_TRAIN))
    assert main(["train", "--config", str(cfg), "--data", str(dataset),
                 "--out", str(tmp_path / "out"), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


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


def test_eval_logit_field_off_its_train_split_exits_2(dataset, tmp_path, capsys):
    # A transductive field holds logits only for the train images it was fit
    # on, so the default test split is rejected before any forward pass.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(TINY_TRAIN, model_kind="logit-field", total_iterations=1)))
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--data", str(dataset), "--out", str(run)]) == 0
    checkpoint = str(run / "checkpoint_final.bin")
    out = tmp_path / "eval"
    assert main(["eval", "--checkpoint", checkpoint, "--data", str(dataset),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "test split" in err and "--split train" in err
    assert not out.exists()
    assert main(["eval", "--checkpoint", checkpoint, "--data", str(dataset),
                 "--out", str(out), "--split", "train"]) == 0


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


def test_eval_mixed_logit_field_shapes_exits_2_naming_the_entry(dataset, tmp_path, capsys):
    ids = tuple(json.loads((dataset / "manifest.json").read_text())["train"])
    params = pointseg.init_params(pointseg.ModelSpec("logit-field", 2, 16, 16, image_ids=ids), 0)
    params.values["field.train001"] = params.momentum["field.train001"] = np.zeros((3, 16, 16))
    bad = tmp_path / "mixed.bin"
    pointseg.save_checkpoint(bad, params)
    out = tmp_path / "out"
    assert main(["eval", "--checkpoint", str(bad), "--data", str(dataset),
                 "--out", str(out), "--split", "train"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "mixed.bin" in err and "'field.train001'" in err
    assert not out.exists()


@pytest.mark.parametrize("case", MALFORMED_CHECKPOINTS)
def test_eval_malformed_checkpoint_exits_2_naming_the_file_and_entry(dataset, tmp_path, capsys, case):
    ids = tuple(json.loads((dataset / "manifest.json").read_text())["train"])
    kind = MALFORMED_CHECKPOINTS[case][0]
    spec = pointseg.ModelSpec(kind, 2, 16, 16, channels=(2, 2, 3, 2), image_ids=ids)
    bad = tmp_path / "bad.bin"
    entry = write_malformed_checkpoint(bad, case, pointseg.init_params(spec, 0))
    out = tmp_path / "out"
    assert main(["eval", "--checkpoint", str(bad), "--data", str(dataset),
                 "--out", str(out), "--split", "train"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "bad.bin" in err and f"'{entry}'" in err
    assert not out.exists()


@pytest.mark.parametrize("tail", [b"\x00", b"\x05\x00\x00\x00x", b"\x01\x00\x00\x00x\x00\x00\x00\x00"],
                         ids=["short-name-length", "name-past-the-end", "value-past-the-end"])
def test_eval_checkpoint_with_bytes_appended_exits_2(dataset, trained, tmp_path, capsys, tail):
    # Appended bytes read as one more entry, cut off inside its length, name or value.
    bad = tmp_path / "appended.bin"
    bad.write_bytes((trained / "checkpoint_final.bin").read_bytes() + tail)
    with pytest.raises(pointseg.IngestError, match="appended.bin: truncated or corrupt"):
        load_checkpoint(bad, height=16, width=16)
    out = tmp_path / "out"
    assert main(["eval", "--checkpoint", str(bad), "--data", str(dataset),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and "appended.bin" in err
    assert not out.exists()


def _spec_for_three_classes(**fields):
    def damage(data):
        (data.parent / "spec.json").write_text(json.dumps({"num_classes": 3, **fields}))
    return damage


def _rewrite_json(name, edit):
    def damage(data):
        path = data / name
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return damage


def _swap_train000_classes(annotations):
    # Both points keep their pixels and trade classes, so each disagrees with the mask.
    first, second = annotations["train000"]
    first["class"], second["class"] = second["class"], first["class"]
    return annotations


def _first_point_off_mask(data):
    first, second = json.loads((data / "annotations.json").read_text())["train000"]
    return (f"{data}: sample 'train000' inconsistent (sample train000: point "
            f"({first['row']}, {first['col']}) labeled {first['class']} but mask says {second['class']})")


# Each case: the command, the damage done to a copy of the dataset (or the
# synth spec or train config written beside it), and the error it must print,
# given the copy.
INGEST_ERRORS = {
    "spec-one-anchor": ("synth", _spec_for_three_classes(anchors=[[0.5, 0.5]]),
                        lambda data: f"{data.parent / 'spec.json'}: need 2 anchors for 3 classes, got 1"),
    "spec-two-means": ("synth", _spec_for_three_classes(intensity_means=[0.2, 0.8]),
                       lambda data: f"{data.parent / 'spec.json'}: need 3 intensity means, got (0.2, 0.8)"),
    "spec-radius-range-reversed": ("synth", _spec_for_three_classes(radius_range=[0.3, 0.2]),
                                   lambda data: f"{data.parent / 'spec.json'}: radius range (0.3, 0.2) "
                                                "must be (lo, hi)"),
    "config-negative-lr0": ("train", lambda data: (data.parent / "config.json").write_text(
                                json.dumps({**TINY_TRAIN, "lr0": -1})),
                            lambda data: f"{data.parent / 'config.json'}: lr0 must be positive, got -1"),
    "manifest-not-json": ("train", lambda data: (data / "manifest.json").write_text("{"),
                          lambda data: f"{data / 'manifest.json'}: invalid JSON"),
    "train-image-shape": ("train", lambda data: pointseg.data.write_pgm(
                              data / "images" / "train000.pgm", np.zeros((8, 8), dtype=int)),
                          lambda data: f"{data / 'images' / 'train000.pgm'}: shape (8, 8) "
                                       "does not match manifest 16x16"),
    "test-mask-shape": ("eval", lambda data: pointseg.data.write_pgm(
                            data / "masks" / "test000.pgm", np.zeros((8, 8), dtype=int)),
                        lambda data: f"{data / 'masks' / 'test000.pgm'}: shape differs from image shape"),
    "train-image-missing": ("train", lambda data: (data / "images" / "train000.pgm").unlink(),
                            lambda data: f"{data / 'images' / 'train000.pgm'}: cannot read"),
    "train-image-header-cut": ("train", lambda data: (data / "images" / "train000.pgm").write_bytes(b"P5\n16"),
                               lambda data: f"{data / 'images' / 'train000.pgm'}: truncated PGM header"),
    "points-not-a-list": ("train", _rewrite_json("annotations.json", lambda a: {**a, "train000": 5}),
                          lambda data: f"{data / 'annotations.json'}: sample 'train000': "
                                       "points must be a list"),
    "point-class-off-mask": ("train", _rewrite_json("annotations.json", _swap_train000_classes),
                             _first_point_off_mask),
}


@pytest.mark.parametrize("case", INGEST_ERRORS)
def test_bad_dataset_or_spec_file_exits_2_and_writes_nothing(dataset, trained, tmp_path, capsys,
                                                            case):
    command, damage, message = INGEST_ERRORS[case]
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_TRAIN))
    damage(data)
    out = tmp_path / "out"
    argv = {
        "synth": ["synth", "--spec", str(tmp_path / "spec.json")],
        "train": ["train", "--config", str(cfg), "--data", str(data)],
        "eval": ["eval", "--checkpoint", str(trained / "checkpoint_final.bin"), "--data", str(data)],
    }[command]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert message(data) in err
    assert not out.exists()


def test_eval_logit_field_on_another_grid_exits_2(dataset, tmp_path, capsys):
    ids = tuple(json.loads((dataset / "manifest.json").read_text())["train"])
    small = tmp_path / "small.bin"
    pointseg.save_checkpoint(small, pointseg.init_params(
        pointseg.ModelSpec("logit-field", 2, 8, 8, image_ids=ids), 0))
    out = tmp_path / "out"
    assert main(["eval", "--checkpoint", str(small), "--data", str(dataset),
                 "--out", str(out), "--split", "train"]) == 2
    assert capsys.readouterr().err == "error: checkpoint grid 8x8 does not match dataset 16x16\n"
    assert not out.exists()


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--trials", "2", "--end-to-end-trials", "1"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out


def test_gradcheck_detects_corruption(monkeypatch, capsys):
    real = pointseg.gradcheck.tv_term

    def broken(pred):
        value, grad = real(pred)
        return value, grad * 1.01
    monkeypatch.setattr(pointseg.gradcheck, "tv_term", broken)
    assert main(["gradcheck", "--trials", "2", "--end-to-end-trials", "1"]) == 1
    err = capsys.readouterr().err
    assert "tv_term" in err and "coordinate" in err


def test_gradcheck_fails_a_non_finite_gradient(monkeypatch, capsys):
    real = pointseg.gradcheck._upsample2_backward
    monkeypatch.setattr(pointseg.gradcheck, "_upsample2_backward",
                        lambda g: real(g) * float("nan"))
    assert main(["gradcheck", "--trials", "2", "--end-to-end-trials", "1"]) == 1
    captured = capsys.readouterr()
    assert "overall: FAIL" in captured.out
    assert captured.err == "FAIL upsample2x2: trial 0, coordinate 0, rel err inf\n"


def test_gradcheck_fails_a_non_finite_objective_value(monkeypatch, capsys):
    real = pointseg.gradcheck._smooth_tv
    monkeypatch.setattr(pointseg.gradcheck, "_smooth_tv",
                        lambda P: real(P) if np.iscomplexobj(P) else np.full(P.shape[:-3], np.nan))
    assert main(["gradcheck", "--trials", "2", "--end-to-end-trials", "1"]) == 1
    captured = capsys.readouterr()
    assert "overall: FAIL" in captured.out
    assert "FAIL tv_term:" in captured.err and "error:" not in captured.err


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


# tree_digest of TINY_SPEC's dataset annotated with seed 0. Synthesis and
# annotation call no BLAS kernel, so these bytes hold on every machine.
TINY_DATASET_SHA256 = "b0af4b02dbf942a59bfd5e821379dea92fee4ce6bffdb7d6c711347b7f1b14fb"


def test_artifacts_keep_their_json_format_and_dataset_bytes(tmp_path):
    def formatted(path):
        return json.dumps(json.loads(path.read_bytes()), indent=2, sort_keys=True)

    data, run, ev, sweep = (tmp_path / name for name in ("data", "run", "eval", "sweep"))
    spec, cfg = tmp_path / "spec.json", tmp_path / "config.json"
    spec.write_text(json.dumps(TINY_SPEC))
    cfg.write_text(json.dumps(TINY_TRAIN))
    assert main(["synth", "--spec", str(spec), "--out", str(data)]) == 0
    assert main(["annotate", "--data", str(data), "--seed", "0"]) == 0
    assert tree_digest(data) == TINY_DATASET_SHA256
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(run)]) == 0
    assert main(["eval", "--checkpoint", str(run / "checkpoint_final.bin"),
                 "--data", str(data), "--out", str(ev)]) == 0
    assert main(["sweep", "--config", str(cfg), "--data", str(data), "--out", str(sweep),
                 "--parameter", "lambda_cv", "--values", "3.0,0.0"]) == 0
    runs = [run, *sorted(sweep.glob("run_*"))]
    assert len(runs) == 3
    for path in [data / "manifest.json", data / "annotations.json",
                 *(r / "run_manifest.json" for r in runs)]:
        assert path.read_text(encoding="utf-8") == formatted(path) + "\n", path
    for path in [ev / "eval.json", *(r / "eval.json" for r in runs[1:])]:
        assert path.read_text(encoding="utf-8") == formatted(path), path
    csv_rows = (sweep / "sweep.csv").read_text().split("\n")[1:]
    dat_rows = (sweep / "sweep.dat").read_text().split("\n")[1:]
    assert len(csv_rows) == 3 and csv_rows[-1] == ""
    assert dat_rows == [row.replace(",", " ") for row in csv_rows]


def test_resynth_leaves_no_stale_annotations_or_masks(tmp_path, capsys):
    # A re-synthesized dataset carries no supervision drawn for the old images.
    data, spec, cfg = tmp_path / "data", tmp_path / "spec.json", tmp_path / "config.json"
    spec.write_text(json.dumps(TINY_SPEC))
    cfg.write_text(json.dumps(TINY_TRAIN))
    assert main(["synth", "--spec", str(spec), "--out", str(data)]) == 0
    assert main(["annotate", "--data", str(data), "--seed", "0"]) == 0
    assert main(["synth", "--spec", str(spec), "--seed", "7", "--out", str(data)]) == 0
    assert not (data / "annotations.json").exists()
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(tmp_path / "run")]) == 2
    assert "training needs point annotations" in capsys.readouterr().err


@pytest.mark.parametrize("at_file", [False, True], ids=["under-a-file", "at-a-file"])
@pytest.mark.parametrize("command", ["synth", "train", "eval", "sweep"])
def test_out_path_that_cannot_be_made_exits_2_naming_it(dataset, trained, tmp_path, capsys,
                                                         command, at_file):
    # Exit 1 is reserved for a verification failure; an unmakeable output
    # directory is a usage error.
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker if at_file else blocker / "out"
    spec, cfg = tmp_path / "spec.json", tmp_path / "config.json"
    spec.write_text(json.dumps(TINY_SPEC))
    cfg.write_text(json.dumps(TINY_TRAIN))
    argv = {
        "synth": ["synth", "--spec", str(spec)],
        "train": ["train", "--config", str(cfg), "--data", str(dataset)],
        "eval": ["eval", "--checkpoint", str(trained / "checkpoint_final.bin"),
                 "--data", str(dataset)],
        "sweep": ["sweep", "--config", str(cfg), "--data", str(dataset),
                  "--parameter", "lambda_cv", "--values", "0.1"],
    }[command]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert blocker.read_text() == ""


def test_sweep_rejects_unknown_parameter(dataset, tmp_path):
    assert main(["sweep", "--data", str(dataset), "--out", str(tmp_path / "s"),
                 "--parameter", "power", "--values", "1,2"]) == 2


def test_sweep_rejects_a_bad_value_before_any_run_trains(dataset, tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_TRAIN))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--data", str(dataset), "--out", str(out),
                 "--parameter", "lr0", "--values", "0.001,nan"]) == 2
    assert "error: lr0 must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_a_logit_field_before_any_run_trains(dataset, tmp_path, capsys):
    # A logit field has predictions only for the images it was fit on, and
    # sweep scores every run on the test split.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**TINY_TRAIN, "model_kind": "logit-field"}))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--data", str(dataset), "--out", str(out),
                 "--parameter", "lambda_cv", "--values", "0.0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "logit-field" in err and "test split" in err
    assert not out.exists()


BAD_MODEL_CONFIGS = [
    ("train", ["--channels", "2,3"], {}, "channels must be 4 positive integers"),
    ("train", ["--channels", "0,1,1,1"], {}, "channels must lie in [1, inf), got 0"),
    ("train", [], {"channels": [2.5, 3, 3, True]}, "channels must be 4 positive integers"),
    ("train", ["--central-bias-width", "-1"], {}, "central_bias_width"),
    ("train", ["--model-kind", "logit-field", "--augment"], {}, "augment must be off for a logit field"),
    ("train", [], {"model_kind": "logit-field", "augment": True}, "augment must be off for a logit field"),
    ("sweep", ["--channels", "1,1"], {}, "channels must be 4 positive integers"),
    ("sweep", ["--central-bias-width", "-1"], {}, "central_bias_width"),
]


@pytest.mark.parametrize("command, flags, values, field", BAD_MODEL_CONFIGS,
                         ids=[f"{c} {' '.join(f) or json.dumps(v)}" for c, f, v, _ in BAD_MODEL_CONFIGS])
def test_bad_model_config_exits_2_before_any_file_is_written(dataset, tmp_path, capsys,
                                                             command, flags, values, field):
    # Channel widths are four positive integers (a float or a bool is not
    # truncated), and a negative central-bias width is rejected with the config.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**TINY_TRAIN, **values}))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--data", str(dataset), "--out", str(out), *flags]
    if command == "sweep":
        argv += ["--parameter", "lambda_cv", "--values", "0.0"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not out.exists()


@pytest.mark.parametrize("command, kind, message", [
    ("train", "conv-ed", "conv-ed needs even height and width, got 9x9"),
    ("sweep", "conv-ed", "conv-ed needs even height and width, got 9x9"),
    ("train", "logit-field", "{root}/manifest.json: sample id 'train000' is listed more than once"),
], ids=["train-odd-grid", "sweep-odd-grid", "train-duplicate-id"])
def test_model_spec_rejection_exits_2_before_any_file_is_written(tmp_path, capsys,
                                                                 command, kind, message):
    # The model spec is built from the training set before --out is made: a
    # 9x9 grid fails conv-ed. A train id listed twice, which would give a
    # logit field two fields of one name, fails the manifest before that.
    spec, root = tmp_path / "spec.json", tmp_path / "data"
    spec.write_text(json.dumps({**TINY_SPEC, "height": 9, "width": 9}))
    assert main(["synth", "--spec", str(spec), "--out", str(root)]) == 0
    assert main(["annotate", "--data", str(root)]) == 0
    if kind == "logit-field":
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["train"].append(manifest["train"][0])
        (root / "manifest.json").write_text(json.dumps(manifest))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**TINY_TRAIN, "model_kind": kind}))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--data", str(root), "--out", str(out)]
    if command == "sweep":
        argv += ["--parameter", "lambda_cv", "--values", "0.0,0.3"]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message.format(root=root)}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_central_bias_width_that_blanks_every_column_exits_2(dataset, trained, tmp_path, capsys,
                                                            command):
    # The dataset is 16 columns wide, so bands of 8 leave none; eval and
    # sweep check the width against the dataset before writing anything.
    out = tmp_path / "out"
    if command == "eval":
        argv = ["eval", "--checkpoint", str(trained / "checkpoint_final.bin")]
    else:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(TINY_TRAIN))
        argv = ["sweep", "--config", str(cfg), "--parameter", "lambda_cv", "--values", "0.0"]
    argv += ["--data", str(dataset), "--out", str(out), "--central-bias-width", "8"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: central-bias width 8 must lie in [0, 8) on 16 columns")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_unannotated_train_image_exits_2_before_any_file_is_written(dataset, tmp_path, capsys,
                                                                    command):
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    path = data / "annotations.json"
    annotations = json.loads(path.read_text())
    victim = json.loads((data / "manifest.json").read_text())["train"][1]
    del annotations[victim]
    path.write_text(json.dumps(annotations))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_TRAIN))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--data", str(data), "--out", str(out)]
    if command == "sweep":
        argv += ["--parameter", "lambda_cv", "--values", "0.0"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: sample {victim}: training needs point")
    assert not out.exists()


BAD_POINTS = {
    "pixel-outside-image": ({"row": 16}, "annotated pixel (16, "),
    "class-not-below-K": ({"class": 2}, "annotated class 2 outside [0, 2)"),
    "float-row": ({"row": 1.5}, 'needs integer "row", "col" and "class"'),
    "bool-col": ({"col": True}, 'needs integer "row", "col" and "class"'),
    "duplicate-class": ("duplicate", "annotated more than once"),
    "stray-sample": ("stray", "annotations.json: sample 'train999' is not in the manifest"),
}


@pytest.mark.parametrize("case", sorted(BAD_POINTS))
def test_bad_annotation_point_exits_2_before_any_file_is_written(dataset, tmp_path, capsys,
                                                                 case):
    change, message = BAD_POINTS[case]
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    path = data / "annotations.json"
    annotations = json.loads(path.read_text())
    points = annotations["train000"]
    if change == "duplicate":  # a second pixel for the first point's class
        points.append({**points[0], "row": (points[0]["row"] + 1) % 16})
    elif change == "stray":  # train000's points under an id the manifest lacks
        annotations["train999"] = points
    else:
        points[0].update(change)
    path.write_text(json.dumps(annotations))
    out = tmp_path / "out"
    assert main(["train", "--data", str(data), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "train999" in err if change == "stray" else "train000" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def _without_test_mask(data):
    (data / "masks" / "test000.pgm").unlink()
    return "error: sample test000: evaluation needs a ground-truth mask"


def _without_test_split(data):
    # The split's annotations go with it: an annotated id that the manifest
    # does not list is an error of its own.
    path, annotations_path = data / "manifest.json", data / "annotations.json"
    manifest, annotations = json.loads(path.read_text()), json.loads(annotations_path.read_text())
    annotations_path.write_text(json.dumps({k: v for k, v in annotations.items()
                                            if k not in manifest["test"]}))
    path.write_text(json.dumps({**manifest, "test": []}))
    return "error: the test split is empty: nothing to evaluate"


@pytest.mark.parametrize("command", ["eval", "sweep"])
@pytest.mark.parametrize("damage", [_without_test_mask, _without_test_split],
                         ids=["unmasked-test-image", "empty-test-split"])
def test_unscorable_test_split_exits_2_before_any_file_is_written(dataset, trained, tmp_path,
                                                                 capsys, command, damage):
    # Both commands check the split they score before training or writing.
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    message = damage(data)
    out = tmp_path / "out"
    if command == "eval":
        argv = ["eval", "--checkpoint", str(trained / "checkpoint_final.bin")]
    else:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(TINY_TRAIN))
        argv = ["sweep", "--config", str(cfg), "--parameter", "lambda_cv", "--values", "0.0"]
    assert main(argv + ["--data", str(data), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_manifest_id_that_leaves_the_dataset_exits_2_and_writes_nothing(dataset, trained, tmp_path,
                                                                         capsys):
    # The id resolves to images/../../outside.pgm and masks/../../outside.pgm,
    # one file beside the dataset root holding a valid mask. Evaluating it
    # would write its prediction to ev/outside.pgm, outside --out ev/deep.
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    shutil.copy(data / "masks" / "test000.pgm", tmp_path / "outside.pgm")
    escape = "../../outside"
    path, annotations_path = data / "manifest.json", data / "annotations.json"
    manifest, annotations = json.loads(path.read_text()), json.loads(annotations_path.read_text())
    annotations[escape] = annotations.pop("test000")
    annotations_path.write_text(json.dumps(annotations))
    test_ids = [escape if i == "test000" else i for i in manifest["test"]]
    path.write_text(json.dumps({**manifest, "test": test_ids}))
    assert main(["eval", "--checkpoint", str(trained / "checkpoint_final.bin"),
                 "--data", str(data), "--out", str(tmp_path / "ev" / "deep")]) == 2
    err = capsys.readouterr().err
    assert "manifest.json" in err and repr(escape) in err
    assert not (tmp_path / "ev").exists()


# Each case: the split an id is appended to, and the train id appended.
REPEATED_IDS = {"within-train": ("train", 1), "across-splits": ("test", 0)}


@pytest.mark.parametrize("command", ["annotate", "train", "eval", "sweep"])
@pytest.mark.parametrize("case", sorted(REPEATED_IDS))
def test_repeated_manifest_id_exits_2_and_writes_nothing(dataset, trained, tmp_path, capsys,
                                                        case, command):
    # An id listed twice would train on one image twice an epoch, or let eval
    # score a train image as a test image.
    data = tmp_path / "data"
    shutil.copytree(dataset, data)
    path = data / "manifest.json"
    manifest = json.loads(path.read_text())
    split, n = REPEATED_IDS[case]
    repeated = manifest["train"][n]
    path.write_text(json.dumps({**manifest, split: manifest[split] + [repeated]}))
    before = tree_digest(data)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_TRAIN))
    out = tmp_path / "out"
    argv = {
        "annotate": ["annotate", "--seed", "0"],
        "train": ["train", "--config", str(cfg), "--out", str(out)],
        "eval": ["eval", "--checkpoint", str(trained / "checkpoint_final.bin"), "--out", str(out)],
        "sweep": ["sweep", "--config", str(cfg), "--out", str(out),
                  "--parameter", "lambda_cv", "--values", "0.0"],
    }[command]
    assert main(argv + ["--data", str(data)]) == 2
    assert capsys.readouterr().err == f"error: {path}: sample id {repeated!r} is listed more than once\n"
    assert tree_digest(data) == before
    assert not out.exists()


NEGATIVE_SEEDS = {
    "synth": ["synth", "--seed", "-3"],
    "annotate": ["annotate", "--seed", "-2"],
    "train": ["train", "--seed", "-1"],
    "sweep": ["sweep", "--seed", "-1", "--parameter", "lambda_cv", "--values", "0.0"],
    "gradcheck": ["gradcheck", "--seed", "-1", "--trials", "1", "--end-to-end-trials", "1"],
}


@pytest.mark.parametrize("command", sorted(NEGATIVE_SEEDS))
def test_negative_seed_exits_2_and_writes_nothing(dataset, tmp_path, capsys, command):
    argv = list(NEGATIVE_SEEDS[command])
    if command in ("annotate", "train", "sweep"):
        argv += ["--data", str(dataset)]
    out = tmp_path / "out"
    if command in ("synth", "train", "sweep"):
        argv += ["--out", str(out)]
    before = tree_digest(dataset)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: seed must be nonnegative")
    assert not out.exists()
    assert tree_digest(dataset) == before


@pytest.mark.parametrize("flag", ["--trials", "--end-to-end-trials"])
def test_gradcheck_with_no_instances_exits_2(capsys, flag):
    assert main(["gradcheck", flag, "0"]) == 2
    out, err = capsys.readouterr()
    assert "overall" not in out
    assert err.startswith("error: ") and "must be at least 1" in err


@pytest.mark.parametrize("command", ["annotate", "train", "eval", "sweep"])
def test_commands_read_each_dataset_json_file_once(dataset, trained, tmp_path, monkeypatch,
                                                   command):
    data = dataset
    if command == "annotate":  # annotate rewrites its dataset, so it gets a copy
        data = tmp_path / "data"
        shutil.copytree(dataset, data)
    calls = []
    read = pointseg.data.read_json_object

    def counting(path):
        calls.append(os.path.basename(path))
        return read(path)

    monkeypatch.setattr(pointseg.data, "read_json_object", counting)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**TINY_TRAIN, "total_iterations": 1}))
    argv = {
        "annotate": ["annotate", "--seed", "0"],
        "train": ["train", "--config", str(cfg), "--out", str(tmp_path / "run")],
        "eval": ["eval", "--checkpoint", str(trained / "checkpoint_final.bin"),
                 "--out", str(tmp_path / "eval")],
        "sweep": ["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep"),
                  "--parameter", "lambda_cv", "--values", "0.0"],
    }[command]
    assert main(argv + ["--data", str(data)]) == 0
    expected = ["manifest.json"] if command == "annotate" else ["annotations.json", "manifest.json"]
    assert sorted(calls) == expected
    if command == "annotate":  # seed 0 as in the fixture: the same points for all samples
        assert (data / "annotations.json").read_bytes() == (dataset / "annotations.json").read_bytes()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_config_flags_are_one_per_train_config_field(command):
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    actions = subparsers.choices[command]._actions
    names = [f.name for f in dataclasses.fields(TrainConfig)]
    flags = {a.dest: a for a in actions if a.dest in names}
    assert sorted(a.dest for a in actions if a.dest in names) == sorted(names)
    for f in dataclasses.fields(TrainConfig):
        flag = "--" + f.name.replace("_", "-")
        want = [flag, "--no-" + flag[2:]] if f.type == "bool" else [flag]
        assert flags[f.name].option_strings == want
        assert flags[f.name].default is None
    assert flags["mode"].choices == MODES
    assert flags["model_kind"].choices == KINDS


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["train", "--data"]) == 2
    assert main(["no-such-command"]) == 2


def _subprocess_env(**extra):
    """This environment without BLAS thread variables, plus `extra`, importing src."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(extra)
    src = os.path.dirname(os.path.dirname(pointseg.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_import_leaves_the_environment_unchanged():
    env = _subprocess_env(PSCV_THREADS="1")
    imported = subprocess.run(
        [sys.executable, "-c",
         "import os; before = dict(os.environ); import pointseg; print(dict(os.environ) == before)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert imported.returncode == 0, imported.stderr
    assert imported.stdout.strip() == "True"


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
            env=_subprocess_env(OMP_NUM_THREADS=threads), capture_output=True, text=True,
            timeout=600,
        )
        assert run.returncode == 0, run.stderr
        checkpoints.append((out / "checkpoint_final.bin").read_bytes())
    assert checkpoints[0] == checkpoints[1]


def test_version_flag():
    assert main(["--version"]) == 0


def test_annotate_on_a_dataset_of_no_samples_exits_2_and_writes_nothing(tmp_path, capsys):
    root = tmp_path / "data"
    root.mkdir()
    (root / "manifest.json").write_text(json.dumps({"K": 2, "H": 2, "W": 2, "train": [], "test": []}))
    assert main(["annotate", "--data", str(root)]) == 2
    assert capsys.readouterr().err == f"error: {root}: no dataset found\n"
    assert [p.name for p in root.iterdir()] == ["manifest.json"]
