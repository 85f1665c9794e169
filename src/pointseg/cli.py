"""Command-line entry point: synthesis, annotation, training, evaluation,
gradient checking, and hyperparameter sweeps.

Exit codes: 0 success, 1 verification failure, 2 usage or config error,
3 numerical divergence. Every artifact lands under the command's --out
directory. The run manifest is written before training starts and is the
only artifact carrying a timestamp, so identical inputs and seeds reproduce
every other output byte for byte.

Training config is a JSON object whose keys match TrainConfig fields; each
field also has a --kebab-case flag, and flags override file values. A
previously written run manifest is also accepted as --config, which reruns the
training it describes.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .data import (
    SynthSpec,
    _load_splits,
    dump_json,
    load_split,
    read_json_object,
    save_dataset,
    synth_generate,
    generate_annotations,
    write_annotations,
    write_pgm,
)
from .errors import (
    InvalidConfigError,
    InvalidInputError,
    PointsegError,
    TrainingDivergenceError,
)
from .gradcheck import run_all
from .grids import softmax
from .metrics import check_central_bias_width, evaluate, hard_mask
from .models import forward, load_checkpoint
from .train import TrainConfig, check_training_samples, history_to_csv, train_loop

_SWEEP_PARAMETERS = ("lambda_cv", "tau", "mu", "lr0")

# Foreground palette for composite overlays; class 0 stays grayscale.
_PALETTE = (
    (230, 25, 75), (60, 180, 75), (255, 225, 25), (0, 130, 200),
    (245, 130, 48), (145, 30, 180), (70, 240, 240), (240, 50, 230),
)


def _comma_separated(kind, rule: str):
    """An argparse type reading a tuple of `kind`; `rule` leads its error."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(part) for part in text.split(","))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{rule}: {text!r}") from exc
    return parse


def _tuples(value):
    return tuple(_tuples(v) for v in value) if isinstance(value, list) else value


def _from_json(cls, raw: dict, overrides: dict, what: str, path=None):
    """`cls` from the fields of a JSON object read from `path`, flags on top.

    JSON arrays become the tuples the frozen dataclasses hold. Unknown keys
    are config errors, and so is a value of the wrong type, which the class's
    domain check raises as a TypeError; null stands for a default of None.
    An error that the keys no flag overrides make alone starts with the
    file's path; any other keeps the message it gets without a file.
    """
    def build(values):
        try:
            return cls(**{key: _tuples(value) for key, value in values.items()})
        except TypeError as exc:
            raise InvalidConfigError(f"bad {what} value: {exc}") from exc

    where = f"{path}: " if path else ""
    unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise InvalidConfigError(f"{where}unknown {what} keys: {', '.join(unknown)}")
    try:
        return build({**raw, **overrides})
    except InvalidConfigError:
        try:
            build({key: value for key, value in raw.items() if key not in overrides})
        except InvalidConfigError as exc:
            raise InvalidConfigError(f"{where}{exc}") from exc
        raise


def _resolve_train_config(args) -> TrainConfig:
    raw = read_json_object(args.config) if args.config else {}
    if isinstance(raw.get("config"), dict):  # a run manifest reruns its config
        raw = raw["config"]
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(TrainConfig)
                 if getattr(args, f.name, None) is not None}
    return _from_json(TrainConfig, raw, overrides, "config", args.config)


# argparse types per declared field type; bools become --x/--no-x pairs.
_FLAG_TYPES = {"float": float, "int": int, "str": str,
               "tuple": _comma_separated(int, "channels must be comma-separated integers")}


def _add_config_flags(sub):
    """One --kebab-name flag per TrainConfig field; unset flags stay None."""
    for f in dataclasses.fields(TrainConfig):
        kind = ({"action": argparse.BooleanOptionalAction} if f.type == "bool"
                else {"type": _FLAG_TYPES[f.type], "choices": f.metadata["choices"]})
        sub.add_argument("--" + f.name.replace("_", "-"), dest=f.name, default=None, **kind)


def _openblas_call(name, restype):
    """The result of a no-argument query to numpy's bundled OpenBLAS, or None
    when that library or the query is missing."""
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "libscipy_openblas64_*"))
    try:
        query = getattr(ctypes.CDLL(libs[0]), name)
    except (IndexError, OSError, AttributeError):
        return None
    query.restype = restype
    return query()


def blas_core() -> str:
    """The kernel name of numpy's bundled OpenBLAS in this process ("SkylakeX",
    "Haswell", ...), or "unknown". The conv and cosine matmuls' last bits
    depend on it, so values pinned on one kernel name it in their failure
    message."""
    core = _openblas_call("scipy_openblas_get_corename64_", ctypes.c_char_p)
    return "unknown" if core is None else core.decode()


def _write_run_manifest(out_dir, config: TrainConfig, dataset_root) -> None:
    """The reproducibility record, written before a training run starts. Its
    "numerics" entry names what the artifacts' bytes depend on beyond the
    config: numpy's version, its OpenBLAS kernel and that library's thread
    count (None where the library cannot be queried)."""
    manifest = {
        "config": dataclasses.asdict(config),
        "dataset_root": str(dataset_root),
        "out_dir": str(out_dir),
        "seed": config.seed,
        "artifacts": {
            "final_checkpoint": "checkpoint_final.bin",
            "history_csv": "history.csv",
            "eval_json": "eval.json",
        },
        "tool_version": __version__,
        "numerics": {
            "numpy": np.__version__,
            "openblas_core": blas_core(),
            "blas_threads": _openblas_call("scipy_openblas_get_num_threads64_", ctypes.c_int),
        },
        "created": datetime.now(timezone.utc).isoformat(),
    }
    dump_json(manifest, os.path.join(out_dir, "run_manifest.json"))


def _train_once(samples, config: TrainConfig, out_dir, dataset_root):
    os.makedirs(out_dir, exist_ok=True)
    _write_run_manifest(out_dir, config, dataset_root)
    state = train_loop(samples, config, checkpoint_dir=out_dir)
    with open(os.path.join(out_dir, "history.csv"), "w", encoding="utf-8") as fh:
        fh.write(history_to_csv(state.history))
    return state


def _check_evaluation_samples(samples, split: str) -> None:
    """Reject a split evaluation cannot score; callers run it before writing."""
    if not samples:
        raise InvalidInputError(f"the {split} split is empty: nothing to evaluate")
    for s in samples:
        if s.mask is None:
            raise InvalidInputError(f"sample {s.id}: evaluation needs a ground-truth mask")


def _evaluate_params(params, samples, central_bias_width: int):
    preds = [hard_mask(softmax(forward(params, params.spec, s.image, s.id)[0])) for s in samples]
    report = evaluate(preds, [s.mask for s in samples], central_bias_width)
    return preds, report


def _composite(image, mask) -> np.ndarray:
    gray = np.rint(np.clip(image.intensities, 0.0, 1.0) * 255.0)
    rgb = np.repeat(gray[:, :, None], 3, axis=2)
    for k in range(1, mask.num_classes):
        region = mask.classes == k
        if region.any():
            color = np.array(_PALETTE[(k - 1) % len(_PALETTE)], dtype=np.float64)
            rgb[region] = 0.5 * rgb[region] + 0.5 * color
    return np.rint(rgb).astype(np.uint8)


def _write_predictions(out_dir, samples, preds, composite: bool) -> None:
    pred_dir = os.path.join(out_dir, "predictions")
    os.makedirs(pred_dir, exist_ok=True)
    for s, mask in zip(samples, preds):
        write_pgm(os.path.join(pred_dir, f"{s.id}.pgm"), mask.classes)
        if composite:
            H, W = mask.classes.shape
            with open(os.path.join(pred_dir, f"{s.id}_overlay.ppm"), "wb") as fh:
                fh.write(f"P6\n{W} {H}\n255\n".encode("ascii"))
                fh.write(_composite(s.image, mask).tobytes())


def cmd_synth(args) -> int:
    raw = read_json_object(args.spec) if args.spec else {}
    overrides = {} if args.seed is None else {"seed": args.seed}
    spec = _from_json(SynthSpec, raw, overrides, "spec", args.spec)
    train, test, _ = synth_generate(spec)
    save_dataset(args.out, train, test, spec.num_classes)
    print(f"wrote {len(train)} train + {len(test)} test images "
          f"(K={spec.num_classes}, {spec.height}x{spec.width}) to {args.out}")
    return 0


def cmd_annotate(args) -> int:
    _, train, test = _load_splits(args.data, "train", "test", annotated=False)
    samples = train + test
    if not samples:
        raise InvalidInputError(f"{args.data}: no dataset found")
    annotated = generate_annotations(samples, args.seed)
    write_annotations(args.data, annotated)
    print(f"annotated {len(annotated)} samples (seed {args.seed})")
    return 0


def cmd_train(args) -> int:
    config = _resolve_train_config(args)
    samples = load_split(args.data, "train")
    check_training_samples(samples, config)
    state = _train_once(samples, config, args.out, args.data)
    if state.history:
        last = state.history[-1]
        print(f"finished {len(state.history)} iterations; final total loss {last[6]:.6f}")
    else:
        print("finished 0 iterations; checkpoint equals initialization")
    print(f"artifacts in {args.out}")
    return 0


def cmd_eval(args) -> int:
    manifest, samples = _load_splits(args.data, args.split)
    _check_evaluation_samples(samples, args.split)
    check_central_bias_width(args.central_bias_width, manifest["W"])
    params = load_checkpoint(args.checkpoint, height=manifest["H"], width=manifest["W"])
    spec = params.spec
    if spec.num_classes != manifest["K"]:
        raise InvalidInputError(
            f"checkpoint has {spec.num_classes} classes, dataset has {manifest['K']}")
    if (spec.height, spec.width) != (manifest["H"], manifest["W"]):
        raise InvalidInputError(
            f"checkpoint grid {spec.height}x{spec.width} does not match dataset "
            f"{manifest['H']}x{manifest['W']}")
    if spec.kind == "logit-field" and not {s.id for s in samples} <= set(spec.image_ids):
        raise InvalidInputError(
            f"logit-field checkpoint has no fields for the {args.split} split: a logit "
            "field scores only the train images it was fit on (--split train)")
    preds, report = _evaluate_params(params, samples, args.central_bias_width)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "eval.json"), "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    _write_predictions(args.out, samples, preds, args.composite)
    print(report.format_table())
    return 0


def cmd_gradcheck(args) -> int:
    for name in ("trials", "end_to_end_trials"):
        if getattr(args, name) < 1:
            raise InvalidConfigError(f"{name} must be at least 1, got {getattr(args, name)}")
    report = run_all(seed=args.seed, trials=args.trials,
                     end_to_end_trials=args.end_to_end_trials)
    print(report.format_table())
    if not report.passed:
        for c in report.components:
            if not c.passed:
                print(f"FAIL {c.name}: trial {c.worst_seed}, "
                      f"coordinate {c.worst_coordinate}, "
                      f"rel err {c.worst_rel_err:.3e}", file=sys.stderr)
        return 1
    return 0


def cmd_sweep(args) -> int:
    base = _resolve_train_config(args)
    if base.model_kind == "logit-field":
        raise InvalidConfigError(
            "model_kind logit-field cannot be swept: sweep scores every run on the "
            "test split, and a logit field fits only the train images")
    configs = [dataclasses.replace(base, **{args.parameter: value}) for value in args.values]
    manifest, train_samples, eval_samples = _load_splits(args.data, "train", "test")
    check_training_samples(train_samples, base)
    _check_evaluation_samples(eval_samples, "test")
    check_central_bias_width(base.central_bias_width, manifest["W"])
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for i, (value, config) in enumerate(zip(args.values, configs)):
        run_dir = os.path.join(args.out, f"run_{i:03d}_{args.parameter}_{value:g}")
        state = _train_once(train_samples, config, run_dir, args.data)
        preds, report = _evaluate_params(
            state.params, eval_samples, config.central_bias_width)
        with open(os.path.join(run_dir, "eval.json"), "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        rows.append((value, report.dsc_average, report.hd95_average))
        print(f"{args.parameter}={value:g}: DSC {report.dsc_average:.4f}, "
              f"HD95 {report.hd95_average:.4f}")
    for name, header, sep in (("sweep.csv", "value,dsc_avg,hd95_avg", ","),
                              ("sweep.dat", f"# {args.parameter} dsc_avg hd95_avg", " ")):
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
            fh.write(header + "\n" + "".join(sep.join(map(repr, row)) + "\n" for row in rows))
    print(f"sweep artifacts in {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointseg",
        description="Point-supervised segmentation: synthesize, train, evaluate.",
    )
    parser.add_argument("--version", action="version", version=f"pointseg {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--spec", help="SynthSpec JSON file (defaults when omitted)")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.add_argument("--out", required=True, help="dataset root to write")
    p.set_defaults(func=cmd_synth)

    p = commands.add_parser("annotate", help="draw one point per present class")
    p.add_argument("--data", required=True, help="dataset root")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_annotate)

    p = commands.add_parser("train", help="train a model on the train split")
    p.add_argument("--config", help="TrainConfig JSON (or a previous run manifest)")
    p.add_argument("--data", required=True, help="dataset root")
    p.add_argument("--out", required=True, help="output directory")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = commands.add_parser("eval", help="evaluate a checkpoint against dense masks")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset root")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.add_argument("--central-bias-width", type=int, default=0,
                   dest="central_bias_width",
                   help="reassign this many left/right columns to background")
    p.add_argument("--composite", action="store_true",
                   help="also write color overlay PPMs")
    p.set_defaults(func=cmd_eval)

    p = commands.add_parser("gradcheck", help="verify analytic gradients")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=50, help="instances per component")
    p.add_argument("--end-to-end-trials", type=int, default=4,
                   dest="end_to_end_trials")
    p.set_defaults(func=cmd_gradcheck)

    p = commands.add_parser("sweep", help="train and evaluate across one parameter")
    p.add_argument("--config", help="base TrainConfig JSON")
    p.add_argument("--data", required=True, help="dataset root")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--parameter", required=True, choices=_SWEEP_PARAMETERS)
    p.add_argument("--values", required=True,
                   type=_comma_separated(float, "values must be comma-separated numbers"),
                   help="comma-separated values, swept in order")
    _add_config_flags(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except TrainingDivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    except (PointsegError, OSError) as exc:  # an OSError's message names its path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
