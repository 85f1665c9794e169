"""Every config field declares its domain, and the CLI rejects any value
outside it with exit 2, one `error:` line naming the file and the field, and
no --out."""

import contextlib
import dataclasses
import io
import json
import math
import re
import shutil

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pointseg import LossSettings, ModelSpec, SynthSpec, TrainConfig
from pointseg.cli import main

CONFIG_CLASSES = (LossSettings, TrainConfig, SynthSpec, ModelSpec)

# Small valid bases: one bad field on top of either fails before any work.
BASE = {
    "synth": {"num_classes": 2, "height": 8, "width": 8, "anchors": [[0.5, 0.5]],
              "intensity_means": [0.2, 0.8], "train_count": 2, "test_count": 1},
    "train": {"mode": "pce", "channels": [2, 2, 3, 2], "total_iterations": 1,
              "batch_size": 2, "augment": False},
}
FIELDS = ([("synth", f) for f in dataclasses.fields(SynthSpec)]
          + [("train", f) for f in dataclasses.fields(TrainConfig)])


@pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda c: c.__name__)
def test_every_config_field_declares_its_domain(cls):
    undeclared = [f.name for f in dataclasses.fields(cls)
                  if not {"interval", "choices"} <= set(f.metadata)]
    assert undeclared == []


def _leaves(value):
    return [x for item in value for x in _leaves(item)] if isinstance(value, list) else [value]


def _first_replaced(value, x):
    """A copy of `value` whose first number is x: [[x, b], ...] or [x, ...]."""
    value = json.loads(json.dumps(value))
    inner = value[0] if isinstance(value[0], list) else value
    inner[0] = x
    return value


def _outside(command, f):
    """A strategy for values that the field's type, interval or choices reject."""
    kind, interval, choices = f.type, f.metadata["interval"], f.metadata["choices"]
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    wrong = ["x", {}, 1.5 if kind == "tuple" else [1.0]] + ([] if f.default is None else [None])
    wrong += [1, 0, 2.5] if kind == "bool" else [True, False]
    if kind in ("bool", "str"):
        return st.sampled_from(wrong) | st.text(max_size=8).filter(lambda s: s not in (choices or ()))
    numbers = st.sampled_from([math.nan, math.inf, -math.inf])
    if kind == "int":  # any float, or an int below the interval
        numbers |= st.floats() | st.integers(-10**6, int(lo) - (interval[0] == "["))
    if kind != "int" and lo > -math.inf:
        numbers |= st.just(lo if interval[0] == "(" else lo - 1)
        numbers |= st.floats(-1e6, lo, exclude_max=interval[0] == "[")
    if kind != "int" and hi < math.inf:
        numbers |= st.floats(hi, 1e6, exclude_min=interval[-1] == "]")
    if kind == "tuple":  # a bad number inside an otherwise valid value
        valid = BASE[command].get(f.name, f.default)
        numbers = numbers.map(lambda x: _first_replaced(valid, x))
    return st.sampled_from(wrong) | numbers


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("domains")


def _run(scratch, command, key, value):
    """main's exit code and stderr for the base with key set to value, and
    whether --out exists."""
    path, out = scratch / "in.json", scratch / "out"
    path.write_text(json.dumps({**BASE[command], key: value}))
    flag = "--spec" if command == "synth" else "--config"
    argv = [command, flag, str(path), "--out", str(out), "--data", str(scratch / "none")]
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv if command == "train" else argv[:-2])
    wrote = out.exists()
    shutil.rmtree(out, ignore_errors=True)  # so one failure cannot fail other fields
    return code, err.getvalue(), wrote


@pytest.mark.parametrize("command, f", FIELDS, ids=[f"{c}-{f.name}" for c, f in FIELDS])
@given(data=st.data())
def test_out_of_domain_value_exits_2_naming_the_field(scratch, command, f, data):
    value = data.draw(_outside(command, f), label=f.name)
    code, err, wrote = _run(scratch, command, f.name, value)
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert code == 2 and not wrote
    assert len(errors) == 1, errors
    where = f"error: {scratch / 'in.json'}: "
    assert re.match(rf"{re.escape(where)}(bad (config|spec) value: )?{f.name} must ", errors[0]), errors
    if f.type in ("float", "tuple") and any(
            isinstance(x, float) and not math.isfinite(x) for x in _leaves(value)):
        assert errors[0].startswith(f"{where}{f.name} must be finite"), errors


@pytest.mark.parametrize("key, value", [
    ("anchors", [[math.nan, 0.35]]),
    ("anchors", [[5.0, 5.0]]),
    ("noise_sigma", math.nan),
], ids=["nan-anchor", "anchor-outside-grid", "nan-noise"])
def test_synth_spec_out_of_domain_exits_2(tmp_path, capsys, key, value):
    # Each of these used to write a dataset: no class-1 pixel, or no noise.
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**BASE["synth"], key: value}))
    out = tmp_path / "out"
    assert main(["synth", "--spec", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {key} must ") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("cls, values", [
    (TrainConfig, {"total_iterations": 2.5}),
    (TrainConfig, {"batch_size": True}),
    (SynthSpec, {"train_count": 2.5}),
], ids=["total_iterations=2.5", "batch_size=True", "train_count=2.5"])
def test_python_constructors_reject_a_wrong_type(cls, values):
    (name,) = values
    with pytest.raises(TypeError, match=f"{name} must be int"):
        cls(**values)
