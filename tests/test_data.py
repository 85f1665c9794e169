import dataclasses
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointseg import (
    Image,
    IngestError,
    InvalidConfigError,
    InvalidInputError,
    LabelMask,
    PointAnnotation,
    Sample,
    SynthSpec,
    augment,
    generate_annotations,
    load_manifest,
    load_split,
    read_pgm,
    save_dataset,
    synth_generate,
    write_pgm,
)


def small_spec(**kw):
    base = dict(num_classes=3, height=16, width=16, train_count=4, test_count=2, seed=3)
    base.update(kw)
    return SynthSpec(**base)


# PGM round trips


@given(st.integers(0, 500))
def test_pgm_roundtrip_bit_identity(seed):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 256, size=(5, 7)).astype(np.uint8)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.pgm")
        write_pgm(path, values)
        back, maxval = read_pgm(path)
    assert maxval == 255
    assert np.array_equal(back, values)


def test_pgm_reader_handles_comments_and_whitespace(tmp_path):
    path = tmp_path / "c.pgm"
    payload = bytes([1, 2, 3, 4, 5, 6])
    path.write_bytes(b"P5 # comment\n# another comment\n 3\t2 #w\n255\n" + payload)
    values, maxval = read_pgm(path)
    assert values.shape == (2, 3)
    assert values[1, 2] == 6


def test_pgm_reader_sixteen_bit(tmp_path):
    path = tmp_path / "wide.pgm"
    path.write_bytes(b"P5\n2 1\n1000\n" + (999).to_bytes(2, "big") + (0).to_bytes(2, "big"))
    values, maxval = read_pgm(path)
    assert maxval == 1000
    assert values[0, 0] == 999


@pytest.mark.parametrize("payload", [
    b"P6\n2 2\n255\n" + bytes(4),          # wrong magic
    b"P5\n2 2\n255\n" + bytes(3),          # truncated pixels
    b"P5\n2 2\n255\n" + bytes(5),          # trailing bytes
    b"P5\n2 2\n70000\n" + bytes(8),        # maxval out of range
    b"P5\n2\n255\n" + bytes(4),            # missing dimension
    b"P5\n2 2\n100\n" + bytes([0, 50, 100, 204]),  # pixel above maxval
])
def test_pgm_reader_rejects_malformed_named_file(tmp_path, payload):
    path = tmp_path / "bad.pgm"
    path.write_bytes(payload)
    with pytest.raises(IngestError) as err:
        read_pgm(path)
    assert "bad.pgm" in str(err.value)


# synthetic generation


def test_synth_default_counts_and_shapes():
    spec = SynthSpec()
    train, test, manifest = synth_generate(spec)
    assert (len(train), len(test)) == (40, 10)
    assert manifest["K"] == 3 and manifest["H"] == 64 and manifest["W"] == 64
    assert train[0].image.intensities.shape == (64, 64)


def test_synth_deterministic():
    a_train, a_test, _ = synth_generate(small_spec())
    b_train, b_test, _ = synth_generate(small_spec())
    for a, b in zip(a_train + a_test, b_train + b_test):
        assert a.id == b.id
        assert np.array_equal(a.image.intensities, b.image.intensities)
        assert np.array_equal(a.mask.classes, b.mask.classes)


def test_synth_noise_free_jitter_free_images_identical():
    spec = small_spec(noise_sigma=0.0, jitter=0.0, intensity_means=(0.2, 0.5, 0.8))
    train, _, _ = synth_generate(spec)
    first = train[0]
    for s in train[1:]:
        assert np.array_equal(s.image.intensities, first.image.intensities)
        assert np.array_equal(s.mask.classes, first.mask.classes)
    # piecewise constant: only the configured intensities appear
    levels = np.unique(first.image.intensities)
    assert len(levels) == 3


def test_synth_ellipse_center_has_its_class():
    spec = small_spec(noise_sigma=0.0, jitter=0.0, intensity_means=(0.2, 0.5, 0.8))
    train, _, _ = synth_generate(spec)
    mask = train[0].mask.classes
    for k, (fr, fc) in enumerate(spec.anchors, start=1):
        r, c = int(round(fr * (spec.height - 1))), int(round(fc * (spec.width - 1)))
        assert mask[r, c] == k


def test_synth_threshold_oracle_recovers_masks():
    train, test, _ = synth_generate(SynthSpec())  # K=3, 64x64, sigma=0.05
    cuts = (0.35, 0.65)  # midpoints of (0.2, 0.5, 0.8)
    agree = total = 0
    for s in train + test:
        guess = np.digitize(s.image.intensities, cuts)
        agree += int((guess == s.mask.classes).sum())
        total += s.mask.classes.size
    assert agree / total >= 0.99


def test_synth_rejects_colliding_means():
    with pytest.raises(InvalidConfigError):
        small_spec(intensity_means=(0.2, 0.24, 0.8), noise_sigma=0.05)


@pytest.mark.parametrize("anchor", [1, (0.5,), (0.5, 0.5, 0.5), ("a", 0.5), (0.5, None), (True, 0.5)],
                         ids=repr)
def test_synth_rejects_malformed_anchor(anchor):
    with pytest.raises(InvalidConfigError, match="must be a \\(row, col\\) pair"):
        small_spec(num_classes=2, anchors=(anchor,), intensity_means=(0.2, 0.8))


# annotations


def test_annotations_single_pixel_class_forced():
    classes = np.zeros((4, 4), dtype=np.int64)
    classes[2, 3] = 1
    sample = Sample("s0", Image(np.zeros((4, 4))), LabelMask(classes, 2))
    (out,) = generate_annotations([sample], seed=0)
    assert (2, 3, 1) in out.annotation.points


def test_annotations_deterministic_and_consistent():
    train, _, _ = synth_generate(small_spec())
    a = generate_annotations(train, seed=9)
    b = generate_annotations(train, seed=9)
    for s, t in zip(a, b):
        assert s.annotation.points == t.annotation.points
        for r, c, k in s.annotation.points:
            assert s.mask.classes[r, c] == k
        present = sorted(int(v) for v in np.unique(s.mask.classes))
        assert sorted(k for _, _, k in s.annotation.points) == present


def test_annotations_missing_mask_rejected():
    with pytest.raises(InvalidInputError):
        generate_annotations([Sample("s", Image(np.zeros((2, 2))))], seed=0)


def test_annotation_two_pixel_uniformity():
    classes = np.zeros((1, 4), dtype=np.int64)
    classes[0, 1] = classes[0, 2] = 1   # class 1 occupies exactly two pixels
    image = Image(np.zeros((1, 4)))
    counts = {1: 0, 2: 0}
    for i in range(10_000):
        sample = Sample(f"s{i}", image, LabelMask(classes, 2))
        (out,) = generate_annotations([sample], seed=0)
        col = [c for _, c, k in out.annotation.points if k == 1][0]
        counts[col] += 1
    share = counts[1] / 10_000
    assert 0.48 <= share <= 0.52


# augmentation


def annotated_sample():
    rng = np.random.default_rng(4)
    classes = rng.integers(0, 2, size=(4, 4)).astype(np.int64)
    classes[1, 2] = 1
    classes[0, 0] = 0
    sample = Sample("a0", Image(rng.random((4, 4))), LabelMask(classes, 2))
    return generate_annotations([sample], seed=1)[0]


def assert_valid_as_built(out):
    """augment skips validation: rebuilding its output through the public
    constructors must pass and change no array, dtype or point."""
    again = Sample(
        out.id,
        Image(out.image.intensities),
        LabelMask(out.mask.classes, out.mask.num_classes),
        PointAnnotation(out.annotation.points, out.annotation.num_classes),
    )
    for built, checked in ((out.image.intensities, again.image.intensities),
                           (out.mask.classes, again.mask.classes)):
        assert built.flags.c_contiguous
        assert built.dtype == checked.dtype
        assert np.array_equal(built, checked)
    assert again.annotation.points == out.annotation.points
    assert all(type(v) is int for point in out.annotation.points for v in point)


def test_augment_requires_annotation():
    bare = Sample("b", Image(np.zeros((4, 4))))
    with pytest.raises(InvalidInputError):
        augment(bare, seed=0, iteration=0)


def test_augment_deterministic():
    s = annotated_sample()
    a = augment(s, seed=3, iteration=7)
    b = augment(s, seed=3, iteration=7)
    assert np.array_equal(a.image.intensities, b.image.intensities)
    assert a.annotation.points == b.annotation.points


def test_augment_identity_outcome_exists():
    s = annotated_sample()
    for it in range(200):
        out = augment(s, seed=11, iteration=it)
        if np.array_equal(out.image.intensities, s.image.intensities) and \
           out.annotation.points == s.annotation.points:
            return
    raise AssertionError("no identity draw in 200 outcomes")


def test_augment_quarter_turn_point_map():
    # one counter-clockwise quarter turn sends (row, col) to (W-1-col, row)
    classes = np.zeros((4, 4), dtype=np.int64)
    classes[1, 2] = 1
    image_values = np.zeros((4, 4))
    image_values[1, 2] = 1.0
    sample = Sample("q", Image(image_values), LabelMask(classes, 2),
                    PointAnnotation(((1, 2, 1), (0, 0, 0)), 2))
    for it in range(300):
        out = augment(sample, seed=2, iteration=it)
        rotated = np.rot90(image_values, 1)
        if np.array_equal(out.image.intensities, rotated):
            assert (1, 1, 1) in out.annotation.points
            return
    raise AssertionError("no pure quarter-turn draw in 300 outcomes")


@given(st.integers(0, 400))
def test_augment_mask_agrees_at_transformed_points(it):
    s = annotated_sample()
    out = augment(s, seed=5, iteration=it)
    assert_valid_as_built(out)
    for r, c, k in out.annotation.points:
        assert out.mask.classes[r, c] == k


def test_augment_nonsquare_only_half_turns():
    rng = np.random.default_rng(0)
    classes = rng.integers(0, 2, size=(2, 4)).astype(np.int64)
    sample = generate_annotations(
        [Sample("r", Image(rng.random((2, 4))), LabelMask(classes, 2))], seed=0)[0]
    for it in range(100):
        out = augment(sample, seed=1, iteration=it)
        assert out.image.intensities.shape == (2, 4)  # shape never transposes
        assert_valid_as_built(out)


# dataset round trips


def test_dataset_roundtrip_bit_identity(tmp_path):
    spec = small_spec()
    train, test, _ = synth_generate(spec)
    train = generate_annotations(train, seed=1)
    test = generate_annotations(test, seed=1)
    root = tmp_path / "ds"
    save_dataset(root, train, test, spec.num_classes)

    back_train = load_split(root, "train")
    back_test = load_split(root, "test")
    for orig, back in zip(train + test, back_train + back_test):
        assert back.id == orig.id
        # images were quantized to 255 levels at generation time, so the
        # normalized round trip is exact
        assert np.array_equal(back.image.intensities, orig.image.intensities)
        assert np.array_equal(back.mask.classes, orig.mask.classes)
        assert back.annotation.points == orig.annotation.points

    save_dataset(tmp_path / "ds2", back_train, back_test, spec.num_classes)
    for name in ("manifest.json", "annotations.json"):
        assert (tmp_path / "ds" / name).read_bytes() == (tmp_path / "ds2" / name).read_bytes()


def test_save_dataset_removes_supervision_it_does_not_write(tmp_path):
    spec = small_spec()
    train, test, _ = synth_generate(spec)
    root = tmp_path / "ds"
    save_dataset(root, generate_annotations(train, seed=1), test, spec.num_classes)
    assert (root / "annotations.json").exists()
    bare = [dataclasses.replace(s, mask=None) for s in train]
    save_dataset(root, bare, test, spec.num_classes)
    assert not (root / "annotations.json").exists()
    assert sorted(p.stem for p in (root / "masks").iterdir()) == [s.id for s in test]
    assert all(s.mask is None and s.annotation is None for s in load_split(root, "train"))


def test_load_dataset_images_without_manifest(tmp_path):
    os.makedirs(tmp_path / "orphan" / "images")
    with pytest.raises(IngestError, match="manifest.json"):
        load_split(tmp_path / "orphan", "train")


def test_mask_id_out_of_range_is_ingest_error(tmp_path):
    spec = small_spec()
    train, test, _ = synth_generate(spec)
    root = tmp_path / "ds"
    save_dataset(root, train, test, spec.num_classes)
    victim = root / "masks" / f"{train[0].id}.pgm"
    values, _ = read_pgm(victim)
    values[0, 0] = spec.num_classes  # out of range
    write_pgm(victim, values)
    with pytest.raises(IngestError) as err:
        load_split(root, "train")
    assert train[0].id in str(err.value)


def test_manifest_rejects_missing_keys(tmp_path):
    root = tmp_path / "ds"
    os.makedirs(root)
    (root / "manifest.json").write_text(json.dumps({"K": 3, "H": 8, "W": 8}))
    with pytest.raises(IngestError):
        load_manifest(root)


def _saved_annotated(tmp_path):
    spec = small_spec()
    train, test, _ = synth_generate(spec)
    root = tmp_path / "ds"
    save_dataset(root, generate_annotations(train, seed=0), test, spec.num_classes)
    return root, train[0].id


def _rewrite_json(path, edit):
    value = json.loads(path.read_text())
    path.write_text(json.dumps(edit(value)))


@pytest.mark.parametrize("point", [
    {"row": 1, "col": 2},                  # no class
    {"row": "x", "col": 2, "class": 0},    # non-integer row
    [1, 2, 0],                             # not an object
])
def test_malformed_annotation_point_is_ingest_error(tmp_path, point):
    root, victim = _saved_annotated(tmp_path)

    def edit(annotations):
        annotations[victim][0] = point
        return annotations

    _rewrite_json(root / "annotations.json", edit)
    with pytest.raises(IngestError) as err:
        load_split(root, "train")
    assert "annotations.json" in str(err.value)
    assert victim in str(err.value)


def test_annotations_file_must_hold_an_object(tmp_path):
    root, _ = _saved_annotated(tmp_path)
    _rewrite_json(root / "annotations.json", lambda annotations: list(annotations.items()))
    with pytest.raises(IngestError, match="annotations.json"):
        load_split(root, "train")


@pytest.mark.parametrize("key, value", [("W", "x"), ("K", 0), ("H", True), ("train", "train000")])
def test_manifest_rejects_malformed_values(tmp_path, key, value):
    root, _ = _saved_annotated(tmp_path)
    _rewrite_json(root / "manifest.json", lambda manifest: dict(manifest, **{key: value}))
    with pytest.raises(IngestError, match="manifest.json"):
        load_manifest(root)
