"""Dataset plumbing: NetPBM P5 files, point annotations, augmentation, synthesis.

Disk layout of a dataset root:

    root/images/<id>.pgm        grayscale image, maxval 255
    root/masks/<id>.pgm         dense label mask, pixel value = class id
    root/annotations.json       {id: [{"row": r, "col": c, "class": k}, ...]}
    root/manifest.json          {"K": ..., "H": ..., "W": ..., "train": [...], "test": [...]}

Images normalize to [0, 1] by dividing by the PGM maxval. The synthetic
generator quantizes intensities to k/255 before returning them, so a
generated sample and its written-then-reloaded copy are bit-identical.

The generator's spatial prior: each foreground class is one filled ellipse
whose center sits at a class-specific anchor plus a small per-image jitter.
Ellipse axes are drawn once per class for the whole dataset, so with zero
jitter and zero noise every image of a split is identical.
"""

from __future__ import annotations

import itertools
import json
import numbers
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import IngestError, InvalidConfigError, InvalidInputError
from .grids import Image, _trusted
from .losses import PointAnnotation, check_domains, domain
from .seeding import keyed_rng


@dataclass(frozen=True)
class LabelMask:
    """Dense per-pixel class ids in [0, num_classes)."""

    classes: np.ndarray  # (H, W) integer
    num_classes: int

    def __post_init__(self):
        arr = np.asarray(self.classes)
        if arr.ndim != 2 or not np.issubdtype(arr.dtype, np.integer):
            raise InvalidInputError("mask must be a 2-d integer grid")
        if arr.size and (arr.min() < 0 or arr.max() >= self.num_classes):
            raise InvalidInputError(
                f"mask ids must lie in [0, {self.num_classes}), found "
                f"[{arr.min()}, {arr.max()}]"
            )
        object.__setattr__(self, "classes", arr.astype(np.int64))


@dataclass(frozen=True)
class Sample:
    """One dataset item: image plus optional dense mask and point annotation."""

    id: str
    image: Image
    mask: LabelMask = None
    annotation: PointAnnotation = None

    def __post_init__(self):
        H, W = self.image.intensities.shape
        if self.mask is not None and self.mask.classes.shape != (H, W):
            raise InvalidInputError(f"sample {self.id}: mask shape differs from image")
        if self.annotation is not None:
            for r, c, k in self.annotation.points:
                if not (0 <= r < H and 0 <= c < W):
                    raise InvalidInputError(
                        f"sample {self.id}: annotated pixel ({r}, {c}) outside {H}x{W}"
                    )
                if self.mask is not None and int(self.mask.classes[r, c]) != k:
                    raise InvalidInputError(
                        f"sample {self.id}: point ({r}, {c}) labeled {k} but mask says "
                        f"{int(self.mask.classes[r, c])}"
                    )


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for the synthetic ellipse dataset (class 0 is background)."""

    num_classes: int = domain(3, "[2, inf)")
    height: int = domain(64, "[4, inf)")
    width: int = domain(64, "[4, inf)")
    anchors: tuple = domain(((0.35, 0.35), (0.65, 0.65)), "[0, 1]")  # fractional (row, col) per class >= 1
    jitter: float = domain(0.08, "[0, 0.5)")  # center offset bound, fraction of min(H, W)
    radius_range: tuple = domain((0.12, 0.22), "(0, 0.5)")  # ellipse axes, fraction of min(H, W)
    intensity_means: tuple = domain((0.2, 0.5, 0.8), "[0, 1]")
    noise_sigma: float = domain(0.05, "[0, inf)")
    train_count: int = domain(40, "[0, inf)")
    test_count: int = domain(10, "[0, inf)")
    seed: int = domain(0, "[0, inf)")

    def __post_init__(self):
        check_domains(self)
        K = self.num_classes
        if len(self.anchors) != K - 1:
            raise InvalidConfigError(f"need {K - 1} anchors for {K} classes, got {len(self.anchors)}")
        for anchor in self.anchors:
            if not _numbers(anchor, 2):
                raise InvalidConfigError(f"anchor {anchor!r} must be a (row, col) pair of numbers")
        means = self.intensity_means
        if not _numbers(means, K):
            raise InvalidConfigError(f"need {K} intensity means, got {means!r}")
        for a, b in itertools.combinations(means, 2):
            if abs(a - b) < 2 * self.noise_sigma:
                raise InvalidConfigError(f"intensity means {a} and {b} closer than 2 sigma")
        if not (_numbers(self.radius_range, 2) and self.radius_range[0] <= self.radius_range[1]):
            raise InvalidConfigError(f"radius range {self.radius_range} must be (lo, hi) with lo <= hi")


def _numbers(values, n: int) -> bool:
    """Whether `values` is a sequence of n numbers (a bool is not one)."""
    return (isinstance(values, (tuple, list)) and len(values) == n
            and all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in values))


# NetPBM P5 reading and writing, from scratch for bit-exact round trips.

def write_pgm(path, values: np.ndarray) -> None:
    """Write a 2-d integer grid as binary PGM with maxval 255."""
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise InvalidInputError("PGM payload must be 2-d")
    if arr.min() < 0 or arr.max() > 255:
        raise InvalidInputError("pixel values exceed [0, 255]")
    H, W = arr.shape
    header = f"P5\n{W} {H}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + arr.astype(np.uint8).tobytes())


def read_pgm(path):
    """Read a binary PGM; returns (values as int array, maxval)."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IngestError(f"{path}: cannot read ({exc})") from exc

    pos = 0

    def token():
        nonlocal pos
        while pos < len(blob):
            ch = blob[pos : pos + 1]
            if ch == b"#":
                while pos < len(blob) and blob[pos : pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif ch.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise IngestError(f"{path}: truncated PGM header")
        return blob[start:pos]

    if token() != b"P5":
        raise IngestError(f"{path}: not a binary PGM (missing P5 magic)")
    try:
        width, height, maxval = (int(token()) for _ in range(3))
    except ValueError as exc:
        raise IngestError(f"{path}: malformed PGM header") from exc
    if width < 1 or height < 1 or not 1 <= maxval <= 65535:
        raise IngestError(f"{path}: invalid PGM dimensions or maxval")
    pos += 1  # the single whitespace byte after maxval
    bytes_per = 1 if maxval < 256 else 2
    expected = width * height * bytes_per
    data = blob[pos : pos + expected]
    if len(data) != expected:
        raise IngestError(f"{path}: PGM payload truncated")
    if pos + expected != len(blob):
        raise IngestError(f"{path}: trailing bytes after PGM payload")
    dtype = np.uint8 if bytes_per == 1 else ">u2"
    values = np.frombuffer(data, dtype=dtype).reshape(height, width).astype(np.int64)
    if values.max() > maxval:
        raise IngestError(f"{path}: pixel value {values.max()} exceeds maxval {maxval}")
    return values, maxval


def write_annotations(root, samples) -> None:
    """Write annotations.json covering every annotated sample."""
    annotations = {
        s.id: [{"row": r, "col": c, "class": k} for r, c, k in s.annotation.points]
        for s in samples if s.annotation is not None
    }
    dump_json(annotations, os.path.join(root, "annotations.json"))


def _manifest(K: int, H: int, W: int, train, test) -> dict:
    """manifest.json's object for these splits on a K-class H x W grid."""
    return {"K": K, "H": H, "W": W, "train": [s.id for s in train], "test": [s.id for s in test]}


def save_dataset(root, train, test, num_classes: int) -> None:
    """Write samples and metadata in the documented layout, removing the mask
    of a sample without one, and annotations.json when no sample has one."""
    samples = list(train) + list(test)
    if not samples:
        raise InvalidInputError("nothing to save")
    H, W = samples[0].image.intensities.shape
    os.makedirs(os.path.join(root, "images"), exist_ok=True)
    os.makedirs(os.path.join(root, "masks"), exist_ok=True)
    for s in samples:
        quantized = np.rint(np.clip(s.image.intensities, 0.0, 1.0) * 255).astype(np.uint8)
        write_pgm(os.path.join(root, "images", f"{s.id}.pgm"), quantized)
        mask_path = os.path.join(root, "masks", f"{s.id}.pgm")
        if s.mask is not None:
            write_pgm(mask_path, s.mask.classes)
        elif os.path.exists(mask_path):
            os.remove(mask_path)
    if any(s.annotation is not None for s in samples):
        write_annotations(root, samples)
    elif os.path.exists(os.path.join(root, "annotations.json")):
        os.remove(os.path.join(root, "annotations.json"))
    dump_json(_manifest(num_classes, H, W, train, test), os.path.join(root, "manifest.json"))


def dump_json(value, path) -> str:
    """The text of `value` in every JSON artifact's format (two-space indent,
    sorted keys), also written to `path` with one final newline unless None."""
    text = json.dumps(value, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text


def read_json_object(path) -> dict:
    """Parse a JSON file that must hold one object; IngestError names the file otherwise."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            value = json.load(fh)
    except OSError as exc:
        raise IngestError(f"{path}: cannot read ({exc})") from exc
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise IngestError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(value, dict):
        raise IngestError(f"{path}: expected a JSON object, found {type(value).__name__}")
    return value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_manifest(root) -> dict:
    path = os.path.join(root, "manifest.json")
    manifest = read_json_object(path)
    for key in ("K", "H", "W", "train", "test"):
        if key not in manifest:
            raise IngestError(f"{path}: manifest missing key {key!r}")
    for key in ("K", "H", "W"):
        if not _is_int(manifest[key]) or manifest[key] < 1:
            raise IngestError(f"{path}: {key} must be a positive integer, got {manifest[key]!r}")
    listed = set()
    for key in ("train", "test"):
        if not isinstance(manifest[key], list) or not all(isinstance(i, str) for i in manifest[key]):
            raise IngestError(f"{path}: {key} must be a list of sample ids")
        for i in manifest[key]:
            if i in ("", ".", "..") or any(c in i for c in ("/", os.sep, "\0")):
                raise IngestError(f"{path}: sample id {i!r} is not a plain file name")
            if i in listed:
                raise IngestError(f"{path}: sample id {i!r} is listed more than once")
            listed.add(i)
    return manifest


def _load_sample(root, sample_id, manifest, annotations):
    K, H, W = manifest["K"], manifest["H"], manifest["W"]
    image_path = os.path.join(root, "images", f"{sample_id}.pgm")
    values, maxval = read_pgm(image_path)
    if values.shape != (H, W):
        raise IngestError(f"{image_path}: shape {values.shape} does not match manifest {H}x{W}")
    image = Image(values.astype(np.float64) / maxval)

    mask_values = None
    mask_path = os.path.join(root, "masks", f"{sample_id}.pgm")
    if os.path.exists(mask_path):
        mask_values, _ = read_pgm(mask_path)
        if mask_values.shape != (H, W):
            raise IngestError(f"{mask_path}: shape differs from image shape")

    try:
        mask = None if mask_values is None else LabelMask(mask_values, K)
        annotation = None
        if sample_id in annotations:
            annotation = PointAnnotation(annotations[sample_id], K)
        return Sample(sample_id, image, mask, annotation)
    except InvalidInputError as exc:
        raise IngestError(f"{root}: sample {sample_id!r} inconsistent ({exc})") from exc


def _load_annotations(root, sample_ids) -> dict:
    """Sample id -> (row, col, class) tuples; empty when there is no annotations.json.
    Every id must be one of `sample_ids`, the manifest's."""
    path = os.path.join(root, "annotations.json")
    if not os.path.exists(path):
        return {}
    annotations = {}
    for sample_id, points in read_json_object(path).items():
        if sample_id not in sample_ids:
            raise IngestError(f"{path}: sample {sample_id!r} is not in the manifest")
        if not isinstance(points, list):
            raise IngestError(f"{path}: sample {sample_id!r}: points must be a list")
        for p in points:
            if not (isinstance(p, dict) and all(_is_int(p.get(k)) for k in ("row", "col", "class"))):
                raise IngestError(f"{path}: sample {sample_id!r}: point {p!r} needs "
                                  f"integer \"row\", \"col\" and \"class\"")
        annotations[sample_id] = tuple((p["row"], p["col"], p["class"]) for p in points)
    return annotations


def _load_splits(root, *splits, annotated=True):
    """The manifest, then each named split's samples in manifest order.

    manifest.json and annotations.json are each read once, however many
    splits are asked for. annotated=False skips annotations.json, which
    annotate rewrites, so that a damaged file cannot stop its regeneration.
    """
    manifest = load_manifest(root)
    for split in splits:
        if split not in ("train", "test"):
            raise InvalidInputError(f"unknown split {split!r}")
    annotations = _load_annotations(root, {*manifest["train"], *manifest["test"]}) if annotated else {}
    loaded = [[_load_sample(root, sid, manifest, annotations) for sid in manifest[split]]
              for split in splits]
    return (manifest, *loaded)


def load_split(root, split: str) -> list:
    """Load one manifest split ("train" or "test") in manifest order."""
    return _load_splits(root, split)[1]


def generate_annotations(samples, seed: int) -> list:
    """One uniformly drawn pixel per class present in each sample's mask.

    The draw stream is keyed by (seed, sample id), so adding or reordering
    samples cannot change any other sample's points.
    """
    annotated = []
    for s in samples:
        if s.mask is None:
            raise InvalidInputError(f"sample {s.id}: cannot annotate without a mask")
        rng = keyed_rng(seed, "annotate", s.id)
        points = []
        for k in sorted(int(v) for v in np.unique(s.mask.classes)):
            region = np.argwhere(s.mask.classes == k)
            row, col = region[int(rng.integers(len(region)))]
            points.append((int(row), int(col), k))
        ann = PointAnnotation(tuple(points), s.mask.num_classes)
        annotated.append(replace(s, annotation=ann))
    return annotated


def augment(sample: Sample, seed: int, iteration: int) -> Sample:
    """Random horizontal flip (p = 0.5) then r quarter-turn rotations.

    Image, mask, and annotation transform together, keyed by
    (seed, sample id, iteration). Odd quarter turns swap height and width, so
    they are only drawn for square grids; non-square grids use r in {0, 2}.
    """
    if sample.annotation is None:
        raise InvalidInputError(f"sample {sample.id}: augment needs an annotation")
    rng = keyed_rng(seed, "augment", sample.id, iteration)
    flip = bool(rng.random() < 0.5)
    H, W = sample.image.intensities.shape
    turns = (0, 1, 2, 3) if H == W else (0, 2)
    r = int(turns[int(rng.integers(len(turns)))])

    img = sample.image.intensities
    mask = None if sample.mask is None else sample.mask.classes
    points = list(sample.annotation.points)
    if flip:
        img = img[:, ::-1]
        mask = None if mask is None else mask[:, ::-1]
        points = [(pr, W - 1 - pc, k) for pr, pc, k in points]
    for _ in range(r):
        width_now = img.shape[1]
        img = np.rot90(img)  # counter-clockwise: (row, col) -> (W-1-col, row)
        mask = None if mask is None else np.rot90(mask)
        points = [(width_now - 1 - pc, pr, k) for pr, pc, k in points]

    return _trusted(
        Sample, sample.id,
        _trusted(Image, np.ascontiguousarray(img)),
        None if mask is None else _trusted(LabelMask, np.ascontiguousarray(mask), sample.mask.num_classes),
        _trusted(PointAnnotation, tuple(points), sample.annotation.num_classes),
    )


def synth_generate(spec: SynthSpec):
    """Build the synthetic dataset; returns (train samples, test samples, manifest).

    Background is painted at the class-0 mean; each foreground class adds one
    filled axis-aligned ellipse at its anchor plus per-image jitter, later
    classes overwriting earlier ones. Gaussian noise is added, clipped to
    [0, 1], and quantized to 255 levels so files round-trip exactly.
    """
    K, H, W = spec.num_classes, spec.height, spec.width
    scale = min(H, W)
    radius_rng = keyed_rng(spec.seed, "synth", "radii")
    axes = {
        k: radius_rng.uniform(spec.radius_range[0], spec.radius_range[1], size=2) * scale
        for k in range(1, K)
    }
    rows = np.arange(H)[:, None]
    cols = np.arange(W)[None, :]

    def build(split: str, index: int) -> Sample:
        rng = keyed_rng(spec.seed, "synth", split, index)
        img = np.full((H, W), float(spec.intensity_means[0]))
        mask = np.zeros((H, W), dtype=np.int64)
        for k in range(1, K):
            ar, ac = spec.anchors[k - 1]
            jr, jc = rng.uniform(-spec.jitter, spec.jitter, size=2) * scale
            cy, cx = ar * (H - 1) + jr, ac * (W - 1) + jc
            ay, ax = axes[k]
            inside = ((rows - cy) / ay) ** 2 + ((cols - cx) / ax) ** 2 <= 1.0
            img[inside] = spec.intensity_means[k]
            mask[inside] = k
        if spec.noise_sigma > 0:
            img = img + rng.normal(0.0, spec.noise_sigma, size=(H, W))
        img = np.rint(np.clip(img, 0.0, 1.0) * 255) / 255.0
        return Sample(f"{split}{index:03d}", Image(img), LabelMask(mask, K))

    train = [build("train", i) for i in range(spec.train_count)]
    test = [build("test", i) for i in range(spec.test_count)]
    return train, test, _manifest(K, H, W, train, test)
