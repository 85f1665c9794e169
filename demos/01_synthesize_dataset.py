"""
Synthesize an ellipse dataset and look at what lands on disk
============================================================

Each image is a flat background with one noisy filled ellipse per
foreground class, so the intensity histogram alone almost solves the
segmentation task. That is the point: it gives a desk-scale corpus where
training behavior is easy to reason about.
"""

import pathlib
import tempfile

import numpy as np

from pointseg import SynthSpec, load_split, read_pgm, synth_generate, save_dataset

# A small two-blob recipe: class 0 is background, classes 1 and 2 are
# ellipses anchored near opposite corners with a little center jitter.
spec = SynthSpec(
    num_classes=3,
    height=48,
    width=48,
    anchors=((0.35, 0.35), (0.65, 0.65)),
    intensity_means=(0.2, 0.5, 0.8),
    noise_sigma=0.05,
    train_count=12,
    test_count=4,
    seed=0,
)

train, test, manifest = synth_generate(spec)
with tempfile.TemporaryDirectory(prefix="pointseg_demo_") as tmp:
    root = pathlib.Path(tmp) / "data"
    save_dataset(root, train, test, spec.num_classes)
    print("wrote", root)
    print("manifest:", manifest)

    # Every sample carries the image and the dense ground-truth mask.
    reloaded = load_split(root, "train")
    sample = reloaded[0]
    print("first sample:", sample.id, "image", sample.image.intensities.shape,
          "mask classes", sorted(np.unique(sample.mask.classes)))

    # The PGM files are plain binary NetPBM, readable by anything.
    values, maxval = read_pgm(root / "images" / f"{sample.id}.pgm")
    print("pgm maxval:", maxval, "intensity range:",
          values.min(), "to", values.max())

# Because the class means sit 6 sigma apart, thresholding at the midpoints
# recovers almost the whole mask. This is the sanity oracle for the
# generator, not a claim about the learning problem.
image = sample.image.intensities
guess = np.zeros_like(sample.mask.classes)
guess[image > 0.35] = 1
guess[image > 0.65] = 2
agreement = (guess == sample.mask.classes).mean()
print(f"threshold oracle agrees on {agreement:.1%} of pixels")
