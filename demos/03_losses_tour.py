"""
A tour of the training objective, term by term
==============================================

The composite loss is a supervised partial cross-entropy at the annotated
pixels, plus either a piecewise-constant data term or an InfoNCE-style
contrastive term over variance maps, plus total variation. The last section
prints what the contrastive term scores at four labelings of a fixed batch.
"""

import math

import numpy as np

from pointseg import Image, PointAnnotation
from pointseg.data import SynthSpec, generate_annotations, synth_generate
from pointseg.grids import LogitField, SoftPrediction, softmax
from pointseg.losses import (
    LossSettings,
    cv_loss,
    ms_data_term,
    partial_cross_entropy,
    total_loss,
    tv_term,
    variance_map,
)
from pointseg.train import assemble_batch

rng = np.random.default_rng(0)

# Partial cross-entropy only reads the annotated pixels. A uniform
# four-class prediction scores exactly ln 4 on a single point.
uniform = SoftPrediction(np.full((4, 3, 3), 0.25))
ann = PointAnnotation(((1, 1, 2),), num_classes=4)
value, grad = partial_cross_entropy(uniform, ann)
print(f"pCE on uniform four-class prediction: {value:.6f} (ln 4 = {math.log(4):.6f})")
print("gradient is nonzero only at the annotated pixel:",
      int(np.count_nonzero(grad)), "entry")

# The data term measures squared deviation from each class's soft mean.
# Splitting a two-valued image fifty-fifty across two classes leaves every
# pixel 0.25 away from both class means of 0.5.
image = Image(np.array([[0.0, 1.0], [1.0, 0.0]]))
half = SoftPrediction(np.full((2, 2, 2), 0.5))
ms_value, _ = ms_data_term(image, half)
print(f"data term for the maximally ambiguous split: {ms_value:.6f}")

zmap = variance_map(image, half, 0)
print("variance map of class 0:\n", zmap)

# Total variation counts prediction jumps between neighboring pixels.
checker = SoftPrediction(np.stack([
    np.array([[1.0, 0.0], [1.0, 0.0]]),
    np.array([[0.0, 1.0], [0.0, 1.0]]),
]))
tv_value, _ = tv_term(checker)
print(f"TV of a vertical two-class split: {tv_value:.1f}")

# The contrastive term compares variance maps across images: the anchor
# must look like its same-class partner and unlike other classes. Its plan
# is a dict from (batch index, class id) anchors to partner batch indices.
images = [Image(rng.random((6, 6)) * 0.5 + 0.25) for _ in range(2)]
logits = [LogitField(rng.normal(size=(2, 6, 6))) for _ in range(2)]
preds = [softmax(lf) for lf in logits]
plan = {(0, 0): 1, (0, 1): 1, (1, 0): 0, (1, 1): 0}
cv_value, _ = cv_loss(images, preds, [(0, 1), (0, 1)], plan, tau=0.07,
                      lambda_cv=1.0)
print(f"contrastive sum over {len(plan)} anchors: {cv_value:.4f}")

# total_loss wires the pieces together in the mode its settings name and
# differentiates the whole thing back to the logits.
anns = [PointAnnotation(((0, 0, 0), (3, 3, 1)), 2),
        PointAnnotation(((1, 1, 0), (4, 4, 1)), 2)]
for mode in ("pce", "pce+ms", "pce+cv"):
    breakdown = total_loss(images, logits, anns, plan, LossSettings(mode))
    print(f"{mode:7s} total {breakdown.total:9.4f}  "
          f"(pce {breakdown.pce:.4f}, ms {breakdown.ms_data:.4f}, "
          f"cv {breakdown.cv_contrastive:.4f}, tv {breakdown.tv:.4f})")

# What does the contrastive term reward? On a fixed batch (8 synthetic
# 32x32 train images, annotated at seed 0, the plan assemble_batch draws at
# iteration 0), compare cv per anchor at four labelings: the ground truth,
# the ground truth smoothed by 0.1, uniform, and class 0 on every pixel.
# Nothing here says which should score lowest; the values are the finding.
train, _, _ = synth_generate(SynthSpec(height=32, width=32, train_count=8, test_count=0))
batch, plan = assemble_batch(generate_annotations(train, seed=0), 0, seed=0, batch_size=8)
K = batch[0].mask.num_classes
onehot = [np.eye(K)[s.mask.classes].transpose(2, 0, 1) for s in batch]
labelings = {
    "ground truth": onehot,
    "smoothed by 0.1": [0.9 * p + 0.1 / K for p in onehot],
    "uniform": [np.full_like(p, 1.0 / K) for p in onehot],
    "class 0 everywhere": [np.eye(K)[np.zeros_like(s.mask.classes)].transpose(2, 0, 1)
                           for s in batch],
}
print(f"cv per anchor over {len(plan)} anchors of a fixed 8-image batch:")
for name, probs in labelings.items():
    cv_value, _ = cv_loss([s.image for s in batch], [SoftPrediction(p) for p in probs],
                          [s.annotation.classes for s in batch], plan, tau=0.07, lambda_cv=1.0)
    print(f"  {name:20s} {cv_value / len(plan):.4f}")
