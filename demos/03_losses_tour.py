"""
A tour of the training objective, term by term
==============================================

The composite loss is a supervised partial cross-entropy at the annotated
pixels, plus either a piecewise-constant data term or an InfoNCE-style
contrastive term over variance maps, plus total variation.
"""

import math

import numpy as np

from pointseg import Image, PointAnnotation
from pointseg.grids import LogitField, SoftPrediction, softmax
from pointseg.losses import (
    LossSettings,
    PairingPlan,
    cv_loss,
    ms_data_term,
    partial_cross_entropy,
    total_loss,
    tv_term,
    variance_map,
)

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
# must look like its same-class partner and unlike other classes.
images = [Image(rng.random((6, 6)) * 0.5 + 0.25) for _ in range(2)]
logits = [LogitField(rng.normal(size=(2, 6, 6))) for _ in range(2)]
preds = [softmax(lf) for lf in logits]
plan = PairingPlan({(0, 0): 1, (0, 1): 1, (1, 0): 0, (1, 1): 0})
result = cv_loss(images, preds, [(0, 1), (0, 1)], plan, tau=0.07,
                 lambda_cv=1.0)
print(f"contrastive sum over {result.num_anchors} anchors: {result.contrastive:.4f}")

# total_loss wires the pieces together in the mode its settings name and
# differentiates the whole thing back to the logits.
anns = [PointAnnotation(((0, 0, 0), (3, 3, 1)), 2),
        PointAnnotation(((1, 1, 0), (4, 4, 1)), 2)]
for mode in ("pce", "pce+ms", "pce+cv"):
    breakdown = total_loss(images, logits, anns, plan, LossSettings(mode))
    print(f"{mode:7s} total {breakdown.total:9.4f}  "
          f"(pce {breakdown.pce:.4f}, ms {breakdown.ms_data:.4f}, "
          f"cv {breakdown.cv_contrastive:.4f}, tv {breakdown.tv:.4f})")
