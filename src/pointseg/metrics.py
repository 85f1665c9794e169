"""Segmentation quality metrics: per-class DSC and HD95 with class averages.

Conventions, stated so the numbers are interpretable:

* DSC = 2|P and G| / (|P| + |G|), and 1.0 when both regions are empty.
* HD95 pools the symmetric boundary distances {d(p, boundary G)} and
  {d(g, boundary P)} and takes their 95th percentile with linear
  interpolation between order statistics. A boundary pixel is a region pixel
  with a 4-neighbor outside the region; the image border counts as outside.
  If exactly one region is empty the score is the image diagonal, a finite
  total-miss penalty; if both are empty it is 0.
* Class averages run over foreground classes only (background id 0 excluded),
  and each class averages over the images whose ground truth contains it.

The central-bias filter reassigns a fixed-width column band at the left and
right edges to background before scoring, mirroring test-time suppression of
predictions far from the centered subject.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabelMask, dump_json
from .errors import InvalidInputError
from .grids import SoftPrediction


def hard_mask(pred: SoftPrediction) -> LabelMask:
    """Per-pixel argmax class; ties resolve to the smaller class id."""
    return LabelMask(np.argmax(pred.probabilities, axis=0), pred.num_classes)


def _class_regions(pred_mask: LabelMask, gt: LabelMask, k: int):
    """The class-k regions of a prediction and its ground truth, of one shape."""
    if pred_mask.classes.shape != gt.classes.shape:
        raise InvalidInputError("prediction and ground truth shapes differ")
    return pred_mask.classes == k, gt.classes == k


def dsc(pred_mask: LabelMask, gt: LabelMask, k: int) -> float:
    """Dice similarity of class-k regions; empty-vs-empty scores 1.0."""
    p, g = _class_regions(pred_mask, gt, k)
    denom = int(p.sum()) + int(g.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int((p & g).sum()) / denom


def _boundary(region: np.ndarray) -> np.ndarray:
    """Region pixels with a 4-neighbor outside; the border counts as outside."""
    padded = np.pad(region, 1, mode="constant", constant_values=False)
    interior = (
        padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    )
    return region & ~interior


def hd95(pred_mask: LabelMask, gt: LabelMask, k: int) -> float:
    """95th percentile of pooled symmetric boundary distances, in pixels."""
    p, g = _class_regions(pred_mask, gt, k)
    H, W = p.shape
    if not p.any() and not g.any():
        return 0.0
    if not p.any() or not g.any():
        return float(np.hypot(H, W))
    # Squared distances are exact integers and a rounded sqrt is monotone, so
    # the nearest distance is the sqrt of the nearest square: one per pixel.
    bp = np.argwhere(_boundary(p))
    bg = np.argwhere(_boundary(g))
    d2 = np.subtract.outer(bp[:, 0], bg[:, 0]) ** 2
    d2 += np.subtract.outer(bp[:, 1], bg[:, 1]) ** 2
    pooled = np.sqrt(np.concatenate([d2.min(axis=1), d2.min(axis=0)]))
    return float(np.percentile(pooled, 95))


def check_central_bias_width(width: int, W: int) -> None:
    """Reject a filter width that is negative or would blank all W columns."""
    if not 0 <= 2 * width < W:
        raise InvalidInputError(f"central-bias width {width} must lie in [0, {W / 2:g}) "
                                f"on {W} columns: a width of half or more blanks them all")


def central_bias_filter(pred_mask: LabelMask, width: int) -> LabelMask:
    """Reassign the left and right `width`-column bands to background."""
    W = pred_mask.classes.shape[1]
    check_central_bias_width(width, W)
    if width == 0:
        return pred_mask
    classes = pred_mask.classes.copy()
    classes[:, :width] = 0
    classes[:, W - width:] = 0
    return LabelMask(classes, pred_mask.num_classes)


@dataclass(frozen=True)
class EvalReport:
    """Aggregated metrics: per-class means, foreground averages, per-image detail."""

    num_classes: int
    per_class_dsc: dict    # class id -> mean DSC over images containing it
    per_class_hd95: dict
    dsc_average: float     # arithmetic mean over foreground classes
    hd95_average: float
    per_image: tuple       # per image: {"dsc": {k: v}, "hd95": {k: v}}

    def to_json(self) -> str:
        def by_class(scores):  # JSON keys are strings
            return {str(k): v for k, v in sorted(scores.items())}

        payload = {
            "num_classes": self.num_classes,
            "per_class_dsc": by_class(self.per_class_dsc),
            "per_class_hd95": by_class(self.per_class_hd95),
            "dsc_average": self.dsc_average,
            "hd95_average": self.hd95_average,
            "per_image": [{"dsc": by_class(entry["dsc"]), "hd95": by_class(entry["hd95"])}
                          for entry in self.per_image],
        }
        return dump_json(payload, None)

    def format_table(self) -> str:
        classes = sorted(self.per_class_dsc)
        header = ["metric"] + [f"class {k}" for k in classes] + ["average"]
        rows = [
            ["DSC"] + [f"{self.per_class_dsc[k]:.4f}" for k in classes]
            + [f"{self.dsc_average:.4f}"],
            ["HD95"] + [f"{self.per_class_hd95[k]:.4f}" for k in classes]
            + [f"{self.hd95_average:.4f}"],
        ]
        widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
        lines = [
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
            for row in [header] + rows
        ]
        return "\n".join(lines)


def evaluate(pred_masks, gt_masks, central_bias_width: int = 0) -> EvalReport:
    """Score predictions against ground truths.

    Per-class means run over the images whose ground truth contains the
    class; foreground classes absent from every ground truth are skipped.
    The optional central-bias filter is applied to predictions first.
    """
    if len(pred_masks) != len(gt_masks):
        raise InvalidInputError(
            f"{len(pred_masks)} predictions vs {len(gt_masks)} ground truths"
        )
    if not pred_masks:
        raise InvalidInputError("nothing to evaluate")
    K = gt_masks[0].num_classes
    for pm, gm in zip(pred_masks, gt_masks):
        if pm.num_classes != K or gm.num_classes != K:
            raise InvalidInputError("class counts disagree across the evaluation")

    filtered = [central_bias_filter(pm, central_bias_width) for pm in pred_masks]
    per_image = []
    for pm, gm in zip(filtered, gt_masks):
        classes = [int(k) for k in np.unique(gm.classes) if k > 0]
        per_image.append({"dsc": {k: dsc(pm, gm, k) for k in classes},
                          "hd95": {k: hd95(pm, gm, k) for k in classes}})

    def scores(metric):
        """Per-class means over the images holding each class, and their mean."""
        means = {k: float(np.mean([e[metric][k] for e in per_image if k in e[metric]]))
                 for k in range(1, K) if any(k in e[metric] for e in per_image)}
        if not means:
            raise InvalidInputError("no foreground class appears in any ground truth")
        return means, float(np.mean(list(means.values())))

    (per_class_dsc, dsc_avg), (per_class_hd95, hd_avg) = scores("dsc"), scores("hd95")
    return EvalReport(K, per_class_dsc, per_class_hd95, dsc_avg, hd_avg, tuple(per_image))
