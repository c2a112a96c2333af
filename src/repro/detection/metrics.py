"""Average Precision (AP) and mean AP, the paper's accuracy metric.

AP follows the all-point-interpolation definition cited by the paper
(PASCAL VOC 2010+ / COCO style): the area under the precision-recall curve
traced by sweeping the confidence threshold, with precision interpolated to
be monotonically non-increasing in recall.

Both the *true* AP (Eq. 2, against ground truth) and the *estimated* AP
(Eq. 3, against the reference model's boxes) use the same computation — only
the reference set differs, so the functions below simply take a reference
detection sequence.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.detection.boxes import iou_matrix
from repro.detection.types import Detection, FrameDetections

__all__ = [
    "PRCurve",
    "precision_recall_curve",
    "average_precision",
    "mean_average_precision",
    "coco_map",
    "COCO_IOU_THRESHOLDS",
    "ReferenceBoxes",
]

#: The COCO evaluation IoU thresholds (0.50:0.05:0.95).
COCO_IOU_THRESHOLDS: tuple[float, ...] = tuple(
    round(0.5 + 0.05 * i, 2) for i in range(10)
)


@dataclass(frozen=True)
class PRCurve:
    """A precision-recall curve for one class.

    Attributes:
        precision: Precision after each prediction (decreasing confidence).
        recall: Recall after each prediction.
        confidences: Confidence of each prediction, decreasing.
        num_references: Number of reference boxes of this class.
    """

    precision: tuple[float, ...]
    recall: tuple[float, ...]
    confidences: tuple[float, ...]
    num_references: int

    def interpolated_precision(self) -> tuple[float, ...]:
        """Precision made monotonically non-increasing in recall order."""
        if not self.precision:
            return ()
        interp = list(self.precision)
        for i in range(len(interp) - 2, -1, -1):
            interp[i] = max(interp[i], interp[i + 1])
        return tuple(interp)

    def auc(self) -> float:
        """Area under the interpolated curve (the AP value)."""
        if self.num_references == 0 or not self.recall:
            return 0.0
        interp = self.interpolated_precision()
        area = 0.0
        prev_recall = 0.0
        for p, r in zip(interp, self.recall, strict=True):
            area += (r - prev_recall) * p
            prev_recall = r
        return area


def _tp_fp_flags(
    predictions: Sequence[Detection],
    references: Sequence[Detection],
    iou_threshold: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-prediction TP flags and confidences, VOC greedy protocol.

    Predictions and references are assumed to already be restricted to a
    single class.  Returns ``(tp_flags, confidences)`` both ordered by
    decreasing confidence.
    """
    order = sorted(
        range(len(predictions)),
        key=lambda i: predictions[i].confidence,
        reverse=True,
    )
    confidences = np.asarray(
        [predictions[i].confidence for i in order], dtype=np.float64
    )
    tp = np.zeros(len(order), dtype=bool)
    if not references:
        return tp, confidences

    ious = iou_matrix(
        [predictions[i].box for i in order], [r.box for r in references]
    )
    taken = np.zeros(len(references), dtype=bool)
    for rank in range(len(order)):
        row = ious[rank]
        best_ref = -1
        best_iou = iou_threshold
        for ri in range(len(references)):
            if taken[ri]:
                continue
            if row[ri] >= best_iou:
                best_iou = row[ri]
                best_ref = ri
        if best_ref >= 0:
            taken[best_ref] = True
            tp[rank] = True
    return tp, confidences


def precision_recall_curve(
    predictions: Sequence[Detection] | FrameDetections,
    references: Sequence[Detection] | FrameDetections,
    iou_threshold: float = 0.5,
    label: str | None = None,
) -> PRCurve:
    """Precision-recall curve for one class.

    Args:
        predictions: Predicted detections (any classes; filtered by ``label``).
        references: Reference detections.
        iou_threshold: IoU needed for a true positive.
        label: The class to evaluate.  If None, all detections are treated
            as one class (single-class evaluation).

    Returns:
        The PR curve; empty curves have zero AUC.
    """
    preds = [d for d in predictions if label is None or d.label == label]
    refs = [d for d in references if label is None or d.label == label]

    tp, confidences = _tp_fp_flags(preds, refs, iou_threshold)
    if len(tp) == 0:
        return PRCurve((), (), (), len(refs))

    cum_tp = np.cumsum(tp)
    ranks = np.arange(1, len(tp) + 1)
    precision = cum_tp / ranks
    recall = cum_tp / len(refs) if refs else np.zeros_like(precision)

    return PRCurve(
        precision=tuple(float(p) for p in precision),
        recall=tuple(float(r) for r in recall),
        confidences=tuple(float(c) for c in confidences),
        num_references=len(refs),
    )


#: One reference box as the AP kernel reads it: ``(x1, y1, x2, y2, area)``.
_RefBox = tuple[float, float, float, float, float]


def _ref_box(det: Detection) -> _RefBox:
    x1, y1, x2, y2 = det.box.x1, det.box.y1, det.box.x2, det.box.y2
    return (x1, y1, x2, y2, (x2 - x1) * (y2 - y1))  # BBox.area's operations


class ReferenceBoxes:
    """Reference detections grouped by label once, for repeated AP scoring.

    Every ensemble scored on a frame is matched against the same reference
    set (REF's boxes for the estimated AP, ground truth for the true AP).
    Grouping it once per frame — rather than once per ensemble — is what
    :meth:`~repro.core.environment.DetectionEnvironment.evaluate` shares
    across a frame's ensembles.  Pass an instance anywhere
    :func:`mean_average_precision` takes references.

    Attributes:
        by_label: Per label, the reference boxes as
            ``(x1, y1, x2, y2, area)`` tuples in input order.
    """

    __slots__ = ("by_label",)

    def __init__(
        self, references: Sequence[Detection] | FrameDetections
    ) -> None:
        by_label: dict[str, list[_RefBox]] = {}
        for det in references:
            entry = _ref_box(det)
            group = by_label.get(det.label)
            if group is None:
                by_label[det.label] = [entry]
            else:
                group.append(entry)
        self.by_label = by_label


def _fast_ap(
    preds: list[Detection], refs: list[_RefBox], iou_threshold: float
) -> float:
    """All-point-interpolated AP for a single-class pool, pure Python.

    Identical protocol to :func:`precision_recall_curve` + ``auc()`` but
    avoiding numpy — per-frame detection sets are tiny (a handful of boxes)
    and array overhead dominates at that size.  This is the AP hot path:
    the selection algorithms call it once per (frame, ensemble, label).
    References arrive as ``(x1, y1, x2, y2, area)`` tuples (see
    :class:`ReferenceBoxes`), so the innermost loop reads no attributes;
    areas are :attr:`BBox.area`'s ``width * height``, inlined.
    """
    if not refs:
        return 1.0 if not preds else 0.0
    if not preds:
        return 0.0
    order = sorted(preds, key=lambda d: d.confidence, reverse=True)
    num_refs = len(refs)
    taken = [False] * num_refs
    # Greedy matching, then raw precision at each recall step.
    precisions: list[float] = []
    recalls: list[float] = []
    tp = 0
    for rank, det in enumerate(order, start=1):
        box = det.box
        x1 = box.x1
        y1 = box.y1
        x2 = box.x2
        y2 = box.y2
        pred_area = (x2 - x1) * (y2 - y1)
        best_iou = iou_threshold
        best_ref = -1
        for ri, (rx1, ry1, rx2, ry2, ref_area) in enumerate(refs):
            if taken[ri]:
                continue
            # Inline IoU: avoids method-call overhead in the innermost loop.
            iw = min(x2, rx2) - max(x1, rx1)
            if iw <= 0.0:
                continue
            ih = min(y2, ry2) - max(y1, ry1)
            if ih <= 0.0:
                continue
            inter = iw * ih
            union = pred_area + ref_area - inter
            overlap = inter / union if union > 0.0 else 0.0
            if overlap >= best_iou:
                best_iou = overlap
                best_ref = ri
        if best_ref >= 0:
            taken[best_ref] = True
            tp += 1
        precisions.append(tp / rank)
        recalls.append(tp / num_refs)
    # Monotone interpolation and area under the PR curve.
    for i in range(len(precisions) - 2, -1, -1):
        if precisions[i] < precisions[i + 1]:
            precisions[i] = precisions[i + 1]
    area = 0.0
    prev_recall = 0.0
    for p, r in zip(precisions, recalls, strict=True):
        area += (r - prev_recall) * p
        prev_recall = r
    return area


def average_precision(
    predictions: Sequence[Detection] | FrameDetections,
    references: Sequence[Detection] | FrameDetections,
    iou_threshold: float = 0.5,
    label: str | None = None,
) -> float:
    """All-point-interpolated AP for one class (or class-agnostic).

    Edge cases follow the usual evaluation conventions: with no reference
    boxes and no predictions the frame is perfectly explained and AP is 1.0;
    with references but no predictions (or vice versa) AP is 0.0.
    """
    preds = [d for d in predictions if label is None or d.label == label]
    refs = [
        _ref_box(d) for d in references if label is None or d.label == label
    ]
    return _fast_ap(preds, refs, iou_threshold)


def mean_average_precision(
    predictions: Sequence[Detection] | FrameDetections,
    references: Sequence[Detection] | FrameDetections | ReferenceBoxes,
    iou_threshold: float = 0.5,
    labels: Sequence[str] | None = None,
) -> float:
    """Mean AP over classes (the paper's mAP for multi-class evaluation).

    Args:
        predictions: Predicted detections.
        references: Reference detections, or a :class:`ReferenceBoxes`
            grouping of them made once for many calls.
        iou_threshold: IoU needed for a true positive.
        labels: Classes to average over.  Defaults to the union of classes
            present in either set; if that union is empty, returns 1.0
            (nothing to detect, nothing predicted).
    """
    if not isinstance(references, ReferenceBoxes):
        references = ReferenceBoxes(references)
    refs_by_label = references.by_label
    preds_by_label: dict[str, list[Detection]] = {}
    for det in predictions:
        group = preds_by_label.get(det.label)
        if group is None:
            preds_by_label[det.label] = [det]
        else:
            group.append(det)
    if labels is None:
        label_set = sorted(preds_by_label.keys() | refs_by_label.keys())
    else:
        label_set = list(labels)
    if not label_set:
        return 1.0
    total = 0.0
    for lbl in label_set:
        total += _fast_ap(
            preds_by_label.get(lbl, []), refs_by_label.get(lbl, []), iou_threshold
        )
    return total / len(label_set)


def coco_map(
    predictions: Sequence[Detection] | FrameDetections,
    references: Sequence[Detection] | FrameDetections,
    thresholds: Sequence[float] = COCO_IOU_THRESHOLDS,
    labels: Sequence[str] | None = None,
) -> float:
    """COCO-style mAP: mean over IoU thresholds 0.50:0.05:0.95.

    Averaging over stricter thresholds rewards localization quality, which
    is what separates coordinate-averaging fusion methods (WBF, NMW) from
    pure suppression (NMS) — the Section 5.2 comparison uses it for that
    reason.
    """
    if not thresholds:
        raise ValueError("thresholds must be non-empty")
    preds = list(predictions)
    refs = ReferenceBoxes(references)
    total = 0.0
    for threshold in thresholds:
        total += mean_average_precision(preds, refs, threshold, labels=labels)
    return total / len(thresholds)
