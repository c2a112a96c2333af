"""Cross-validation of the fast AP path and coco_map.

The hot-path pure-Python AP (``_fast_ap``, over references grouped once as
``(x1, y1, x2, y2, area)`` tuples) must agree exactly with the reference
numpy implementation (``precision_recall_curve().auc()``) — they implement
the same VOC protocol by different code paths, so property-based agreement
is the strongest regression guard for the optimization.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.boxes import BBox
from repro.detection.metrics import (
    COCO_IOU_THRESHOLDS,
    ReferenceBoxes,
    average_precision,
    coco_map,
    mean_average_precision,
    precision_recall_curve,
)
from repro.detection.types import Detection

confs = st.floats(min_value=0.01, max_value=0.99)


@st.composite
def detections(draw):
    x1 = draw(st.floats(min_value=0, max_value=400))
    y1 = draw(st.floats(min_value=0, max_value=400))
    w = draw(st.floats(min_value=2, max_value=150))
    h = draw(st.floats(min_value=2, max_value=150))
    return Detection(BBox(x1, y1, x1 + w, y1 + h), draw(confs), "car")


det_lists = st.lists(detections(), min_size=0, max_size=10)


@given(det_lists, det_lists, st.sampled_from([0.3, 0.5, 0.75]))
@settings(max_examples=120)
def test_fast_ap_matches_reference_implementation(preds, refs, threshold):
    fast = average_precision(preds, refs, threshold)
    if refs:
        reference = precision_recall_curve(preds, refs, threshold).auc()
    else:
        reference = 1.0 if not preds else 0.0
    assert fast == pytest.approx(reference, abs=1e-12)
    # One label, so the mean over labels is that label's AP; grouping the
    # references up front (as the environment does per frame) is exact.
    grouped = ReferenceBoxes(refs)
    assert mean_average_precision(preds, grouped, threshold) == fast
    assert mean_average_precision(preds, refs, threshold) == fast
    assert mean_average_precision(preds, grouped, threshold, labels=["car"]) == fast


mixed_labels = st.lists(
    st.tuples(detections(), st.sampled_from(["car", "bus", "person"])).map(
        lambda pair: Detection(pair[0].box, pair[0].confidence, pair[1])
    ),
    min_size=0,
    max_size=10,
)


@given(mixed_labels, mixed_labels, st.sampled_from([0.3, 0.5, 0.75]))
@settings(max_examples=80)
def test_grouped_references_match_per_label_average(preds, refs, threshold):
    """mAP over pre-grouped references is the mean of per-label APs, in
    sorted label order, bit for bit."""
    labels = sorted({d.label for d in preds} | {d.label for d in refs})
    if labels:
        total = 0.0
        for label in labels:
            total += average_precision(preds, refs, threshold, label=label)
        expected = total / len(labels)
    else:
        expected = 1.0
    grouped = ReferenceBoxes(refs)
    assert mean_average_precision(preds, grouped, threshold) == expected
    assert mean_average_precision(preds, refs, threshold) == expected


class TestCocoMap:
    def _make(self, x1, y1, x2, y2, conf=0.9, label="car"):
        return Detection(BBox(x1, y1, x2, y2), conf, label)

    def test_thresholds_constant(self):
        assert COCO_IOU_THRESHOLDS[0] == 0.5
        assert COCO_IOU_THRESHOLDS[-1] == 0.95
        assert len(COCO_IOU_THRESHOLDS) == 10

    def test_perfect_boxes_score_one(self):
        refs = [self._make(0, 0, 100, 100)]
        assert coco_map(refs, refs) == pytest.approx(1.0)

    def test_sloppy_boxes_score_below_map50(self):
        refs = [self._make(0, 0, 100, 100)]
        # 80% IoU-ish box: perfect at 0.5, failing at 0.85+.
        preds = [self._make(5, 5, 100, 100, conf=0.9)]
        map50 = mean_average_precision(preds, refs, 0.5)
        full = coco_map(preds, refs)
        assert full < map50

    def test_rewards_localization_quality(self):
        refs = [self._make(0, 0, 100, 100)]
        tight = [self._make(1, 1, 100, 100, conf=0.9)]
        loose = [self._make(12, 12, 112, 112, conf=0.9)]
        assert coco_map(tight, refs) > coco_map(loose, refs)

    def test_empty_thresholds_rejected(self):
        with pytest.raises(ValueError):
            coco_map([], [], thresholds=())

    def test_mean_over_thresholds(self):
        refs = [self._make(0, 0, 100, 100)]
        preds = [self._make(5, 5, 100, 100, conf=0.9)]
        manual = sum(
            mean_average_precision(preds, refs, t) for t in COCO_IOU_THRESHOLDS
        ) / len(COCO_IOU_THRESHOLDS)
        assert coco_map(preds, refs) == pytest.approx(manual)
