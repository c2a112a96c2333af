"""Common interface for box-fusion (model prediction ensembling) methods.

A fusion method takes the per-detector outputs for one frame and produces a
single combined :class:`~repro.detection.types.FrameDetections`.  Methods are
stateless value objects: constructing one is cheap and calling it has no side
effects, so a single instance can be shared across frames and threads.

Fusion operates per class label throughout — boxes of different classes never
suppress or merge with each other, matching every method's published
formulation.

Every method ships two implementations of its per-class kernel: the scalar
reference path (``_fuse_class``, one ``Detection`` at a time) and a
vectorized path (``_fuse_class_arrays``, numpy kernels over a
:class:`~repro.ensembling.arrays.ClassPool`).  The two are bit-for-bit
equivalent — property-tested in ``tests/test_fusion_vectorized.py`` — so
dispatch is purely a performance decision, controlled by :attr:`fuse_mode`.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence

from repro.detection.types import Detection, FrameDetections
from repro.ensembling.arrays import ClassPool, partition_by_label

__all__ = ["EnsembleMethod", "FUSE_MODES", "VECTORIZE_MIN_POOL", "cluster_by_iou"]

#: Valid values of :attr:`EnsembleMethod.fuse_mode`.
FUSE_MODES: tuple[str, ...] = ("auto", "scalar", "vectorized")

#: In ``"auto"`` mode, class pools with at least this many detections take
#: the vectorized kernels; smaller pools stay scalar, where per-call numpy
#: overhead would dominate.  Because the two paths are bit-identical, the
#: cutoff is invisible to results — it only moves wall time.
VECTORIZE_MIN_POOL = 8


class EnsembleMethod(abc.ABC):
    """Abstract base class for box-fusion methods.

    Subclasses implement :meth:`_fuse_class` over a single-class pool of
    detections (and optionally :meth:`_fuse_class_arrays` over its array
    view); the base class handles pooling across detectors, splitting by
    class, kernel dispatch, and re-assembling the frame output.
    """

    #: Short registry name; subclasses override.
    name: str = "abstract"

    #: Kernel dispatch policy: ``"auto"`` (default; vectorized for pools of
    #: :data:`VECTORIZE_MIN_POOL` or more boxes), ``"scalar"``, or
    #: ``"vectorized"``.  Settable per instance; results are identical in
    #: every mode.
    fuse_mode: str = "auto"

    def __call__(
        self, per_detector: Sequence[FrameDetections]
    ) -> FrameDetections:
        return self.fuse(per_detector)

    def fuse(self, per_detector: Sequence[FrameDetections]) -> FrameDetections:
        """Fuse the outputs of several detectors on one frame.

        Args:
            per_detector: One :class:`FrameDetections` per detector, all with
                the same ``frame_index``.  A single-element sequence is valid
                and (for every method implemented here) passes detections
                through with at most NMS-style dedup of that one model.

        Returns:
            The fused detections with ``source`` set to this method's name.
        """
        if not per_detector:
            raise ValueError("fuse() requires at least one detector output")
        mode = self.fuse_mode
        if mode not in FUSE_MODES:
            raise ValueError(
                f"unknown fuse_mode {mode!r}; valid: {list(FUSE_MODES)}"
            )
        frame_index = per_detector[0].frame_index
        pooled = FrameDetections.pool(frame_index, per_detector)
        num_models = len(per_detector)

        fused: list[Detection] = []
        pools = partition_by_label(pooled)
        for label in sorted(pools):
            pool = pools[label]
            if mode == "vectorized" or (
                mode == "auto" and len(pool) >= VECTORIZE_MIN_POOL
            ):
                fused.extend(self._fuse_class_arrays(pool, num_models))
            else:
                fused.extend(self._fuse_class(pool.detections, num_models))
        ordered = tuple(
            sorted(fused, key=lambda d: d.confidence, reverse=True)
        )
        return FrameDetections(frame_index, ordered, source=self.name)

    @abc.abstractmethod
    def _fuse_class(
        self, detections: Sequence[Detection], num_models: int
    ) -> list[Detection]:
        """Fuse a pool of same-class detections from ``num_models`` models.

        The scalar reference implementation; kept as the semantic ground
        truth the vectorized kernels are verified against.
        """

    def _fuse_class_arrays(
        self, pool: ClassPool, num_models: int
    ) -> list[Detection]:
        """Vectorized kernel over a class pool's array views.

        The default delegates to the scalar path, so methods without a
        vectorized kernel keep working in every mode; all built-in
        methods override this with a bit-identical numpy implementation.
        """
        return self._fuse_class(pool.detections, num_models)

    def __repr__(self) -> str:
        params = ", ".join(
            f"{k}={v!r}"
            for k, v in sorted(vars(self).items())
            if not k.startswith("_")
        )
        return f"{type(self).__name__}({params})"


def cluster_by_iou(
    detections: Sequence[Detection], iou_threshold: float
) -> list[list[int]]:
    """Greedy confidence-ordered clustering used by WBF / NMW / Fusion.

    Detections are visited in decreasing confidence order; each joins the
    first existing cluster whose representative (the cluster's first, i.e.
    highest-confidence, member) overlaps it with IoU above the threshold,
    otherwise it seeds a new cluster.

    Tie-breaking is pinned: the visit order is a *stable* sort by
    ``(-confidence, index)``, so equal-confidence detections are visited
    in their pool order.  The vectorized twin
    (:func:`repro.ensembling.arrays.greedy_iou_clusters` over
    :func:`repro.ensembling.arrays.stable_confidence_order`) produces the
    same visit order, which ``tests/test_fusion_vectorized.py`` pins with
    an explicit equal-confidence test.

    Returns:
        Clusters as lists of indices into ``detections``, each ordered by
        decreasing confidence.
    """
    order = sorted(
        range(len(detections)),
        key=lambda i: detections[i].confidence,
        reverse=True,
    )
    clusters: list[list[int]] = []
    # Each representative's corners and area, read once: the scan below
    # inlines :meth:`BBox.iou` (and ``BBox.area``) with the same float
    # operations in the same order — the representative is ``self`` — so
    # memberships are unchanged.
    reps: list[tuple[float, float, float, float, float]] = []
    for idx in order:
        box = detections[idx].box
        x1 = box.x1
        y1 = box.y1
        x2 = box.x2
        y2 = box.y2
        area = (x2 - x1) * (y2 - y1)
        placed = False
        for cluster, (rx1, ry1, rx2, ry2, rep_area) in zip(clusters, reps):
            iw = min(rx2, x2) - max(rx1, x1)
            ih = min(ry2, y2) - max(ry1, y1)
            if iw <= 0 or ih <= 0:
                overlap = 0.0
            else:
                # An underflowed ``inter`` of 0.0 yields 0.0 here, as in
                # BBox.iou's early return.
                inter = iw * ih
                union = rep_area + area - inter
                overlap = inter / union if union > 0.0 else 0.0
            if overlap >= iou_threshold:
                cluster.append(idx)
                placed = True
                break
        if not placed:
            clusters.append([idx])
            reps.append((x1, y1, x2, y2, area))
    return clusters
