"""Axis-aligned bounding boxes and their geometric algebra.

Boxes use the ``(x1, y1, x2, y2)`` corner convention with ``x1 <= x2`` and
``y1 <= y2``, in arbitrary (but consistent) image units.  All operations are
pure: they return new boxes and never mutate their inputs.

The module offers both a scalar :class:`BBox` value type, convenient for
tests and single-object code, and a vectorized :func:`iou_matrix` used by the
matching and fusion layers where quadratic pairwise IoU would otherwise
dominate runtime.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = ["BBox", "iou", "iou_matrix", "boxes_to_array", "array_to_boxes"]


@dataclass(frozen=True)
class BBox:
    """An axis-aligned bounding box in corner format.

    Attributes:
        x1: Left edge.
        y1: Top edge.
        x2: Right edge (``>= x1``).
        y2: Bottom edge (``>= y1``).
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        # Four direct calls, not all() over a generator: this runs on every
        # box the simulation, fusion and the materialized store build.
        if not (
            math.isfinite(self.x1)
            and math.isfinite(self.y1)
            and math.isfinite(self.x2)
            and math.isfinite(self.y2)
        ):
            raise ValueError(f"BBox coordinates must be finite, got {self!r}")
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise ValueError(
                f"BBox corners must satisfy x1 <= x2 and y1 <= y2, got {self!r}"
            )

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)

    @classmethod
    def from_center(
        cls, cx: float, cy: float, width: float, height: float
    ) -> BBox:
        """Build a box from a center point and side lengths."""
        if width < 0 or height < 0:
            raise ValueError("width and height must be non-negative")
        half_w = width / 2.0
        half_h = height / 2.0
        return cls(cx - half_w, cy - half_h, cx + half_w, cy + half_h)

    @classmethod
    def from_xywh(cls, x: float, y: float, width: float, height: float) -> BBox:
        """Build a box from its top-left corner and side lengths."""
        if width < 0 or height < 0:
            raise ValueError("width and height must be non-negative")
        return cls(x, y, x + width, y + height)

    def intersection(self, other: BBox) -> float:
        """Area of overlap with ``other`` (zero if disjoint)."""
        iw = min(self.x2, other.x2) - max(self.x1, other.x1)
        ih = min(self.y2, other.y2) - max(self.y1, other.y1)
        if iw <= 0 or ih <= 0:
            return 0.0
        return iw * ih

    def union_area(self, other: BBox) -> float:
        """Area of the union of the two boxes."""
        return self.area + other.area - self.intersection(other)

    def iou(self, other: BBox) -> float:
        """Intersection-over-union with ``other``, in ``[0, 1]``."""
        inter = self.intersection(other)
        if inter == 0.0:
            return 0.0
        union = self.area + other.area - inter
        if union <= 0.0:
            # Two degenerate (zero-area) boxes at the same location.
            return 0.0
        return inter / union

    def enclosing(self, other: BBox) -> BBox:
        """Smallest box containing both ``self`` and ``other``."""
        return BBox(
            min(self.x1, other.x1),
            min(self.y1, other.y1),
            max(self.x2, other.x2),
            max(self.y2, other.y2),
        )

    def translate(self, dx: float, dy: float) -> BBox:
        """Shift the box by ``(dx, dy)``."""
        return BBox(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)

    def scale(self, factor: float) -> BBox:
        """Scale the box about its center by ``factor`` (> 0)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        cx, cy = self.center
        return BBox.from_center(cx, cy, self.width * factor, self.height * factor)

    def clip(self, frame_width: float, frame_height: float) -> BBox:
        """Clip the box to ``[0, frame_width] x [0, frame_height]``.

        Boxes entirely outside the frame collapse onto the nearest edge,
        yielding a zero-area box rather than raising.
        """
        x1 = min(max(self.x1, 0.0), frame_width)
        y1 = min(max(self.y1, 0.0), frame_height)
        x2 = min(max(self.x2, 0.0), frame_width)
        y2 = min(max(self.y2, 0.0), frame_height)
        return BBox(x1, y1, max(x1, x2), max(y1, y2))

    def contains_point(self, x: float, y: float) -> bool:
        """True if ``(x, y)`` lies inside the box (inclusive edges)."""
        return self.x1 <= x <= self.x2 and self.y1 <= y <= self.y2

    def contains_box(self, other: BBox) -> bool:
        """True if ``other`` lies entirely inside this box."""
        return (
            self.x1 <= other.x1
            and self.y1 <= other.y1
            and self.x2 >= other.x2
            and self.y2 >= other.y2
        )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


def iou(a: BBox, b: BBox) -> float:
    """Module-level alias for :meth:`BBox.iou`."""
    return a.iou(b)


def boxes_to_array(boxes: Sequence[BBox]) -> np.ndarray:
    """Stack boxes into an ``(n, 4)`` float array in corner format."""
    if not boxes:
        return np.zeros((0, 4), dtype=np.float64)
    return np.asarray([b.as_tuple() for b in boxes], dtype=np.float64)


def array_to_boxes(arr: np.ndarray) -> list[BBox]:
    """Convert an ``(n, 4)`` corner-format array back into :class:`BBox` values."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError(f"expected an (n, 4) array, got shape {arr.shape}")
    return [BBox(float(r[0]), float(r[1]), float(r[2]), float(r[3])) for r in arr]


def iou_matrix(
    boxes_a: Sequence[BBox] | np.ndarray, boxes_b: Sequence[BBox] | np.ndarray
) -> np.ndarray:
    """Pairwise IoU between two box collections.

    Args:
        boxes_a: Either a sequence of :class:`BBox` or an ``(n, 4)`` array.
        boxes_b: Either a sequence of :class:`BBox` or an ``(m, 4)`` array.

    Returns:
        An ``(n, m)`` array where entry ``(i, j)`` is the IoU of
        ``boxes_a[i]`` with ``boxes_b[j]``.
    """
    a = boxes_a if isinstance(boxes_a, np.ndarray) else boxes_to_array(boxes_a)
    b = boxes_b if isinstance(boxes_b, np.ndarray) else boxes_to_array(boxes_b)
    if a.size == 0 or b.size == 0:
        return np.zeros((a.shape[0], b.shape[0]), dtype=np.float64)

    # Intersection rectangle per pair, broadcast over the (n, m) grid.
    # Buffers are reused via ``out=`` — same elementwise operations (and
    # therefore bit-identical results), about half the allocations; this
    # matrix is rebuilt for every fused class pool.
    iw = np.maximum(a[:, None, 0], b[None, :, 0])
    ix2 = np.minimum(a[:, None, 2], b[None, :, 2])
    np.subtract(ix2, iw, out=iw)
    np.clip(iw, 0.0, None, out=iw)
    ih = np.maximum(a[:, None, 1], b[None, :, 1])
    np.minimum(a[:, None, 3], b[None, :, 3], out=ix2)
    np.subtract(ix2, ih, out=ih)
    np.clip(ih, 0.0, None, out=ih)
    inter = np.multiply(iw, ih, out=iw)

    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = np.add(area_a[:, None], area_b[None, :], out=ih)
    np.subtract(union, inter, out=union)

    with np.errstate(divide="ignore", invalid="ignore"):
        result = np.where(union > 0.0, inter / union, 0.0)
    return result


def average_boxes(boxes: Iterable[BBox], weights: Sequence[float] | None = None) -> BBox:
    """Weighted coordinate-wise average of boxes (used by fusion methods).

    Args:
        boxes: Boxes to average; must be non-empty.
        weights: Optional per-box non-negative weights; defaults to uniform.

    Returns:
        The weighted-mean box.
    """
    box_list = boxes if isinstance(boxes, list) else list(boxes)
    if not box_list:
        raise ValueError("cannot average an empty collection of boxes")
    # Pure-Python accumulation: fusion averages a handful of boxes per call
    # and sits on the hot path, where array setup would dominate.
    if weights is None:
        weight_list = [1.0] * len(box_list)
    else:
        weight_list = [float(w) for w in weights]
        if len(weight_list) != len(box_list):
            raise ValueError("weights length must match number of boxes")
        for w in weight_list:
            if w < 0:
                raise ValueError("weights must be non-negative")
    total = sum(weight_list)
    if total <= 0:
        raise ValueError("weights must not all be zero")
    x1 = y1 = x2 = y2 = 0.0
    for box, w in zip(box_list, weight_list):
        x1 += box.x1 * w
        y1 += box.y1 * w
        x2 += box.x2 * w
        y2 += box.y2 * w
    return BBox(x1 / total, y1 / total, x2 / total, y2 / total)
