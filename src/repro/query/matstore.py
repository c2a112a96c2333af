"""The persistent materialized detection store (cross-query reuse tier).

:class:`MaterializedDetectionStore` implements the engine's
:class:`~repro.engine.store.PersistentTier` protocol on disk: every
deterministic evaluation stage — detector outputs keyed by
``(video, frame, detector)``, reference outputs, fused boxes, estimated
and true AP — is appended to versioned JSONL segments under a directory,
so overlapping queries (in this process or a later one) skip already-paid
inference entirely.

Reuse is bit-for-bit reproducible: values are serialized through JSON,
whose float round-trip is exact in Python (``repr`` emits the shortest
string that parses back to the same double), and every key carries the
in-memory store's *context tag* (fusion method + parameters, reference
model, IoU threshold), so entries produced under different configurations
never collide.

On-disk layout::

    <root>/MANIFEST.json       {"format_version": 2}
    <root>/segment-00000.jsonl one record per line

Each record line (format 2) is ``<sha> <body>``: ``body`` is the compact
JSON array ``[stage, key, value]`` and ``sha`` the 16-hex sha256 prefix of
exactly the body bytes written.  Payloads are positional — a detection is
``[x1, y1, x2, y2, confidence, label, source, object_id]``, a
``FrameDetections`` is ``[frame_index, source, detections]`` and a
``DetectorOutput`` is ``[detections, inference_time_ms]``; AP values are
bare floats.  Each record is encoded once on write and parsed once on
open: the checksum is verified over the raw bytes before any JSON is
parsed, and values are rebuilt through the validating ``BBox`` /
``Detection`` / ``FrameDetections`` constructors.  Records failing the
checksum — or failing to decode at all — are skipped and counted, never
trusted.  A manifest with any other ``format_version`` (format 1 included)
refuses to open: the directory is a recomputable cache, so deleting it
is the upgrade path.

Each session creates its own segment on first write (``O_EXCL``, taking
the next free number), so concurrent writers, in this process or others,
never share a file.  Every record reaches the OS in one ``write(2)`` on an
``O_APPEND`` descriptor: a killed process loses at most the record being
written (skipped as torn on the next open), but nothing is fsynced, so a
power loss can drop records the OS had not yet written back.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from collections.abc import Callable, Hashable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.detection.boxes import BBox
from repro.detection.types import Detection, FrameDetections
from repro.obs import NULL_OBS, Counter, Observability
from repro.simulation.detectors import DetectorOutput

__all__ = [
    "FORMAT_VERSION",
    "MATERIALIZED_STAGES",
    "MaterializationError",
    "MatStoreStats",
    "MaterializedDetectionStore",
]

#: On-disk format version; bumped on any incompatible record change.
FORMAT_VERSION = 2

#: Stages this tier persists — every deterministic evaluation stage.
#: Persisting all five (not just detector outputs) is what makes warm
#: re-runs fast: profiling shows detector inference is only ~35% of query
#: wall time, with fusion and AP computation making up most of the rest.
MATERIALIZED_STAGES: tuple[str, ...] = (
    "detector",
    "reference",
    "fused",
    "est_ap",
    "true_ap",
)

_MANIFEST = "MANIFEST.json"
_SHA_HEX_LEN = 16
#: Compact and canonical: sort_keys keeps any JSON object in a record in
#: one order (RPR011); built once, not per record as ``json.dumps`` would.
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_SEGMENT_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_APPEND


class MaterializationError(RuntimeError):
    """Raised when a store directory cannot be opened safely."""


@dataclass(frozen=True)
class MatStoreStats:
    """Counters snapshot of one :class:`MaterializedDetectionStore`.

    Attributes:
        records: Usable records currently indexed (loaded + stored).
        segments: Segment files present when the store was opened.
        corrupt_records: Records skipped at load time (bad JSON, checksum
            mismatch, unknown stage, or undecodable payload).
        hits / misses: :meth:`~MaterializedDetectionStore.load` outcomes.
        stores: New records appended by this session.
    """

    records: int
    segments: int
    corrupt_records: int
    hits: int
    misses: int
    stores: int

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "records": self.records,
            "segments": self.segments,
            "corrupt_records": self.corrupt_records,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "hit_rate": self.hit_rate,
        }


# ---- payload codecs -----------------------------------------------------
#
# Values round-trip through positional JSON arrays.  Floats are exact
# (repr shortest round-trip); tuples decode back to tuples so
# reconstructed objects are equal — and hash-equal — to the originals.


def _encode_detections(value: FrameDetections) -> list[Any]:
    return [
        value.frame_index,
        value.source,
        [
            [
                d.box.x1,
                d.box.y1,
                d.box.x2,
                d.box.y2,
                d.confidence,
                d.label,
                d.source,
                d.object_id,
            ]
            for d in value.detections
        ],
    ]


def _decode_detections(payload: Any) -> FrameDetections:
    frame_index, source, rows = payload
    return FrameDetections(
        int(frame_index),
        tuple(
            [
                Detection(
                    BBox(float(x1), float(y1), float(x2), float(y2)),
                    float(confidence),
                    label,
                    det_source,
                    object_id,
                )
                for x1, y1, x2, y2, confidence, label, det_source, object_id in rows
            ]
        ),
        source,
    )


def _decode_output(payload: Any) -> DetectorOutput:
    detections, inference_time_ms = payload
    return DetectorOutput(
        _decode_detections(detections), float(inference_time_ms)
    )


def _encode_value(stage: str, value: Any) -> Any:
    if stage in ("detector", "reference"):
        return [_encode_detections(value.detections), value.inference_time_ms]
    if stage == "fused":
        return _encode_detections(value)
    # est_ap / true_ap are bare floats.
    return float(value)


_DECODERS: dict[str, Callable[[Any], Any]] = {
    "detector": _decode_output,
    "reference": _decode_output,
    "fused": _decode_detections,
    "est_ap": float,
    "true_ap": float,
}


def _decode_key(obj: Any) -> Hashable:
    """Lists back to tuples at any depth (the encoder wrote tuples as lists).

    Scalars are passed through without a call, so the environment's keys
    (``(frame, (models...), tag)``, nested at most twice) cost one call per
    level.
    """
    if type(obj) is not list:
        return obj
    return tuple([_decode_key(part) if type(part) is list else part for part in obj])


def _checksum(body: bytes) -> bytes:
    return hashlib.sha256(body).hexdigest()[:_SHA_HEX_LEN].encode("ascii")


class MaterializedDetectionStore:
    """Disk-backed cross-query detection store (a persistent store tier).

    Attach one to an :class:`~repro.engine.store.EvaluationStore` (or pass
    a directory to ``QueryEngine(materialize_dir=...)``) and every
    deterministic stage value computed by any query is written through to
    disk; later queries — in this process or another — promote those
    records instead of re-running inference.

    Thread-safe (one internal lock guards the index and the segment
    descriptor).  The instance is a context manager; :meth:`close`
    closes the session segment.

    Args:
        root: Directory to hold the manifest and segments (created if
            missing).
        obs: Observability facade; hit/miss counters flow through it.

    Raises:
        MaterializationError: If the directory's manifest is unreadable or
            declares another format version (refusing, not guessing).
    """

    def __init__(
        self, root: str | Path, obs: Observability = NULL_OBS
    ) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._obs = obs
        self._lock = threading.RLock()
        self._index: dict[tuple[str, Hashable], Any] = {}
        self._counters: dict[tuple[str, bool], Counter] = {}
        self._corrupt = 0
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._fd: int | None = None
        self._open_manifest()
        segments = sorted(self._root.glob("segment-*.jsonl"))
        self._segments_loaded = len(segments)
        self._next_segment = len(segments)
        for segment in segments:
            self._load_segment(segment)

    # ---- open/close -----------------------------------------------------

    def _open_manifest(self) -> None:
        """Check the manifest, creating it first if the directory is new."""
        path = self._root / _MANIFEST
        try:
            text = path.read_text("utf-8")
        except FileNotFoundError:
            if self._create_manifest(path):
                return
            text = path.read_text("utf-8")
        try:
            version = int(json.loads(text)["format_version"])
        except (ValueError, TypeError, KeyError) as exc:
            raise MaterializationError(
                f"unreadable manifest {path}: {exc}"
            ) from exc
        if version != FORMAT_VERSION:
            raise MaterializationError(
                f"{path} has format_version {version}; this build reads only "
                f"{FORMAT_VERSION}.  The directory is a recomputable cache: "
                f"delete {self._root} and the next query rebuilds it"
            )

    def _create_manifest(self, path: Path) -> bool:
        """Create the manifest exclusively; ``False`` if another session won.

        The manifest is written to a private temporary file and hard-linked
        into place: the link is atomic and fails if a manifest exists, so
        concurrent openers never overwrite one or read a partial one.
        """
        fd, tmp = tempfile.mkstemp(prefix=".manifest-", dir=self._root)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(
                    json.dumps({"format_version": FORMAT_VERSION}, sort_keys=True)
                    + "\n"
                )
            os.link(tmp, path)
        except FileExistsError:
            return False
        finally:
            os.unlink(tmp)
        return True

    def _load_segment(self, path: Path) -> None:
        for line in path.read_bytes().split(b"\n"):
            if not line.strip():
                continue
            try:
                sha, _, body = line.partition(b" ")
                if sha != _checksum(body):
                    raise ValueError("checksum mismatch")
                stage, key, value = json.loads(body.decode("utf-8"))
                decode = _DECODERS.get(stage)
                if decode is None:
                    raise ValueError(f"unknown stage {stage!r}")
                self._index[(stage, _decode_key(key))] = decode(value)  # repro-lint: disable=RPR015 -- persistent disk-mirroring index: one entry per record in the segments on disk, not per call over service uptime; the directory is a recomputable cache whose size its owner bounds by deleting it
            except (ValueError, TypeError) as exc:
                # A torn write or bit rot: skip the record — the engine
                # recomputes it deterministically — but never trust it.
                self._corrupt += 1
                self._obs.event(
                    "matstore-corrupt-record",
                    segment=path.name,
                    error=str(exc),
                )

    def _segment_fd(self) -> int:
        """This session's segment descriptor, created on first write.

        ``O_EXCL`` makes creation atomic: a number another session took
        since this one opened raises ``FileExistsError``, and the next
        number is tried instead.
        """
        fd = self._fd
        while fd is None:
            path = self._root / f"segment-{self._next_segment:05d}.jsonl"
            self._next_segment += 1
            try:
                fd = os.open(path, _SEGMENT_FLAGS, 0o644)
            except FileExistsError:
                continue
        self._fd = fd
        return fd

    def close(self) -> None:
        """Close this session's segment (idempotent)."""
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def __enter__(self) -> MaterializedDetectionStore:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ---- PersistentTier protocol ----------------------------------------

    def accepts(self, stage: str) -> bool:
        return stage in MATERIALIZED_STAGES

    def _counter(self, stage: str, hit: bool) -> Counter:
        """The hit or miss counter of one stage, resolved once."""
        counter = self._counters.get((stage, hit))
        if counter is None:
            registry = self._obs.metrics
            assert registry is not None  # guarded by metrics_on at call site
            counter = registry.counter(
                "repro_matstore_hits_total"
                if hit
                else "repro_matstore_misses_total",
                "Materialized-store lookups by outcome",
                stage=stage,
            )
            self._counters[(stage, hit)] = counter
        return counter

    def load(self, stage: str, key: Hashable) -> Any | None:
        with self._lock:
            value = self._index.get((stage, key))
            hit = value is not None
            if hit:
                self._hits += 1
            else:
                self._misses += 1
            if self._obs.metrics_on:
                self._counter(stage, hit).inc()
            return value

    def store(self, stage: str, key: Hashable, value: Any) -> None:
        if not self.accepts(stage):
            raise ValueError(f"stage {stage!r} is not materializable")
        with self._lock:
            full_key = (stage, key)
            if full_key in self._index:
                return
            # The encoder writes tuple keys as lists and rejects key parts
            # JSON cannot hold with TypeError.
            body = _ENCODE([stage, key, _encode_value(stage, value)]).encode("ascii")
            line = b"%s %s\n" % (_checksum(body), body)
            fd = self._segment_fd()
            if os.write(fd, line) != len(line):
                # A short write (e.g. a full disk) leaves a torn record
                # that the next open skips; later records go to a fresh
                # segment so they do not extend the torn line.
                self.close()
                raise OSError(f"short write of a {stage!r} record")
            self._index[full_key] = value
            self._stores += 1

    # ---- introspection --------------------------------------------------

    @property
    def root(self) -> Path:
        return self._root

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def stats(self) -> MatStoreStats:
        with self._lock:
            return MatStoreStats(
                records=len(self._index),
                segments=self._segments_loaded,
                corrupt_records=self._corrupt,
                hits=self._hits,
                misses=self._misses,
                stores=self._stores,
            )

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"MaterializedDetectionStore(root={str(self._root)!r}, "
                f"records={len(self._index)}, corrupt={self._corrupt})"
            )
