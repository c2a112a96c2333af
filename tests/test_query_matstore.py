"""Tests for the persistent materialized detection store."""

from __future__ import annotations

import hashlib
import json
import os
import sys
import threading

import pytest
from tests.conftest import make_detection

from repro.detection.types import FrameDetections
from repro.query.matstore import (
    FORMAT_VERSION,
    MATERIALIZED_STAGES,
    MaterializationError,
    MaterializedDetectionStore,
)
from repro.simulation.detectors import DetectorOutput


def _sample_output() -> DetectorOutput:
    detections = FrameDetections(
        frame_index=3,
        detections=(
            make_detection(label="car", conf=0.875, x1=10.5, y1=20.25),
            make_detection(label="bus", conf=0.5, x1=0.0, y1=1.0, source="a"),
        ),
        source="det-a",
    )
    return DetectorOutput(detections=detections, inference_time_ms=12.125)


class TestRoundTrip:
    def test_detector_output_roundtrip_across_instances(self, tmp_path):
        original = _sample_output()
        with MaterializedDetectionStore(tmp_path) as store:
            store.store("detector", ("vid#3", "det-a"), original)
        reopened = MaterializedDetectionStore(tmp_path)
        value = reopened.load("detector", ("vid#3", "det-a"))
        assert value == original  # bit-for-bit: dataclass equality on floats

    def test_every_stage_roundtrips(self, tmp_path):
        output = _sample_output()
        keys = {
            "detector": ("vid#0", "det-a"),
            "reference": ("vid#0", "lidar-ref"),
            "fused": ("vid#0", ("det-a", "det-b"), "wbf()"),
            "est_ap": ("vid#0", ("det-a",), "wbf()|iou=0.5|ref=lidar-ref"),
            "true_ap": ("vid#0", ("det-a",), "wbf()|iou=0.5"),
        }
        values = {
            "detector": output,
            "reference": output,
            "fused": output.detections,
            "est_ap": 0.6251278459354782,
            "true_ap": 0.1,
        }
        with MaterializedDetectionStore(tmp_path) as store:
            for stage in MATERIALIZED_STAGES:
                store.store(stage, keys[stage], values[stage])
        reopened = MaterializedDetectionStore(tmp_path)
        for stage in MATERIALIZED_STAGES:
            assert reopened.load(stage, keys[stage]) == values[stage]

    def test_tuple_keys_survive_json(self, tmp_path):
        """Ensemble keys (nested tuples) must decode back hash-equal."""
        key = ("vid#7", ("a", "b", "c"), "wbf(conf=0.1)")
        with MaterializedDetectionStore(tmp_path) as store:
            store.store("est_ap", key, 0.25)
        reopened = MaterializedDetectionStore(tmp_path)
        assert reopened.load("est_ap", key) == 0.25

    def test_duplicate_store_is_idempotent(self, tmp_path):
        with MaterializedDetectionStore(tmp_path) as store:
            store.store("true_ap", ("v#0", ("a",), "t"), 0.5)
            store.store("true_ap", ("v#0", ("a",), "t"), 0.5)
            assert store.stats().stores == 1
        segment = next(tmp_path.glob("segment-*.jsonl"))
        assert len(segment.read_text().splitlines()) == 1

    def test_unknown_stage_rejected(self, tmp_path):
        store = MaterializedDetectionStore(tmp_path)
        assert not store.accepts("bogus")
        with pytest.raises(ValueError):
            store.store("bogus", "k", 1.0)


class TestIntegrity:
    def test_corrupt_record_skipped_and_counted(self, tmp_path):
        with MaterializedDetectionStore(tmp_path) as store:
            store.store("true_ap", ("v#0", ("a",), "t"), 0.5)
            store.store("true_ap", ("v#1", ("a",), "t"), 0.7)
        segment = next(tmp_path.glob("segment-*.jsonl"))
        lines = segment.read_text().splitlines()
        # Flip the stored value without updating the checksum.
        sha, body = lines[0].split(" ", 1)
        assert body.endswith(",0.5]")
        tampered = f"{sha} {body[: -len('0.5]')]}0.9999]"
        segment.write_text(tampered + "\n" + lines[1] + "\n")
        reopened = MaterializedDetectionStore(tmp_path)
        assert reopened.load("true_ap", ("v#0", ("a",), "t")) is None
        assert reopened.load("true_ap", ("v#1", ("a",), "t")) == 0.7
        assert reopened.stats().corrupt_records == 1

    @pytest.mark.parametrize(
        "record",
        [
            # A detection row one field short.
            ["fused", ["v#0", ["a"], "t"],
             [0, "a", [[0.0, 0.0, 1.0, 1.0, 0.5, "car", "a"]]]],
            # Confidence out of range.
            ["fused", ["v#0", ["a"], "t"],
             [0, "a", [[0.0, 0.0, 1.0, 1.0, 1.5, "car", "a", None]]]],
            # Inverted box corners.
            ["fused", ["v#0", ["a"], "t"],
             [0, "a", [[2.0, 0.0, 1.0, 1.0, 0.5, "car", "a", None]]]],
            ["detector", ["v#0", "a"], [[0, "a", []]]],
            ["true_ap", ["v#0", ["a"], "t"], "not a number"],
            ["bogus", ["v#0"], 0.5],
            ["true_ap", {"v#0": 1}, 0.5],
            {"stage": "true_ap"},
        ],
    )
    def test_valid_checksum_undecodable_payload_skipped(self, tmp_path, record):
        """A well-formed line whose payload fails decoding is counted, not raised."""
        with MaterializedDetectionStore(tmp_path) as store:
            store.store("true_ap", ("v#1", ("a",), "t"), 0.7)
        segment = next(tmp_path.glob("segment-*.jsonl"))
        body = json.dumps(record, sort_keys=True, separators=(",", ":"))
        sha = hashlib.sha256(body.encode()).hexdigest()[:16]
        segment.write_text(f"{sha} {body}\n" + segment.read_text())
        reopened = MaterializedDetectionStore(tmp_path)
        assert reopened.stats().corrupt_records == 1
        assert len(reopened) == 1
        assert reopened.load("true_ap", ("v#1", ("a",), "t")) == 0.7

    def test_line_layout(self, tmp_path):
        """``<16-hex sha256 of the body> <compact [stage, key, value]>``."""
        with MaterializedDetectionStore(tmp_path) as store:
            store.store("detector", ("vid#3", "det-a"), _sample_output())
        segment = next(tmp_path.glob("segment-*.jsonl"))
        line = segment.read_bytes()
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        sha, body = line[:-1].split(b" ", 1)
        assert sha.decode() == hashlib.sha256(body).hexdigest()[:16]
        stage, key, value = json.loads(body)
        assert (stage, key) == ("detector", ["vid#3", "det-a"])
        detections, inference_time_ms = value
        assert inference_time_ms == 12.125
        assert detections[:2] == [3, "det-a"]
        assert detections[2][0] == [10.5, 20.25, 50.0, 50.0, 0.875, "car", None, None]

    def test_torn_write_skipped(self, tmp_path):
        with MaterializedDetectionStore(tmp_path) as store:
            store.store("true_ap", ("v#0", ("a",), "t"), 0.5)
        segment = next(tmp_path.glob("segment-*.jsonl"))
        intact = segment.read_text()
        # A killed writer leaves the start of a record and no newline.
        segment.write_text(intact + intact[:30])
        reopened = MaterializedDetectionStore(tmp_path)
        assert reopened.load("true_ap", ("v#0", ("a",), "t")) == 0.5
        assert reopened.stats().corrupt_records == 1

    def test_short_write_raises_and_moves_to_a_fresh_segment(
        self, tmp_path, monkeypatch
    ):
        real_write = os.write
        store = MaterializedDetectionStore(tmp_path)
        monkeypatch.setattr(
            os, "write", lambda fd, data: real_write(fd, data[: len(data) // 2])
        )
        with pytest.raises(OSError, match="short write"):
            store.store("true_ap", ("v#0", ("a",), "t"), 0.5)
        monkeypatch.setattr(os, "write", real_write)
        store.store("true_ap", ("v#1", ("a",), "t"), 0.7)
        store.close()
        assert len(sorted(tmp_path.glob("segment-*.jsonl"))) == 2
        reopened = MaterializedDetectionStore(tmp_path)
        assert reopened.stats().corrupt_records == 1
        assert reopened.load("true_ap", ("v#0", ("a",), "t")) is None
        assert reopened.load("true_ap", ("v#1", ("a",), "t")) == 0.7

    def test_blank_lines_ignored(self, tmp_path):
        with MaterializedDetectionStore(tmp_path) as store:
            store.store("true_ap", ("v#0", ("a",), "t"), 0.5)
        segment = next(tmp_path.glob("segment-*.jsonl"))
        segment.write_text(segment.read_text() + "\n\n")
        reopened = MaterializedDetectionStore(tmp_path)
        assert reopened.stats().corrupt_records == 0
        assert len(reopened) == 1


class TestVersioning:
    def test_manifest_written_on_create(self, tmp_path):
        store = MaterializedDetectionStore(tmp_path)
        manifest = json.loads((tmp_path / "MANIFEST.json").read_text())
        assert manifest["format_version"] == FORMAT_VERSION
        # Creation is exclusive: a session that loses the race to create
        # the manifest reports it, and neither leaves a temporary file.
        assert not store._create_manifest(tmp_path / "MANIFEST.json")
        assert [p.name for p in tmp_path.iterdir()] == ["MANIFEST.json"]

    def test_future_version_refused(self, tmp_path):
        (tmp_path / "MANIFEST.json").write_text(
            json.dumps({"format_version": FORMAT_VERSION + 1})
        )
        with pytest.raises(MaterializationError, match="format_version"):
            MaterializedDetectionStore(tmp_path)

    def test_version_1_refused_as_deletable_cache(self, tmp_path):
        (tmp_path / "MANIFEST.json").write_text('{"format_version": 1}\n')
        (tmp_path / "segment-00000.jsonl").write_text(
            '{"key": ["v#0"], "sha": "0", "stage": "true_ap", "value": 0.5}\n'
        )
        with pytest.raises(
            MaterializationError, match=r"format_version 1.*recomputable cache: delete"
        ):
            MaterializedDetectionStore(tmp_path)

    def test_garbage_manifest_refused(self, tmp_path):
        (tmp_path / "MANIFEST.json").write_text("not json at all")
        with pytest.raises(MaterializationError):
            MaterializedDetectionStore(tmp_path)

    def test_each_session_gets_its_own_segment(self, tmp_path):
        with MaterializedDetectionStore(tmp_path) as store:
            store.store("true_ap", ("v#0", ("a",), "t"), 0.5)
        with MaterializedDetectionStore(tmp_path) as store:
            store.store("true_ap", ("v#1", ("a",), "t"), 0.6)
        assert len(sorted(tmp_path.glob("segment-*.jsonl"))) == 2
        reopened = MaterializedDetectionStore(tmp_path)
        assert len(reopened) == 2

    def test_read_only_session_creates_no_segment(self, tmp_path):
        with MaterializedDetectionStore(tmp_path) as store:
            store.load("true_ap", ("absent",))
        assert not list(tmp_path.glob("segment-*.jsonl"))

    def test_concurrent_sessions_write_separate_segments(self, tmp_path):
        first = MaterializedDetectionStore(tmp_path)
        second = MaterializedDetectionStore(tmp_path)
        first.store("true_ap", ("v#0", ("a",), "t"), 0.5)
        second.store("true_ap", ("v#1", ("a",), "t"), 0.6)
        first.close()
        second.close()
        assert len(sorted(tmp_path.glob("segment-*.jsonl"))) == 2
        reopened = MaterializedDetectionStore(tmp_path)
        assert reopened.stats().corrupt_records == 0
        assert reopened.load("true_ap", ("v#0", ("a",), "t")) == 0.5
        assert reopened.load("true_ap", ("v#1", ("a",), "t")) == 0.6

    def test_threaded_sessions_stress(self, tmp_path):
        """More sessions than cores race to create the manifest, then to
        create their segments; every record must come back."""
        sessions, records = 6, 40
        before_open = threading.Barrier(sessions, timeout=30)
        before_write = threading.Barrier(sessions, timeout=30)
        errors: list[Exception] = []

        def session(n: int) -> None:
            try:
                before_open.wait()
                with MaterializedDetectionStore(tmp_path) as store:
                    before_write.wait()
                    for i in range(records):
                        store.store("true_ap", (f"v#{i}", (f"s{n}",), "t"), i / records)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=session, args=(n,)) for n in range(sessions)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(sorted(tmp_path.glob("segment-*.jsonl"))) == sessions
        reopened = MaterializedDetectionStore(tmp_path)
        assert reopened.stats().corrupt_records == 0
        assert len(reopened) == sessions * records
        assert reopened.load("true_ap", ("v#7", ("s5",), "t")) == 7 / records


class TestStats:
    def test_hit_miss_counters(self, tmp_path):
        store = MaterializedDetectionStore(tmp_path)
        store.store("true_ap", ("v#0", ("a",), "t"), 0.5)
        assert store.load("true_ap", ("v#0", ("a",), "t")) == 0.5
        assert store.load("true_ap", ("absent",)) is None
        stats = store.stats()
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.stores == 1
        assert stats.hit_rate == pytest.approx(0.5)
        assert json.loads(json.dumps(stats.as_dict()))["records"] == 1
