"""Unit tests for the detection environment (costs, caching, scoring)."""

import pytest

from repro.core.environment import DetectionEnvironment, EvaluationStore
from repro.core.scoring import WeightedLogScore
from repro.detection.metrics import mean_average_precision
from repro.engine.backends import SerialBackend
from repro.engine.resilience import ResilientBackend, RetryPolicy
from repro.simulation.detectors import SimulatedDetector
from repro.simulation.faults import FaultSpec, FaultyDetector
from repro.simulation.profiles import make_profile


class TestConstruction:
    def test_pool_properties(self, environment):
        assert environment.num_models == 3
        assert len(environment.all_ensembles) == 7
        assert environment.full_ensemble == environment.model_names

    def test_duplicate_names_rejected(self, lidar):
        det = SimulatedDetector(make_profile("yolov7-tiny", "clear"), seed=1)
        with pytest.raises(ValueError, match="duplicate"):
            DetectionEnvironment([det, det], lidar)

    def test_empty_pool_rejected(self, lidar):
        with pytest.raises(ValueError):
            DetectionEnvironment([], lidar)

    def test_unknown_detector_lookup(self, environment):
        with pytest.raises(KeyError):
            environment.detector("nonexistent")


class TestEvaluate:
    def test_all_ensembles_evaluated(self, environment, simple_frame):
        batch = environment.evaluate(simple_frame, environment.all_ensembles)
        assert set(batch.evaluations) == set(environment.all_ensembles)

    def test_evaluation_fields_consistent(self, environment, simple_frame):
        batch = environment.evaluate(simple_frame, environment.all_ensembles)
        for key, ev in batch.evaluations.items():
            assert ev.key == key
            assert ev.cost_ms == pytest.approx(ev.inference_ms + ev.ensembling_ms)
            assert 0.0 <= ev.normalized_cost <= 1.0
            assert 0.0 <= ev.est_ap <= 1.0
            assert 0.0 <= ev.true_ap <= 1.0
            assert 0.0 <= ev.est_score <= 1.0
            assert 0.0 <= ev.true_score <= 1.0

    def test_cost_monotone_in_ensemble_size(self, environment, simple_frame):
        batch = environment.evaluate(simple_frame, environment.all_ensembles)
        evaluations = batch.evaluations
        for key, ev in evaluations.items():
            for other_key, other in evaluations.items():
                if set(key) < set(other_key):
                    assert ev.cost_ms < other.cost_ms

    def test_detector_billed_once_per_frame(self, environment, simple_frame):
        """Eq. 12/14: union-of-members inference, not per-ensemble."""
        batch = environment.evaluate(simple_frame, environment.all_ensembles)
        singles_ms = sum(
            batch.evaluations[(name,)].inference_ms
            for name in environment.model_names
        )
        assert batch.detector_ms == pytest.approx(singles_ms)
        # Summing inference over all 7 ensembles would be far larger.
        naive = sum(ev.inference_ms for ev in batch.evaluations.values())
        assert naive > batch.detector_ms * 2

    def test_charge_flag_controls_clock(self, environment, simple_frame):
        environment.evaluate(simple_frame, environment.all_ensembles, charge=False)
        assert environment.clock.total_ms == 0.0
        environment.evaluate(simple_frame, environment.all_ensembles, charge=True)
        assert environment.clock.detector_ms > 0.0
        assert environment.clock.reference_ms > 0.0

    def test_reference_billed_once_per_frame(self, environment, simple_frame):
        b1 = environment.evaluate(simple_frame, [environment.full_ensemble])
        b2 = environment.evaluate(simple_frame, [environment.full_ensemble])
        assert b1.reference_ms > 0.0
        assert b2.reference_ms == 0.0

    def test_unknown_model_in_key(self, environment, simple_frame):
        with pytest.raises(KeyError):
            environment.evaluate(simple_frame, [("ghost-model",)])

    def test_empty_keys_rejected(self, environment, simple_frame):
        with pytest.raises(ValueError):
            environment.evaluate(simple_frame, [])

    def test_duplicate_keys_collapsed(self, environment, simple_frame):
        key = (environment.model_names[0],)
        batch = environment.evaluate(simple_frame, [key, key])
        assert len(batch.evaluations) == 1

    def test_deterministic_evaluations(self, detector_pool, lidar, simple_frame):
        def run():
            env = DetectionEnvironment(
                detector_pool, lidar, scoring=WeightedLogScore(0.5)
            )
            return env.evaluate(simple_frame, env.all_ensembles, charge=False)

        a, b = run(), run()
        for key in a.evaluations:
            assert a.evaluations[key].est_score == b.evaluations[key].est_score
            assert a.evaluations[key].true_ap == b.evaluations[key].true_ap


@pytest.fixture(params=["fault-free", "failed-member"])
def frame_environment(request, detector_pool, lidar):
    """A fault-free environment, or one whose first detector is down."""
    if request.param == "fault-free":
        return DetectionEnvironment(detector_pool, lidar)
    down = FaultyDetector(detector_pool[0], FaultSpec(outage=(0, 10**9)), seed=0)
    return DetectionEnvironment(
        [down, *detector_pool[1:]],
        lidar,
        backend=ResilientBackend(
            SerialBackend(), retry=RetryPolicy(max_attempts=1, jitter_ms=0.0)
        ),
    )


class TestPerFrameScoring:
    """One frame's ensembles share member outputs, fused boxes and the
    grouped reference sets; the scores are those of a direct computation."""

    def test_scores_equal_direct_map(self, frame_environment, small_video):
        env = frame_environment
        frame = small_video.frames[3]
        batch = env.evaluate(frame, env.all_ensembles)
        faulty = any(
            isinstance(env.detector(m), FaultyDetector) for m in env.model_names
        )
        assert batch.degraded == faulty
        refs = env.reference_detections(frame)
        truth = frame.ground_truth_detections()
        for ev in batch.evaluations.values():
            assert ev.est_ap == mean_average_precision(
                ev.detections, refs, env.iou_threshold
            )
            assert ev.true_ap == mean_average_precision(
                ev.detections, truth, env.iou_threshold
            )

    def test_one_lookup_per_member_realized_ensemble_and_reference(
        self, frame_environment, small_video
    ):
        env = frame_environment
        frame = small_video.frames[3]
        batch = env.evaluate(frame, env.all_ensembles, charge=True)
        stages = env.store.stats().stages
        union = {m for key in env.all_ensembles for m in key}
        healthy = union - set(batch.failed_models)
        realized = {ev.realized_key for ev in batch.evaluations.values()}
        assert stages["detector"].lookups == len(healthy)
        assert stages["fused"].lookups == len(realized)
        assert stages["reference"].lookups == 1

    def test_evicted_member_output_recomputed_with_one_lookup(
        self, detector_pool, lidar, small_video
    ):
        class EvictingStore(EvaluationStore):
            """Drops every entry (and counter) just before the first
            batched detector read, as if evicted after materialization."""

            evicted = False

            def get_many(self, stage, keys):
                if stage == "detector" and not self.evicted:
                    self.evicted = True
                    self.clear()
                return super().get_many(stage, keys)

        frame = small_video.frames[3]
        env = DetectionEnvironment(detector_pool, lidar, cache=EvictingStore())
        batch = env.evaluate(frame, env.all_ensembles, charge=True)
        detector = env.store.stats().stages["detector"]
        assert detector.lookups == detector.misses == len(env.model_names)
        expected = DetectionEnvironment(detector_pool, lidar).evaluate(
            frame, env.all_ensembles, charge=True
        )
        assert batch.evaluations == expected.evaluations


class TestSharedCache:
    def test_cache_shared_across_environments(self, detector_pool, lidar, simple_frame):
        store = EvaluationStore()
        env1 = DetectionEnvironment(detector_pool, lidar, cache=store)
        env1.evaluate(simple_frame, env1.all_ensembles, charge=False)
        populated = len(store)
        misses_after_first = store.stats().misses
        env2 = DetectionEnvironment(detector_pool, lidar, cache=store)
        env2.evaluate(simple_frame, env2.all_ensembles, charge=False)
        # No new detector inference happened: only cache hits, no new
        # entries, no new misses.
        assert len(store) == populated
        assert store.stats().misses == misses_after_first
        assert store.stats().hits > 0

    def test_clocks_are_independent(self, detector_pool, lidar, simple_frame):
        cache = EvaluationStore()
        env1 = DetectionEnvironment(detector_pool, lidar, cache=cache)
        env2 = DetectionEnvironment(detector_pool, lidar, cache=cache)
        env1.evaluate(simple_frame, env1.all_ensembles, charge=True)
        assert env2.clock.total_ms == 0.0


class TestNormalization:
    def test_normalized_cost_clipped(self, environment):
        assert environment.normalized_cost(1e9) == 1.0
        assert environment.normalized_cost(0.0) == 0.0

    def test_negative_cost_rejected(self, environment):
        with pytest.raises(ValueError):
            environment.normalized_cost(-1.0)

    def test_full_ensemble_below_cmax(self, environment, simple_frame):
        batch = environment.evaluate(simple_frame, [environment.full_ensemble])
        ev = batch.evaluations[environment.full_ensemble]
        assert ev.normalized_cost < 1.0


class TestOverhead:
    def test_charge_overhead(self, environment):
        environment.charge_overhead(31)
        assert environment.clock.overhead_ms > 0.0

    def test_negative_overhead_rejected(self, environment):
        with pytest.raises(ValueError):
            environment.charge_overhead(-1)


class TestPrefetch:
    def test_prefetch_counts_and_warms_every_output(
        self, detector_pool, lidar, small_video
    ):
        env = DetectionEnvironment(detectors=detector_pool, reference=lidar)
        frames = small_video.frames[:6]
        executed = env.prefetch(frames)
        # One job per (model, frame) plus one REF job per frame.
        assert executed == len(frames) * (len(detector_pool) + 1)
        for frame in frames:
            for model in env.model_names:
                assert env.store.contains("detector", (frame.key, model))
            assert env.store.contains("reference", (frame.key, "lidar-ref"))
        # Everything is warm: a second prefetch does nothing.
        assert env.prefetch(frames) == 0

    def test_prefetch_is_result_neutral(
        self, detector_pool, lidar, small_video
    ):
        from repro.core.mes import MES

        frames = small_video.frames[:10]
        plain_env = DetectionEnvironment(
            detectors=detector_pool, reference=lidar
        )
        plain = MES().run(plain_env, frames)
        warm_env = DetectionEnvironment(
            detectors=detector_pool, reference=lidar
        )
        warm_env.prefetch(frames)
        warmed = MES().run(warm_env, frames)
        # Prefetch moves work earlier; it must not move any number.
        assert warmed.records == plain.records
        assert warm_env.clock.snapshot() == plain_env.clock.snapshot()

    def test_prefetch_makes_later_evaluations_pure_hits(
        self, detector_pool, lidar, small_video
    ):
        env = DetectionEnvironment(detectors=detector_pool, reference=lidar)
        frames = small_video.frames[:4]
        env.prefetch(frames)
        before = env.store.stats()
        for frame in frames:
            env.evaluate(frame, [env.full_ensemble])
        after = env.store.stats()
        detector = after.stages["detector"]
        # Evaluation looked detector outputs up without recomputing any.
        assert detector.misses == before.stages["detector"].misses

    def test_prefetch_model_subset(self, detector_pool, lidar, small_video):
        env = DetectionEnvironment(detectors=detector_pool, reference=lidar)
        frame = small_video.frames[0]
        only = env.model_names[0]
        env.prefetch([frame], models=[only], include_reference=False)
        assert env.store.contains("detector", (frame.key, only))
        for other in env.model_names[1:]:
            assert not env.store.contains("detector", (frame.key, other))
        assert not env.store.contains("reference", (frame.key, "lidar-ref"))

    def test_prefetch_unknown_model_rejected(
        self, detector_pool, lidar, small_video
    ):
        env = DetectionEnvironment(detectors=detector_pool, reference=lidar)
        with pytest.raises(KeyError, match="unknown detector"):
            env.prefetch(small_video.frames[:1], models=["resnet-900"])
