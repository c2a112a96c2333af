"""The detection environment: detectors x frames x REF, with cost metering.

:class:`DetectionEnvironment` is the runtime every selection algorithm runs
against.  It owns the detector pool ``M``, the reference model REF, the
fusion method, the scoring function, and a simulated clock, and exposes one
operation — :meth:`DetectionEnvironment.evaluate` — that applies an
arbitrary set of ensembles to a frame while charging costs exactly as the
paper's Eq. (12)/(14) prescribe:

* each member detector is inferred (and billed) **once** per frame no
  matter how many evaluated ensembles contain it — single-model outputs are
  materialized and reused;
* each evaluated ensemble pays only its fusion cost ``c^e``;
* the reference model is inferred (and billed) once per processed frame.

Evaluations report both the *estimated* score (AP against REF — what the
algorithms may see, Eq. 3) and the *true* score (AP against ground truth —
what the experiments report, Eq. 2).

Execution is layered on the :mod:`repro.engine` package:

* the union-of-member inferences (and REF) of one frame run through an
  :class:`~repro.engine.backends.ExecutionBackend` — serially by default,
  concurrently with the thread/process backends.  Backends change wall
  clock only; every simulated charge, score and selection is identical
  across backends.
* results are memoized in a bounded, LRU-evicting, thread-safe
  :class:`~repro.engine.store.EvaluationStore`.  Store keys carry a
  *context tag* naming everything the cached value depends on beyond the
  frame — the producing detector, the fusion method and its parameters,
  the reference model, the IoU threshold — so a store (and any persistent
  tier attached to it) can safely be shared across environments with
  *different* configurations: entries from different contexts never
  collide, and because simulated detectors are deterministic per frame a
  hit is always bit-identical to a recompute.  Sharing a store via the
  ``cache`` parameter makes multi-algorithm experiments several times
  faster without changing any result; attaching a persistent tier (see
  :class:`~repro.query.matstore.MaterializedDetectionStore`) extends the
  same reuse across queries and across processes.

How parallel hardware is *billed* is an explicit policy, not a backend
side effect: with ``billing="sum"`` (the paper's Eq. 12/14) the union
members' inference times add up; ``billing="max"`` charges only the
slowest member, modeling a deployment where members run on parallel GPUs.

Execution is also allowed to *fail*: backends report per-job statuses
instead of raising, and :meth:`DetectionEnvironment.evaluate` degrades
gracefully when members are down — each requested ensemble is *realized*
as its healthy subset (fusion recomputed over the surviving members,
billed accordingly), requested ensembles with no healthy member are
dropped, and a frame with nothing left to score raises
:class:`~repro.engine.pipeline.FrameEvaluationError` for the pipeline to
abandon.  Fault-free runs are bit-for-bit unaffected: every realized
ensemble equals its requested one and all charges are identical.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, replace
from functools import partial

from repro.core.ensembles import EnsembleKey, enumerate_ensembles, make_key
from repro.core.scoring import ScoringFunction, WeightedLogScore
from repro.detection.metrics import ReferenceBoxes, mean_average_precision
from repro.detection.types import FrameDetections
from repro.engine.backends import ExecutionBackend, InferenceJob, SerialBackend
from repro.engine.pipeline import FrameEvaluationError
from repro.engine.resilience import FaultStats
from repro.engine.store import CacheStats, EvaluationStore
from repro.ensembling.base import EnsembleMethod
from repro.ensembling.wbf import WeightedBoxesFusion
from repro.obs import NULL_OBS, Observability
from repro.simulation.clock import CostModel, SimulatedClock
from repro.simulation.detectors import DetectorOutput
from repro.simulation.video import Frame

__all__ = [
    "method_tag",
    "EnsembleEvaluation",
    "EvaluationBatch",
    "EvaluationStore",
    "EvaluationCache",
    "CacheStats",
    "FaultStats",
    "FrameEvaluationError",
    "BILLING_POLICIES",
    "DetectionEnvironment",
]

#: Detector billing policies: ``"sum"`` adds the union members' inference
#: times (Eq. 12/14 — one device runs them back to back); ``"max"`` charges
#: the slowest member only (members run on parallel devices).
BILLING_POLICIES: tuple[str, ...] = ("sum", "max")

#: Backwards-compatible alias: the old raw-dict ``EvaluationCache`` is gone;
#: the name now resolves to the bounded, instrumented store.
EvaluationCache = EvaluationStore


def method_tag(method: object) -> str:
    """A deterministic identity string for a fusion/scoring method.

    Combines the method's declared ``name`` (or class name) with its
    scalar constructor state, so two instances configured identically get
    the same tag and differently configured ones never share cache keys.
    """
    name = getattr(method, "name", None) or type(method).__name__
    try:
        state = vars(method)
    except TypeError:
        state = {}
    params = ",".join(
        f"{key}={value!r}"
        for key, value in sorted(state.items())
        if isinstance(value, (bool, int, float, str))
    )
    return f"{name}({params})"


@dataclass(frozen=True)
class EnsembleEvaluation:
    """Everything known about applying one ensemble to one frame.

    Attributes:
        key: The ensemble.
        detections: Fused detection output ``D_{S|v}``.
        inference_ms: Sum of member inference times (as if ``S`` ran alone).
        ensembling_ms: Fusion cost ``c^e_{S|v}``.
        cost_ms: ``c_{S|v}`` per Eq. (1).
        normalized_cost: ``c_hat_{S|v} = c_{S|v} / c_max``, clipped to
            ``[0, 1]``.
        est_ap: AP against the reference model (Eq. 3).
        est_score: Score from estimated AP — what the bandit observes.
        true_ap: AP against ground truth (Eq. 2).
        true_score: Score from true AP — what experiments report.
        realized: The healthy subset that actually ran.  Empty (the
            default) means the full requested ensemble ran; when members
            failed, every detection/cost/score field describes this
            subset instead of ``key``.
    """

    key: EnsembleKey
    detections: FrameDetections
    inference_ms: float
    ensembling_ms: float
    cost_ms: float
    normalized_cost: float
    est_ap: float
    est_score: float
    true_ap: float
    true_score: float
    realized: EnsembleKey = ()

    @property
    def realized_key(self) -> EnsembleKey:
        """The ensemble whose output this evaluation describes."""
        return self.realized if self.realized else self.key

    @property
    def degraded(self) -> bool:
        """True when faults forced a proper subset of the request."""
        return bool(self.realized) and self.realized != self.key


@dataclass(frozen=True)
class EvaluationBatch:
    """Result of evaluating a set of ensembles on one frame.

    Attributes:
        evaluations: Per-ensemble evaluations.
        detector_ms: Billable detector time this batch (union of member
            models, combined per the environment's billing policy —
            summed for ``"sum"`` per Eq. 12/14, the slowest member for
            ``"max"``).
        ensembling_ms: Billable fusion time this batch (every evaluated
            ensemble).
        reference_ms: REF inference time incurred by this batch (zero if
            this frame's REF output was already paid for).
        failed_models: Union members that produced no output this frame
            (job failed, timed out, or was skipped by an open circuit).
        ensembles_dropped: Requested ensembles with no healthy member,
            absent from ``evaluations``.
    """

    evaluations: dict[EnsembleKey, EnsembleEvaluation]
    detector_ms: float
    ensembling_ms: float
    reference_ms: float
    failed_models: tuple[str, ...] = ()
    ensembles_dropped: int = 0

    @property
    def billable_ms(self) -> float:
        """Time counted against a TCVI budget for this iteration."""
        return self.detector_ms + self.ensembling_ms

    @property
    def degraded(self) -> bool:
        """True when any union member failed this frame."""
        return bool(self.failed_models)

    def observations(self) -> Iterator[tuple[EnsembleKey, float]]:
        """``(ensemble, est_score)`` pairs — what a bandit observes.

        Observations are keyed by the *realized* ensemble — the subset
        that actually produced the score — and deduplicated, so under
        degradation the bandit credits the arm that ran rather than the
        arm it asked for.  Fault-free, realized equals requested and
        this yields exactly one pair per evaluation, as before.
        """
        seen: set[EnsembleKey] = set()
        for evaluation in self.evaluations.values():
            realized = evaluation.realized_key
            if realized in seen:
                continue
            seen.add(realized)
            yield realized, evaluation.est_score


class _FrameScoring:
    """The reference sets every ensemble of one frame is scored against.

    Each is grouped by label once, on its first use: a frame whose AP
    values all come from the store (a warm store) never builds them.
    """

    __slots__ = ("_frame", "_ref_detections", "_reference", "_truth")

    def __init__(
        self, frame: Frame, ref_detections: FrameDetections | None
    ) -> None:
        self._frame = frame
        self._ref_detections = ref_detections
        self._reference: ReferenceBoxes | None = None
        self._truth: ReferenceBoxes | None = None

    def reference(self) -> ReferenceBoxes:
        """REF's boxes on the frame (estimated AP, Eq. 3)."""
        if self._reference is None:
            assert self._ref_detections is not None  # score_estimates only
            self._reference = ReferenceBoxes(self._ref_detections)
        return self._reference

    def truth(self) -> ReferenceBoxes:
        """The frame's ground truth (true AP, Eq. 2)."""
        if self._truth is None:
            self._truth = ReferenceBoxes(self._frame.ground_truth_detections())
        return self._truth


class DetectionEnvironment:
    """Runtime for ensemble selection over a detector pool.

    Args:
        detectors: The pool ``M``; each needs ``.name``, ``.detect(frame)``
            and ``.expected_time_ms`` (both :class:`SimulatedDetector` and
            :class:`SimulatedLidar` qualify, as does any user detector with
            the same surface).
        reference: The REF model used for AP estimation.  May be ``None``
            only with ``score_estimates=False`` (see below).
        scoring: The scoring function ``SC``; defaults to Eq. (30) with
            ``w1 = w2 = 0.5``.
        fusion: Box-fusion method; defaults to WBF as in the paper.
        cost_model: Non-inference cost parameters and the ``c_max``
            normalization policy.
        iou_threshold: IoU threshold for AP computation.
        cache: Optional shared :class:`EvaluationStore` (a private one by
            default).
        clock: Optional externally owned clock (a fresh one by default).
        backend: Execution backend for inference jobs; defaults to
            :class:`~repro.engine.backends.SerialBackend`.  Backends
            affect wall-clock time only, never results or charges.
        billing: Detector billing policy, one of :data:`BILLING_POLICIES`.
        score_estimates: When False, REF-based score estimation is skipped
            entirely: the reference model is never inferred (or billed),
            and every evaluation reports ``est_ap = est_score = 0.0``.
            Only valid for selection algorithms that never consult
            estimated scores (``needs_reference`` is False — BF, RAND,
            OPT, SGL); the query planner's projection-pruning rewrite uses
            this to skip reference scoring for queries that never read
            ``score``.  True-AP reporting is unaffected.
        obs: Observability facade shared by the pipeline and this
            environment; spans (detect / per-model / fuse / score) and
            evaluation counters flow through it.  The default no-op
            facade keeps uninstrumented runs zero-cost.
    """

    def __init__(
        self,
        detectors: Sequence[object],
        reference: object | None,
        scoring: ScoringFunction | None = None,
        fusion: EnsembleMethod | None = None,
        cost_model: CostModel | None = None,
        iou_threshold: float = 0.5,
        cache: EvaluationStore | None = None,
        clock: SimulatedClock | None = None,
        backend: ExecutionBackend | None = None,
        billing: str = "sum",
        score_estimates: bool = True,
        obs: Observability = NULL_OBS,
    ) -> None:
        if not detectors:
            raise ValueError("the detector pool must be non-empty")
        if reference is None and score_estimates:
            raise ValueError(
                "a reference model is required unless score_estimates=False"
            )
        names = [d.name for d in detectors]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate detector names: {names}")
        if billing not in BILLING_POLICIES:
            raise ValueError(
                f"unknown billing policy {billing!r}; "
                f"known: {list(BILLING_POLICIES)}"
            )
        self._detectors: dict[str, object] = {d.name: d for d in detectors}
        self.reference = reference
        self.scoring: ScoringFunction = (
            scoring if scoring is not None else WeightedLogScore(0.5)
        )
        self.fusion: EnsembleMethod = (
            fusion if fusion is not None else WeightedBoxesFusion()
        )
        self.cost_model = cost_model if cost_model is not None else CostModel()
        if not 0.0 < iou_threshold <= 1.0:
            raise ValueError("iou_threshold must be in (0, 1]")
        self.iou_threshold = iou_threshold
        self.store: EvaluationStore = (
            cache if cache is not None else EvaluationStore()
        )
        self.clock = clock if clock is not None else SimulatedClock()
        self.backend: ExecutionBackend = (
            backend if backend is not None else SerialBackend()
        )
        self.billing = billing
        self.score_estimates = score_estimates
        self.obs = obs

        # Context tags appended to store keys: everything a cached value
        # depends on beyond the frame, so heterogeneous environments (and
        # persistent tiers shared across runs) never collide on a key.
        self._fusion_tag = method_tag(self.fusion)
        self._true_tag = f"{self._fusion_tag}|iou={self.iou_threshold:g}"
        if reference is not None:
            self._ref_name = str(getattr(reference, "name", "ref"))
            self._est_tag = f"{self._true_tag}|ref={self._ref_name}"
        else:
            self._ref_name = None
            self._est_tag = None

        # Frame-level degradation counters (bounded scalars, merged with
        # the backend's job-level counters by :meth:`fault_stats`).
        self._frames_degraded = 0
        self._frames_abandoned = 0
        self._ensembles_dropped = 0

        self.model_names: tuple[str, ...] = tuple(sorted(names))
        self.full_ensemble: EnsembleKey = make_key(names)
        self.all_ensembles: list[EnsembleKey] = enumerate_ensembles(names)

        expected_full = sum(d.expected_time_ms for d in detectors)
        self.c_max_ms = self.cost_model.c_max_ms(expected_full)

    @property
    def cache(self) -> EvaluationStore:
        """Alias of :attr:`store` (the historical parameter name)."""
        return self.store

    @property
    def num_models(self) -> int:
        return len(self.model_names)

    def detector(self, name: str) -> object:
        try:
            return self._detectors[name]
        except KeyError:
            raise KeyError(
                f"unknown detector {name!r}; pool: {list(self.model_names)}"
            ) from None

    def normalized_cost(self, cost_ms: float) -> float:
        """``c_hat`` — cost as a fraction of ``c_max``, clipped to [0, 1]."""
        if cost_ms < 0:
            raise ValueError("cost_ms must be non-negative")
        return min(cost_ms / self.c_max_ms, 1.0)

    # ---- fault-tolerance surface ---------------------------------------

    def unavailable_detectors(self) -> frozenset[str]:
        """Pool members whose circuit is currently open.

        Empty unless the backend is a
        :class:`~repro.engine.resilience.ResilientBackend` with open
        circuits; half-open circuits are not reported (their next job is
        the probe that may heal them).
        """
        open_detectors = getattr(self.backend, "open_detectors", None)
        if open_detectors is None:
            return frozenset()
        return frozenset(open_detectors()) & frozenset(self.model_names)

    def available_ensembles(self) -> list[EnsembleKey]:
        """Ensembles with no known-unavailable member.

        The drop-in replacement for :attr:`all_ensembles` in selection
        loops: algorithms mask arms containing open-circuit detectors and
        spend their pulls on ensembles that can actually run.  Fails
        open — if *every* detector is down, the full list is returned so
        the pipeline still probes (and abandons) rather than deadlocks.
        """
        down = self.unavailable_detectors()
        if not down:
            return list(self.all_ensembles)
        healthy = [
            key for key in self.all_ensembles if not down.intersection(key)
        ]
        return healthy if healthy else list(self.all_ensembles)

    def note_frame_degraded(self) -> None:
        """Record one frame whose realized ensemble shrank (pipeline use)."""
        self._frames_degraded += 1

    def note_frame_abandoned(self) -> None:
        """Record one frame that yielded no evaluation (pipeline use)."""
        self._frames_abandoned += 1

    def fault_stats(self) -> FaultStats:
        """Job-level backend counters merged with frame-level degradation.

        Works with any backend: non-resilient backends contribute zero
        job-level counters.
        """
        stats_fn = getattr(self.backend, "stats", None)
        base = stats_fn() if callable(stats_fn) else None
        if not isinstance(base, FaultStats):
            base = FaultStats()
        return replace(
            base,
            frames_degraded=self._frames_degraded,
            frames_abandoned=self._frames_abandoned,
            ensembles_dropped=self._ensembles_dropped,
        )

    # ---- engine-backed memoized stages ---------------------------------

    def _single_output(self, frame: Frame, model: str):
        return self.store.get_or_compute(
            "detector",
            (frame.key, model),
            lambda: self.detector(model).detect(frame),
        )

    def _reference_output(self, frame: Frame):
        assert self.reference is not None  # guarded by score_estimates
        return self.store.get_or_compute(
            "reference",
            (frame.key, self._ref_name),
            lambda: self.reference.detect(frame),
        )

    def reference_detections(self, frame: Frame) -> FrameDetections:
        """``BBox_{REF|v}`` — the reference model's boxes for a frame."""
        if self.reference is None:
            raise RuntimeError(
                "this environment has no reference model "
                "(score_estimates=False)"
            )
        return self._reference_output(frame).detections

    def _member_outputs(
        self, frame: Frame, models: Sequence[str]
    ) -> dict[str, DetectorOutput]:
        """Each model's stored output on ``frame``: one lookup per model.

        Billing, per-ensemble costs and every fusion of the frame read
        these, so a frame makes one ``detector`` lookup per member however
        many ensembles contain it.  An output evicted since it was
        materialized is recomputed and stored; its one missed lookup is
        the only one counted.
        """
        keys = [(frame.key, m) for m in models]
        found = self.store.get_many("detector", keys)
        outputs: dict[str, DetectorOutput] = {}
        for m, key, output in zip(models, keys, found, strict=True):
            if output is None:
                output = self.store.compute_and_put(
                    "detector", key, partial(self.detector(m).detect, frame)
                )
            outputs[m] = output
        return outputs

    def _fused(
        self,
        frame: Frame,
        key: EnsembleKey,
        outputs: Mapping[str, DetectorOutput],
    ) -> FrameDetections:
        return self.store.get_or_compute(
            "fused",
            (frame.key, key, self._fusion_tag),
            lambda: self.fusion.fuse([outputs[m].detections for m in key]),
        )

    def _estimated_ap(
        self,
        frame: Frame,
        key: EnsembleKey,
        fused: FrameDetections,
        scoring: _FrameScoring,
    ) -> float:
        return self.store.get_or_compute(
            "est_ap",
            (frame.key, key, self._est_tag),
            lambda: mean_average_precision(
                fused, scoring.reference(), self.iou_threshold
            ),
        )

    def _true_ap(
        self,
        frame: Frame,
        key: EnsembleKey,
        fused: FrameDetections,
        scoring: _FrameScoring,
    ) -> float:
        return self.store.get_or_compute(
            "true_ap",
            (frame.key, key, self._true_tag),
            lambda: mean_average_precision(
                fused, scoring.truth(), self.iou_threshold
            ),
        )

    def _materialize_outputs(self, frame: Frame, models: Sequence[str]) -> None:
        """Ensure single-model and REF outputs exist, via the backend.

        The missing inferences of one frame are independent jobs; the
        backend may run them concurrently.  Outputs land in the store, so
        everything downstream (billing, fusion, AP) reads identical values
        regardless of the backend — wall clock is the only difference.

        Unsuccessful jobs (failed, timed out, or skipped by an open
        circuit) simply leave no store entry: downstream realization
        treats the model as unhealthy for this frame, and the next frame
        naturally re-attempts it — failures are never negatively cached.
        """
        jobs, stages = self._missing_jobs(frame, models)
        if not jobs:
            return
        self._execute_and_store(jobs, stages)

    def _missing_jobs(
        self, frame: Frame, models: Sequence[str]
    ) -> tuple[list[InferenceJob], list[tuple[str, object]]]:
        """The inference jobs a frame still needs, with their store keys.

        Membership tests go through the store's batched
        :meth:`~repro.engine.store.EvaluationStore.contains_many` — one
        lock acquisition per frame instead of one per model.
        """
        jobs: list[InferenceJob] = []
        stages: list[tuple[str, object]] = []
        detector_keys = [(frame.key, model) for model in models]
        present = self.store.contains_many("detector", detector_keys)
        for model, key, has in zip(models, detector_keys, present, strict=True):
            if not has:
                jobs.append(InferenceJob(self._detectors[model], frame))
                stages.append(("detector", key))
        if self.reference is not None and not self.store.contains(
            "reference", (frame.key, self._ref_name)
        ):
            jobs.append(InferenceJob(self.reference, frame))
            stages.append(("reference", (frame.key, self._ref_name)))
        return jobs, stages

    def _execute_and_store(
        self, jobs: list[InferenceJob], stages: list[tuple[str, object]]
    ) -> None:
        """Run jobs through the backend and store successful outputs."""
        if self.obs.metrics_on:
            detector_jobs = sum(1 for stage, _ in stages if stage == "detector")
            if detector_jobs:
                self.obs.count(
                    "repro_detector_invocations_total",
                    amount=float(detector_jobs),
                    description="Detector inferences actually executed "
                    "(store and materialized-tier hits excluded)",
                )
            if len(jobs) > detector_jobs:
                self.obs.count(
                    "repro_reference_invocations_total",
                    amount=float(len(jobs) - detector_jobs),
                    description="Reference-model inferences actually executed",
                )
        with self.obs.span("detect", jobs=len(jobs)) as detect_span:
            results = self.backend.run(jobs)
            if self.obs.trace_on:
                sim_ms = 0.0
                for (stage, key), result in zip(stages, results, strict=True):
                    job_sim = (
                        float(getattr(result.output, "inference_time_ms", 0.0))
                        if result.ok
                        else 0.0
                    )
                    sim_ms += job_sim
                    self.obs.add_span(
                        "detect-model",
                        wall_ms=result.wall_ms,
                        sim_ms=job_sim,
                        status=result.status,
                        model=key[1] if stage == "detector" else "REF",
                        attempts=result.attempts,
                    )
                detect_span.set_sim_ms(sim_ms)
        for (stage, key), result in zip(stages, results, strict=True):
            if result.ok and not self.store.contains(stage, key):
                self.store.put(stage, key, result.output, result.wall_ms)

    def prefetch(
        self,
        frames: Iterable[Frame],
        models: Sequence[str] | None = None,
        include_reference: bool = True,
    ) -> int:
        """Materialize many frames' outputs in one batched submission.

        Coalesces every missing ``(model, frame)`` inference (plus REF,
        unless ``include_reference`` is false) across ``frames`` into a
        single :meth:`~repro.engine.backends.ExecutionBackend.run` call,
        so pool backends amortize dispatch overhead via chunked
        submission instead of paying one round-trip per frame.  This is
        the batched pre-scan path: SGL's calibration pass uses it before
        peeking frames one at a time.

        Results are bit-for-bit unaffected: outputs are deterministic per
        ``(model, frame)`` and land in the store exactly as on-demand
        materialization would put them, and billing reads the simulated
        times carried *inside* stored outputs, never the wall clock.
        Under fault injection a failed prefetched inference leaves no
        store entry and is simply re-attempted when the frame is
        evaluated, exactly like any other failed job.

        Args:
            frames: Frames to materialize.
            models: Detector names to run; defaults to the full pool.
            include_reference: Also materialize REF outputs (when the
                environment has a reference model).

        Returns:
            The number of inference jobs actually executed.
        """
        names: Sequence[str] = (
            self.model_names if models is None else list(models)
        )
        for name in names:
            if name not in self._detectors:
                raise KeyError(
                    f"unknown detector {name!r}; pool: {list(self.model_names)}"
                )
        jobs: list[InferenceJob] = []
        stages: list[tuple[str, object]] = []
        for frame in frames:
            frame_jobs, frame_stages = self._missing_jobs(frame, names)
            if not include_reference and frame_stages:
                trimmed = [
                    (job, stage)
                    for job, stage in zip(frame_jobs, frame_stages, strict=True)
                    if stage[0] == "detector"
                ]
                frame_jobs = [job for job, _ in trimmed]
                frame_stages = [stage for _, stage in trimmed]
            jobs.extend(frame_jobs)
            stages.extend(frame_stages)
        if not jobs:
            return 0
        self._execute_and_store(jobs, stages)
        return len(jobs)

    # ---- evaluation -----------------------------------------------------

    def peek(
        self, frame: Frame, keys: Iterable[EnsembleKey]
    ) -> EvaluationBatch:
        """Evaluate ensembles *without* consuming budget (oracle peeks)."""
        return self.evaluate(frame, keys, charge=False)

    def evaluate(
        self,
        frame: Frame,
        keys: Iterable[EnsembleKey],
        charge: bool = True,
    ) -> EvaluationBatch:
        """Apply a set of ensembles to a frame.

        The frame's ensembles share one scoring pass: each healthy
        member's output is read from the store once, each realized
        ensemble is fused once and its fused boxes go straight to both AP
        computations, and the REF and ground-truth boxes are grouped by
        label once, on the frame's first AP miss.  Scores are bit-identical
        to scoring every ensemble on its own.

        Args:
            frame: The frame to process.
            keys: Ensembles to evaluate; member names must be in the pool.
                Duplicates are collapsed.
            charge: If True, bill the clock for union-of-member detector
                inference (combined per the billing policy), per-ensemble
                fusion, and (once per frame) REF inference.  Pass False for
                oracle peeks that must not consume budget.

        Returns:
            The per-ensemble evaluations plus this batch's cost components.

        Raises:
            FrameEvaluationError: When nothing can be scored — the
                reference inference failed, or no requested ensemble has
                a single healthy member.  The pipeline catches this and
                abandons the frame.
        """
        key_list: list[EnsembleKey] = []
        seen: set[EnsembleKey] = set()
        for raw in keys:
            key = make_key(raw)
            for member in key:
                if member not in self._detectors:
                    raise KeyError(
                        f"ensemble {key} references unknown detector {member!r}"
                    )
            if key not in seen:
                seen.add(key)
                key_list.append(key)
        if not key_list:
            raise ValueError("evaluate() requires at least one ensemble")

        union_models = sorted({m for key in key_list for m in key})
        self._materialize_outputs(frame, union_models)

        # Members whose inference produced no stored output are unhealthy
        # for this frame; each requested ensemble realizes as its healthy
        # subset.  Fault-free, everything below reduces to the identity.
        present = self.store.contains_many(
            "detector", [(frame.key, m) for m in union_models]
        )
        healthy = [m for m, ok in zip(union_models, present, strict=True) if ok]
        healthy_set = frozenset(healthy)
        failed_models = tuple(m for m in union_models if m not in healthy_set)

        if self.score_estimates and not self.store.contains(
            "reference", (frame.key, self._ref_name)
        ):
            raise FrameEvaluationError(
                f"reference inference failed for frame {frame.key!r}"
            )

        realized_of: dict[EnsembleKey, EnsembleKey] = {}
        dropped = 0
        for key in key_list:
            realized = (
                tuple(m for m in key if m in healthy_set)
                if failed_models
                else key
            )
            if realized:
                realized_of[key] = realized
            else:
                dropped += 1
        if charge:
            self._ensembles_dropped += dropped
        if not realized_of:
            raise FrameEvaluationError(
                f"no requested ensemble has a healthy member for frame "
                f"{frame.key!r} (failed: {list(failed_models)})"
            )

        outputs = self._member_outputs(frame, healthy)
        member_times = [outputs[m].inference_time_ms for m in healthy]
        if self.billing == "max":
            detector_ms = max(member_times)
        else:
            detector_ms = sum(member_times)

        reference_ms = 0.0
        ref_detections: FrameDetections | None = None
        if self.score_estimates:
            ref_output = self._reference_output(frame)
            ref_detections = ref_output.detections
            if charge and self.clock.charge_once(
                "reference", frame.key, ref_output.inference_time_ms
            ):
                reference_ms = ref_output.inference_time_ms
        scoring = _FrameScoring(frame, ref_detections)

        # Pass 1 ("fuse"): each realized ensemble's fused detections and
        # cost components, once per realized subset — distinct requested
        # ensembles can collapse onto one, whose fusion runs (and bills)
        # once.  Pass 2 ("score"): APs and scores.  The split exists so the
        # two phases are separately spanned.
        evaluations: dict[EnsembleKey, EnsembleEvaluation] = {}
        ensembling_ms = 0.0
        fused_of: dict[EnsembleKey, tuple[FrameDetections, float, float]] = {}
        with self.obs.span("fuse") as fuse_span:
            for realized in realized_of.values():
                if realized in fused_of:
                    continue
                fused = self._fused(frame, realized, outputs)
                member_outputs = [outputs[m] for m in realized]
                inference_ms = sum(o.inference_time_ms for o in member_outputs)
                pooled_boxes = sum(len(o.detections) for o in member_outputs)
                fusion_ms = self.cost_model.ensembling_cost_ms(pooled_boxes)
                ensembling_ms += fusion_ms
                fused_of[realized] = (fused, inference_ms, fusion_ms)
            fuse_span.set_sim_ms(ensembling_ms)
        with self.obs.span("score"):
            for key, realized in realized_of.items():
                fused, inference_ms, fusion_ms = fused_of[realized]
                cost_ms = inference_ms + fusion_ms
                c_hat = self.normalized_cost(cost_ms)
                if self.score_estimates:
                    est_ap = self._estimated_ap(frame, realized, fused, scoring)
                    est_score = self.scoring(est_ap, c_hat)
                else:
                    est_ap = 0.0
                    est_score = 0.0
                true_ap = self._true_ap(frame, realized, fused, scoring)
                evaluations[key] = EnsembleEvaluation(
                    key=key,
                    detections=fused,
                    inference_ms=inference_ms,
                    ensembling_ms=fusion_ms,
                    cost_ms=cost_ms,
                    normalized_cost=c_hat,
                    est_ap=est_ap,
                    est_score=est_score,
                    true_ap=true_ap,
                    true_score=self.scoring(true_ap, c_hat),
                    realized=realized,
                )

        if charge:
            self.clock.charge("detector", detector_ms)
            self.clock.charge("ensembling", ensembling_ms)
            if self.obs.metrics_on:
                self.obs.count(
                    "repro_evaluations_total",
                    amount=float(len(evaluations)),
                    description="Charged ensemble evaluations",
                )
                if dropped:
                    self.obs.count(
                        "repro_ensembles_dropped_total",
                        amount=float(dropped),
                        description="Requested ensembles with no healthy member",
                    )

        return EvaluationBatch(
            evaluations=evaluations,
            detector_ms=detector_ms,
            ensembling_ms=ensembling_ms,
            reference_ms=reference_ms,
            failed_models=failed_models,
            ensembles_dropped=dropped,
        )

    def charge_overhead(self, num_candidates: int) -> None:
        """Bill selection bookkeeping (UCB computation etc.) to the clock."""
        if num_candidates < 0:
            raise ValueError("num_candidates must be non-negative")
        self.clock.charge(
            "overhead",
            self.cost_model.overhead_per_ensemble_ms * num_candidates,
        )
