"""The benchmark's three seeded workloads.

Each workload has a ``name``, builds its inputs from the seed in ``setup``
and runs one *pass* — a complete, closed-loop batch job over a stored
video — in ``run``.  A pass returns its canonical output digest (for the output
check), its timings and the layer counters the program reports through its
own public stats APIs.  Passes of one run are independent and identical:
every pass starts from fresh stores, clocks, backends and fault injectors.

Every workload drives only the public API of ``repro.core``,
``repro.engine``, ``repro.simulation``, ``repro.runner`` and
``repro.query`` on one :class:`~repro.engine.SerialBackend`, with
``repro.obs`` for the query workload's invocation counters.  See README.md
for why each exists.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field
from pathlib import Path

from repro.core import (
    LRBP,
    MES,
    MESB,
    SWMES,
    BruteForce,
    DetectionEnvironment,
    ExploreFirst,
    Oracle,
    RandomSelection,
    SingleBest,
)
from repro.engine import EvaluationStore, ResilientBackend, SerialBackend
from repro.obs import Observability, RunEventLog
from repro.query import QueryEngine
from repro.runner import make_environment, nuscenes_detector_suite, standard_setup
from repro.simulation import (
    SimulatedLidar,
    Video,
    apply_fault_profile,
    compose_drifting_video,
    generate_video,
)
from repro.simulation.datasets import BDD_SPEC
from repro.utils import derive_seed

#: Parent of every directory the benchmark writes.  It lies inside the
#: checkout, because the benchmark reads and writes nowhere else; a killed
#: run can leave it behind, so the repository's .gitignore names it.
WORK_ROOT = Path(__file__).resolve().parent.parent / ".perfbench-work"


@contextmanager
def work_dir() -> Iterator[Path]:
    """A fresh directory under :data:`WORK_ROOT`, removed on exit with
    :data:`WORK_ROOT` itself once no other run uses it."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


# ---- output canonicalisation ---------------------------------------------


def digest(obj: object) -> str:
    """SHA-256 of a canonical JSON encoding (floats keep every digit)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def encode_records(records) -> list:
    return [list(astuple(r)) for r in records]


def encode_detections(frame_detections) -> list:
    return [
        [d.label, d.confidence, d.box.x1, d.box.y1, d.box.x2, d.box.y2, d.source]
        for d in frame_detections.detections
    ]


def encode_query_result(result) -> dict:
    return {
        "rows": [
            [r.frame_id, r.score, list(r.ensemble), encode_detections(r.detections)]
            for r in result.rows
        ],
        "records": encode_records(result.selection.records),
    }


# ---- timing probes --------------------------------------------------------


class Timeline:
    """Checkpoints of one pass, in ms since it started: when a query engine
    was opened (``open``) and closed (``close``), when each run or query
    began (``begin``) and returned (``end``), and when each frame completed
    (``frame``).

    Callable as a :data:`~repro.engine.FrameObserver`.
    """

    def __init__(self) -> None:
        self.kinds: list[str] = []
        self.times_ms: list[float] = []
        self._start = time.perf_counter()

    def mark(self, kind: str) -> None:
        self.times_ms.append((time.perf_counter() - self._start) * 1e3)
        self.kinds.append(kind)

    def __call__(self, frame, batch, record) -> None:
        self.mark("frame")


class FrameEventLog(RunEventLog):
    """Event log that marks a :class:`Timeline` on ``frame-completed``.

    ``QueryEngine.execute`` takes no frame observer, so the query workload
    reads frame completions from the same pipeline point through the
    observability event sink.
    """

    def __init__(self, timeline: Timeline) -> None:
        super().__init__()
        self.timeline = timeline

    def emit(self, event_type: str, **fields) -> None:
        super().emit(event_type, **fields)
        if event_type == "frame-completed":
            self.timeline.mark("frame")


@dataclass
class PassResult:
    """One pass: output digest, timeline and public layer counters."""

    digest: str
    frames: int
    wall_s: float
    timeline: Timeline
    s_sum: float
    counters: dict[str, float] = field(default_factory=dict)


def store_counters(store: EvaluationStore) -> dict[str, float]:
    stats = store.stats()
    out: dict[str, float] = {
        "engine.store.evictions": stats.evictions,
        "engine.store.tier_hits": stats.tier_hits,
    }
    for stage, s in stats.stages.items():
        out[f"engine.store.{stage}.lookups"] = s.lookups
        out[f"engine.store.{stage}.hits"] = s.hits
    return out


# ---- tuvi-bdd -------------------------------------------------------------

#: Scene count scale of ``standard_setup("bdd")``: 166 scenes in the three
#: groups of Table 2 (90 mixed, 36 rainy, 40 snow), so even the rarest
#: category (night) has a few scenes for every seed.
BDD_SCALE = 0.3
#: Frames per pass of ``tuvi-bdd``, before each category's quota is rounded.
BDD_FRAMES = 1200


def bdd_quotas(total: int) -> dict[str, int]:
    """Frames per weather category, in the expected mix of the scaled BDD recipe.

    Each group of ``BDD_SPEC`` draws its scenes' categories by its weights,
    so a category's expected share is its weighted frame count over all
    groups: about clear 33%, rainy 23%, snow 21%, overcast 15% and night 7%.
    Fixed quotas keep a pass's work nearly seed-independent while every seed
    still draws its own scenes, objects and detector noise.
    """
    frames: dict[str, float] = {}
    for group in BDD_SPEC.scaled(BDD_SCALE).groups:
        weight = sum(w for _, w in group.categories)
        for category, w in group.categories:
            share = group.num_scenes * group.samples_per_scene * w / weight
            frames[category] = frames.get(category, 0.0) + share
    whole = sum(frames.values())
    return {c: round(total * n / whole) for c, n in frames.items()}


def sample_evenly(frames, quotas: dict[str, int]):
    """Each category's quota of frames, spread evenly over all its scenes.

    Sampling the stored video, rather than taking its first scenes, makes
    a pass average over ~166 scenes, so its work varies little by seed.
    Frames keep their order in the video.
    """
    by_category: dict[str, list[int]] = {}
    for position, frame in enumerate(frames):
        by_category.setdefault(frame.category.name, []).append(position)
    chosen = []
    for category, quota in quotas.items():
        positions = by_category.get(category, [])
        if len(positions) < quota:
            raise RuntimeError(
                f"{len(positions)} {category} frames, {quota} needed"
            )
        chosen += [positions[i * len(positions) // quota] for i in range(quota)]
    return tuple(frames[p] for p in sorted(chosen))


class TuviBdd:
    """MES (gamma=5) over the m=5 BDD suite (31 arms): the paper's TUVI run."""

    name = "tuvi-bdd"

    def setup(self, seed: int, tiny: bool, workdir: Path):
        quotas = {c: (2 if tiny else n) for c, n in bdd_quotas(BDD_FRAMES).items()}
        trial = standard_setup("bdd", trial=0, scale=BDD_SCALE, m=5, seed=seed)
        return trial, sample_evenly(trial.frames, quotas)

    def run(self, state) -> PassResult:
        trial, frames = state
        timeline = Timeline()
        timeline.mark("begin")
        env = make_environment(trial, cache=EvaluationStore(), backend=SerialBackend())
        result = MES(gamma=5).run(env, frames, observers=[timeline])
        timeline.mark("end")
        wall = timeline.times_ms[-1] / 1e3
        output = {
            "records": encode_records(result.records),
            "clock": env.clock.snapshot(),
        }
        return PassResult(
            digest=digest(output),
            frames=len(result.records),
            wall_s=wall,
            timeline=timeline,
            s_sum=result.s_sum,
            counters=store_counters(env.store),
        )


# ---- compare-drift ---------------------------------------------------------

#: The Fig. 7 V_c&n&r composition at the paper's source-size ratios
#: (Table 1: clear 13,700 : night 3,950 : rainy 9,200), 1,300 frames.
DRIFT_SOURCES = (("clear", 663), ("night", 191), ("rainy", 446))
#: Frames per scene of a source, as in nuScenes (20 s at 2 Hz).  Building a
#: source from ~40-frame scenes, like the specialised datasets the paper
#: draws from, averages a pass over ~30 scenes, so its work varies
#: little by seed.
SCENE_FRAMES = 40


def drift_video(seed: int, tag: str, scale: float) -> Video:
    sources = []
    for category, frames in DRIFT_SOURCES:
        total = max(int(frames * scale), 10)
        scenes = [
            generate_video(
                f"{tag}/{category}/{first}",
                min(SCENE_FRAMES, total - first),
                category,
                seed=derive_seed(seed, tag, category, first),
            )
            for first in range(0, total, SCENE_FRAMES)
        ]
        sources.append(Video.concatenate(f"{tag}/{category}", scenes, mark_breakpoints=False))
    return compose_drifting_video(
        f"{tag}/V_c&n&r", sources, num_segments=10, seed=derive_seed(seed, tag, "mix")
    )


class CompareDrift:
    """The Section 5.4 roster on the Fig. 7 drift video under transient faults."""

    name = "compare-drift"

    def setup(self, seed: int, tiny: bool, workdir: Path):
        video = drift_video(seed, self.name, 0.05 if tiny else 1.0)
        pool = nuscenes_detector_suite(m=3, seed=derive_seed(seed, self.name, "suite"))
        lidar = SimulatedLidar(seed=derive_seed(seed, self.name, "lidar"))
        return video, pool, lidar, derive_seed(seed, self.name, "faults")

    def run(self, state) -> PassResult:
        video, pool, lidar, fault_seed = state
        frames = video.frames
        window = max(len(frames) // 4, 50)
        roster = {
            "OPT": Oracle(),
            "BF": BruteForce(),
            "SGL": SingleBest(calibration_frames=min(300, len(frames))),
            "RAND": RandomSelection(seed=1),
            "EF": ExploreFirst(delta=5),
            "MES": MES(gamma=5),
            "SW-MES": SWMES(window=window, gamma=5),
        }
        timeline = Timeline()
        # Fault injectors carry per-frame attempt counters: a fresh set per
        # pass keeps every pass's fault draws, and so its output, identical.
        detectors = apply_fault_profile(pool, "transient", seed=fault_seed)
        backend = ResilientBackend(SerialBackend())
        store = EvaluationStore()
        envs, results = [], {}

        def run_one(name, algorithm, budget_ms=None):
            timeline.mark("begin")
            env = DetectionEnvironment(detectors, lidar, cache=store, backend=backend)
            results[name] = algorithm.run(
                env, frames, budget_ms=budget_ms, observers=[timeline]
            )
            timeline.mark("end")
            envs.append(env)

        for name, algorithm in roster.items():
            run_one(name, algorithm)
        run_one("MES-B", MESB(gamma=5), budget_ms=0.5 * results["MES"].total_charged_ms)
        lrbp = LRBP.from_result(results["MES-B"], skip_initialization=5)
        timeline.mark("fit")
        wall = timeline.times_ms[-1] / 1e3
        if results["MES-B"].frames_processed >= len(frames):
            raise RuntimeError("MES-B budget did not end the run before the video")
        output = {
            name: {"records": encode_records(r.records), "clock": env.clock.snapshot()}
            for (name, r), env in zip(results.items(), envs, strict=True)
        }
        output["LRBP"] = [
            lrbp.slope,
            lrbp.intercept,
            lrbp.num_points,
            lrbp.predict_extra_budget(results["MES-B"].frames_processed, len(frames)),
        ]
        fault_stats = backend.stats()
        return PassResult(
            digest=digest(output),
            frames=sum(r.frames_processed for r in results.values()),
            wall_s=wall,
            timeline=timeline,
            s_sum=results["SW-MES"].s_sum,
            counters=store_counters(store)
            | {
                f"engine.resilience.{k}": getattr(fault_stats, k)
                for k in ("attempts", "retries", "failures", "recoveries", "breaker_opens")
            },
        )


# ---- query ------------------------------------------------------------------

QUERY_SOURCES_SCALE = 1100 / 1300


def query_mix(models: str) -> list[str]:
    """Six queries: MES at two gammas, BF, SW-MES, MES-B and SGL.

    Query 2 has a ``frameID <`` bound the planner pushes into the scan;
    query 3 reads no score, so the planner prunes reference scoring.
    """
    src = "PROCESS drift PRODUCE frameID, Detections"
    return [
        f"SELECT frameID, score FROM ({src}, score USING MES({models}; lidar-ref) "
        "WITH gamma=5) WHERE COUNT('car') >= 2",
        f"SELECT frameID FROM ({src}, score USING MES({models}; lidar-ref) "
        "WITH gamma=2) WHERE frameID < 700 AND EXISTS('pedestrian')",
        f"SELECT frameID FROM ({src} USING BF({models})) WHERE COUNT(*) >= 3",
        f"SELECT frameID, score FROM ({src}, score USING SW-MES({models}; lidar-ref) "
        "WITH window=275, gamma=5) WHERE EXISTS('truck', conf >= 0.5) OR COUNT('car') >= 3",
        f"SELECT frameID, ensemble FROM ({src}, ensemble USING MES-B({models}; lidar-ref) "
        "WITH gamma=5, budget=8000) WHERE NOT EXISTS('bus')",
        f"SELECT frameID FROM ({src}, score USING SGL({models}; lidar-ref)) "
        "WHERE COUNT('pedestrian', conf > 0.4) >= 1",
    ]


def counter_total(obs: Observability, name: str) -> float:
    return sum(v for (n, _), v in obs.snapshot().counters.items() if n == name)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.glob("*") if p.is_file())


class Query:
    """A fixed six-query mix, cold then warm.

    A new engine on a fresh materialized store runs the mix and writes the
    store.  Then a second new engine opens that directory and runs the mix
    again, reading everything back.
    """

    name = "query"

    def setup(self, seed: int, tiny: bool, workdir: Path):
        video = drift_video(seed, "query", QUERY_SOURCES_SCALE * (0.05 if tiny else 1.0))
        pool = nuscenes_detector_suite(m=3, seed=derive_seed(seed, "query", "suite"))
        lidar = SimulatedLidar(seed=derive_seed(seed, "query", "lidar"))
        queries = query_mix(", ".join(d.name for d in pool))
        return {"video": video, "pool": pool, "lidar": lidar, "queries": queries,
                "workdir": workdir}

    def run(self, state) -> PassResult:
        mat_dir = Path(tempfile.mkdtemp(prefix="query-", dir=state["workdir"]))
        timeline = Timeline()
        try:
            cold_results, cold = self.run_queries(state, mat_dir, timeline)
            warm_results, warm = self.run_queries(state, mat_dir, timeline)
        finally:
            shutil.rmtree(mat_dir, ignore_errors=True)
        cold_output = [encode_query_result(r) for r in cold_results]
        problems = []
        if [encode_query_result(r) for r in warm_results] != cold_output:
            problems.append("rows differ from the cold run")
        for kind in ("detector", "reference"):
            if warm[f"{kind}_invocations"]:
                problems.append(f"{kind} ran {warm[f'{kind}_invocations']:g} times")
        if problems:
            raise RuntimeError("warm run: " + "; ".join(problems))
        results = cold_results + warm_results
        return PassResult(
            digest=digest(cold_output),
            frames=sum(r.selection.frames_processed for r in results),
            wall_s=timeline.times_ms[-1] / 1e3,
            timeline=timeline,
            s_sum=cold_results[0].selection.s_sum,
            counters={k: cold[k] + warm[k] for k in cold},
        )

    def run_queries(self, state, mat_dir: Path, timeline: Timeline):
        """The mix by a new engine on ``mat_dir``: results and counters."""
        obs = Observability(level="metrics")
        obs.events = FrameEventLog(timeline)
        bytes_before = dir_bytes(mat_dir)
        results = []
        timeline.mark("open")
        with QueryEngine(obs=obs, materialize_dir=mat_dir, backend=SerialBackend()) as engine:
            engine.register_video("drift", state["video"])
            for detector in state["pool"]:
                engine.register_detector(detector)
            engine.register_reference(state["lidar"])
            for text in state["queries"]:
                timeline.mark("begin")
                results.append(engine.execute(text))
                timeline.mark("end")
        timeline.mark("close")
        counters = store_counters(engine.store) | {
            "query.matstore.corrupt": engine.matstore.stats().corrupt_records,
            "query.matstore.bytes_written": dir_bytes(mat_dir) - bytes_before,
            "detector_invocations": counter_total(obs, "repro_detector_invocations_total"),
            "reference_invocations": counter_total(obs, "repro_reference_invocations_total"),
        }
        return results, counters


WORKLOADS = {w.name: w for w in (TuviBdd(), CompareDrift(), Query())}
