"""Span tracing from outside the program, for the traced benchmark run.

:class:`Tracer` wraps the public entry points of each layer — methods on
their classes, functions in every ``repro`` module that imported them —
with span recorders, and restores the originals on exit, so untraced runs
execute unmodified code.  Spans (name, start, end, parent) are held in
memory until :meth:`Tracer.rollup` folds them into per-layer totals.  A
layer's *self* time is its spans' duration minus the time covered by child
spans of any wrapped layer.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import repro.detection.metrics as det_metrics
import repro.utils.rng as rng
from repro.core import DetectionEnvironment
from repro.core.stats import EnsembleStatistics, SlidingWindowStatistics
from repro.detection import BBox
from repro.engine import EvaluationStore, FramePipeline, ResilientBackend, SerialBackend
from repro.ensembling import EnsembleMethod
from repro.query import MaterializedDetectionStore, QueryEngine, build_logical_plan
from repro.query.physical import DetectExec, FilterExec, ProjectExec, TemporalFilterExec
from repro.simulation import SimulatedDetector, SimulatedLidar

STORE_METHODS = (
    "get", "get_many", "put", "put_many", "get_or_compute", "contains", "contains_many",
)

#: (owner class, method, span name) for every wrapped method.
METHOD_SPANS = (
    [(SimulatedDetector, "detect", "simulation.detector"),
     (SimulatedLidar, "detect", "simulation.lidar"),
     (EnsembleMethod, "fuse", "ensembling.fuse"),
     (SerialBackend, "run", "engine.backend"),
     (ResilientBackend, "run", "engine.resilience"),
     (DetectionEnvironment, "evaluate", "core.evaluate"),
     (EnsembleStatistics, "ucb", "core.bandit.ucb"),
     (SlidingWindowStatistics, "ucb", "core.bandit.ucb"),
     (EnsembleStatistics, "record", "core.bandit.record"),
     (SlidingWindowStatistics, "record", "core.bandit.record"),
     (QueryEngine, "plan", "query.plan"),
     (QueryEngine, "physical_plan", "query.plan"),
     (DetectExec, "execute", "query.detect_exec"),
     (FilterExec, "execute", "query.filter_project"),
     (TemporalFilterExec, "execute", "query.filter_project"),
     (ProjectExec, "execute", "query.filter_project"),
     (MaterializedDetectionStore, "__init__", "query.matstore.open"),
     (MaterializedDetectionStore, "load", "query.matstore.load"),
     (MaterializedDetectionStore, "store", "query.matstore.store")]
    + [(EvaluationStore, m, "engine.store") for m in STORE_METHODS]
)

#: Module-level functions, wrapped wherever a ``repro`` module bound them.
FUNCTION_SPANS = (
    (rng.derive_rng, "utils.rng.derive_rng"),
    (build_logical_plan, "query.plan"),
)


@dataclass
class PassTrace:
    """What one traced pass recorded."""

    #: Per span name: ``calls``, inclusive ``ms`` and ``self_ms``.
    spans: dict[str, dict[str, float]]
    #: Counts made at layer boundaries (boxes built, jobs, rows ...).
    counts: dict[str, float]
    #: Boxes in each per-label pool handed to ``EnsembleMethod.fuse``.
    pool_sizes: list[int]
    #: Simulated ms per clock component, summed over the pass's environments.
    sim_ms: dict[str, float]


class Tracer:
    """Records spans at layer boundaries while :meth:`installed` is active."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counters (between passes)."""
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._store_stage: dict[int, str] = {}
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.pool_sizes: list[int] = []
        self.envs: dict[int, DetectionEnvironment] = {}

    # ---- span recording --------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def _span(self, fn, name: str, after=None):
        name_id = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _store_span(self, fn):
        """A store call, tagged with its stage.

        ``get_or_compute``'s ``compute`` callback is environment code, so it
        gets its own ``core.evaluate.compute`` span: the store's self time
        is then its own bookkeeping alone.
        """
        name_id = self._id("engine.store")
        computes = fn.__name__ == "get_or_compute"

        @functools.wraps(fn)
        def wrapper(store, stage, *args, **kwargs):
            if computes and "compute" in kwargs:
                kwargs["compute"] = self._span(kwargs["compute"], "core.evaluate.compute")
            elif computes:
                args = (*args[:-1], self._span(args[-1], "core.evaluate.compute"))
            index = self._open(name_id)
            self._store_stage[index] = stage
            try:
                return fn(store, stage, *args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def _ap_span(self, fn):
        """mean_average_precision, named by the store stage it computes."""
        ids = {s: self._id(f"detection.metrics.{s}") for s in ("est_ap", "true_ap")}
        other = self._id("detection.metrics.other_ap")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name_id = other
            for open_index in reversed(self._stack):
                stage = self._store_stage.get(open_index)
                if stage is not None:
                    name_id = ids.get(stage, other)
                    break
            index = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def _generator_span(self, fn, name: str):
        """One span per resumption of a generator (e.g. one pipeline frame)."""
        name_id = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def traced():
                try:
                    while True:
                        index = self._open(name_id)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            self._close(index)
                        yield item
                finally:
                    inner.close()

            return traced()

        return wrapper

    def _counting(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ---- after-call counters ---------------------------------------------

    def _after_fuse(self, args, result) -> None:
        sizes: dict[str, int] = {}
        for frame_detections in args[1]:
            for d in frame_detections.detections:
                sizes[d.label] = sizes.get(d.label, 0) + 1
        self.pool_sizes.extend(sizes.values())

    def _after_backend(self, args, result) -> None:
        self.counts["engine.backend.jobs"] += len(args[1])

    def _after_evaluate(self, args, result) -> None:
        env = args[0]
        self.envs.setdefault(id(env), env)
        self.counts["core.ensembles_evaluated"] += len(result.evaluations)

    def _after_filter(self, args, result) -> None:
        self.counts["query.rows_in"] += len(args[1])

    def _after_project(self, args, result) -> None:
        self.counts["query.rows_out"] += len(result)

    def _after_open(self, args, result) -> None:
        self.counts["query.matstore.records_loaded"] += len(args[0])

    # ---- install / remove --------------------------------------------------

    @contextmanager
    def installed(self):
        """Install every wrapper; restore the original attributes on exit."""
        after = {
            (EnsembleMethod, "fuse"): self._after_fuse,
            (SerialBackend, "run"): self._after_backend,
            (DetectionEnvironment, "evaluate"): self._after_evaluate,
            (FilterExec, "execute"): self._after_filter,
            (ProjectExec, "execute"): self._after_project,
            (MaterializedDetectionStore, "__init__"): self._after_open,
        }
        patches = []
        for owner, attr, name in METHOD_SPANS:
            fn = owner.__dict__[attr]
            if owner is EvaluationStore:
                wrapped = self._store_span(fn)
            else:
                wrapped = self._span(fn, name, after.get((owner, attr)))
            patches.append((owner, attr, wrapped))
        patches.append((FramePipeline, "run",
                        self._generator_span(FramePipeline.__dict__["run"], "core.pipeline")))
        patches.append((BBox, "__init__",
                        self._counting(BBox.__dict__["__init__"], "detection.boxes.constructed")))
        functions = [(fn, self._span(fn, name)) for fn, name in FUNCTION_SPANS]
        functions.append((det_metrics.mean_average_precision,
                          self._ap_span(det_metrics.mean_average_precision)))
        for original, wrapped in functions:
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attr, wrapped))
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapped in patches:
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # ---- rollup --------------------------------------------------------------

    def summary(self) -> PassTrace:
        """The pass recorded since :meth:`reset`."""
        sim_ms: defaultdict[str, float] = defaultdict(float)
        for env in self.envs.values():
            for component, ms in env.clock.snapshot().items():
                sim_ms[component] += ms
        return PassTrace(self.rollup(), dict(self.counts), list(self.pool_sizes), dict(sim_ms))

    def rollup(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``ms`` and ``self_ms``."""
        n = len(self.start)
        child = [0.0] * n
        totals: dict[str, dict[str, float]] = {}
        for i in range(n - 1, -1, -1):
            duration = self.end[i] - self.start[i]
            name = self.names[self.name_of[i]]
            entry = totals.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["ms"] += duration * 1e3
            entry["self_ms"] += (duration - child[i]) * 1e3
            if self.parent[i] >= 0:
                child[self.parent[i]] += duration
        return totals
