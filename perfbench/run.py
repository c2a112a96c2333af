"""End-to-end and per-layer benchmark of the paper's workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tuvi-bdd --seed 1 --seconds 32 --trace 0

``--trace 0`` runs the workload unmodified and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics, the tracing overhead among them.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it carries the run metadata.
See README.md for the workloads and the layer -> metric -> workload map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-ups per run, at least, and the least time they take together;
#: ``setup_s`` is their median, so cheap set-ups are repeated more.
MIN_SETUPS = 3
MIN_SETUP_S = 1.0
#: Passes per run at least, so every median has company.
MIN_PASSES = 3

STAGES = ("detector", "reference", "fused", "est_ap", "true_ap")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def git_commit() -> str:
    """HEAD's commit read from ``.git`` without running git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, setups: int, passes, traced, reference: str) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "setups": setups,
        "passes": len(passes),
        "traced_passes": len(traced),
        "frame_latency_samples": sum(p.timeline.kinds.count("frame") for p in passes),
        "query_latency_samples": sum(len(latencies(p.timeline)[1]) for p in passes),
        "reference": reference,
    }


def latencies(timeline) -> tuple[list[float], list[float], float]:
    """Frame gaps, query (run) latencies and time to the first result, in ms.

    Frames count over the whole pass.  Queries and the first result belong
    to the last engine opened (``open``), or to the whole pass if there is
    none: in ``query`` that is the warm engine, a fresh process over a
    populated store.
    """
    frame_ms, query_ms = [], []
    first_result_ms = last = began = opened = 0.0
    waiting = True
    for t, kind in zip(timeline.times_ms, timeline.kinds):
        if kind == "frame":
            frame_ms.append(t - last)
        elif kind == "begin":
            began = t
        elif kind == "open":
            opened, waiting, query_ms = t, True, []
        elif kind == "end":
            query_ms.append(t - began)
            if waiting:
                first_result_ms, waiting = t - opened, False
        last = t
    return frame_ms, query_ms, first_result_ms


def end_to_end(setup_s: list[float], passes) -> dict[str, float]:
    frame_ms, query_ms, first_ms = [], [], []
    for p in passes:
        frames, queries, first = latencies(p.timeline)
        frame_ms += frames
        query_ms.append(queries)
        first_ms.append(first)
    # Each query (algorithm run) of the mix has its own cost; take each one's
    # median over the passes, then the median over the mix, so the result
    # does not jump between two queries' latencies from run to run.
    per_query_ms = [statistics.median(q) for q in zip(*query_ms, strict=True)]
    return {
        "setup_s": statistics.median(setup_s),
        "frames_per_s": sum(p.frames for p in passes) / sum(p.wall_s for p in passes),
        "frame_p50_ms": percentile(frame_ms, 50),
        "frame_p99_ms": percentile(frame_ms, 99),
        "query_p50_ms": statistics.median(per_query_ms),
        "first_result_ms": statistics.median(first_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "s_sum": passes[0].s_sum,
    }


def per_layer(traces, traced, untraced, vectorize_min_pool: int) -> dict[str, float]:
    """Per-layer metrics, per traced pass, from the tracer and public stats."""
    n = len(traced)
    spans: dict[str, dict[str, float]] = {}
    counts: dict[str, float] = {}
    pool_sizes: list[int] = []
    sim: dict[str, float] = {}
    public: dict[str, float] = {}
    for trace, p in zip(traces, traced, strict=True):
        for name, entry in trace.spans.items():
            acc = spans.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            for k, v in entry.items():
                acc[k] += v
        for k, v in trace.counts.items():
            counts[k] = counts.get(k, 0.0) + v
        for k, v in trace.sim_ms.items():
            sim[k] = sim.get(k, 0.0) + v
        pool_sizes.extend(trace.pool_sizes)
        for k, v in p.counters.items():
            public[k] = public.get(k, 0.0) + v

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0.0) / n

    def count(name: str) -> float:
        return counts.get(name, 0.0) / n

    def stat(name: str) -> float:
        return public.get(name, 0.0) / n

    out = {
        "simulation.detector.calls": span("simulation.detector", "calls"),
        "simulation.detector.self_ms": span("simulation.detector", "self_ms"),
        "simulation.lidar.calls": span("simulation.lidar", "calls"),
        "simulation.lidar.self_ms": span("simulation.lidar", "self_ms"),
        "utils.rng.derive_rng.calls": span("utils.rng.derive_rng", "calls"),
        "utils.rng.derive_rng.ms": span("utils.rng.derive_rng", "ms"),
        "detection.boxes.constructed": count("detection.boxes.constructed"),
        "ensembling.fuse.calls": span("ensembling.fuse", "calls"),
        "ensembling.fuse.self_ms": span("ensembling.fuse", "self_ms"),
        "ensembling.pool_boxes_mean": statistics.fmean(pool_sizes) if pool_sizes else 0.0,
        "ensembling.pool_boxes_max": float(max(pool_sizes, default=0)),
        "ensembling.pools_vectorized_share": (
            sum(s >= vectorize_min_pool for s in pool_sizes) / len(pool_sizes)
            if pool_sizes else 0.0
        ),
        "engine.store.self_ms": span("engine.store", "self_ms"),
        "engine.store.evictions": stat("engine.store.evictions"),
        "engine.store.tier_hits": stat("engine.store.tier_hits"),
        "engine.backend.run.calls": span("engine.backend", "calls"),
        "engine.backend.jobs": count("engine.backend.jobs"),
        "engine.backend.self_ms": span("engine.backend", "self_ms"),
        "engine.resilience.self_ms": span("engine.resilience", "self_ms"),
        "core.evaluate.calls": span("core.evaluate", "calls"),
        "core.evaluate.self_ms": (
            span("core.evaluate", "self_ms") + span("core.evaluate.compute", "self_ms")
        ),
        "core.ensembles_per_evaluate": (
            counts.get("core.ensembles_evaluated", 0.0)
            / max(spans.get("core.evaluate", {}).get("calls", 0), 1)
        ),
        "core.bandit.ucb.calls": span("core.bandit.ucb", "calls"),
        "core.bandit.ucb.ms": span("core.bandit.ucb", "ms"),
        "core.bandit.record.ms": span("core.bandit.record", "ms"),
        "core.pipeline.self_ms": span("core.pipeline", "self_ms"),
        "query.plan.ms": span("query.plan", "ms"),
        "query.detect_exec.self_ms": span("query.detect_exec", "self_ms"),
        "query.filter_project.ms": span("query.filter_project", "ms"),
        "query.rows_in": count("query.rows_in"),
        "query.rows_out": count("query.rows_out"),
        "query.matstore.open_ms": span("query.matstore.open", "ms"),
        "query.matstore.records_loaded": count("query.matstore.records_loaded"),
        "query.matstore.load.calls": span("query.matstore.load", "calls"),
        "query.matstore.load.ms": span("query.matstore.load", "ms"),
        "query.matstore.store.calls": span("query.matstore.store", "calls"),
        "query.matstore.store.ms": span("query.matstore.store", "ms"),
        "query.matstore.bytes_written": stat("query.matstore.bytes_written"),
        "query.matstore.corrupt": stat("query.matstore.corrupt"),
    }
    for kind in ("est_ap", "true_ap"):
        out[f"detection.metrics.{kind}.calls"] = span(f"detection.metrics.{kind}", "calls")
        out[f"detection.metrics.{kind}.ms"] = span(f"detection.metrics.{kind}", "ms")
    for stage in STAGES:
        lookups = public.get(f"engine.store.{stage}.lookups", 0.0)
        hits = public.get(f"engine.store.{stage}.hits", 0.0)
        out[f"engine.store.{stage}.lookups"] = lookups / n
        out[f"engine.store.{stage}.hit_rate"] = hits / lookups if lookups else 0.0
    for kind in ("attempts", "retries", "failures", "recoveries", "breaker_opens"):
        out[f"engine.resilience.{kind}"] = stat(f"engine.resilience.{kind}")
    total_sim = sum(sim.values())
    for component in ("detector", "reference", "ensembling", "overhead"):
        out[f"core.sim_share.{component}"] = (
            sim.get(component, 0.0) / total_sim if total_sim else 0.0
        )
    traced_wall = statistics.median(p.wall_s for p in traced)
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    out["bench.trace_overhead"] = traced_wall / untraced_wall - 1.0
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (a few frames per workload)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from tracing import Tracer
    from workloads import WORKLOADS, work_dir

    from repro.ensembling import VECTORIZE_MIN_POOL

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    references = json.loads((HERE / "reference.json").read_text())
    expected = None if args.tiny else references.get(args.workload, {}).get(str(args.seed))

    with work_dir() as workdir:
        setup_s = []
        while len(setup_s) < MIN_SETUPS or sum(setup_s) < MIN_SETUP_S:
            state = None  # so peak_rss_mb never holds two set-ups at once
            began = time.perf_counter()
            state = workload.setup(args.seed, args.tiny, workdir)
            setup_s.append(time.perf_counter() - began)

        tracer = Tracer()
        untraced, traced, traces, problems = [], [], [], []
        attempted = failed = 0
        began = time.perf_counter()
        while not problems:
            # Trace mode alternates untraced and traced passes, so both see
            # the same machine conditions; the ratio is the tracing overhead.
            use_trace = bool(args.trace) and len(traced) < len(untraced)
            try:
                if use_trace:
                    tracer.reset()
                    with tracer.installed():
                        result = workload.run(state)
                    traces.append(tracer.summary())
                else:
                    result = workload.run(state)
            except Exception as exc:  # any failure fails the pass, and the run
                expected_frames = untraced[0].frames if untraced else 1
                attempted += expected_frames
                failed += expected_frames
                problems.append(f"{type(exc).__name__}: {exc}")
                break
            attempted += result.frames
            reference = expected or (untraced[0].digest if untraced else result.digest)
            if result.digest != reference:
                failed += result.frames
                problems.append(
                    f"{'traced ' if use_trace else ''}output {result.digest[:12]} "
                    f"!= reference {reference[:12]}"
                )
            (traced if use_trace else untraced).append(result)
            done = len(untraced) + len(traced)
            if time.perf_counter() - began >= args.seconds and done >= MIN_PASSES and (
                not args.trace or len(traced) == len(untraced)
            ):
                break

    for problem in problems:
        print(f"perfbench: {args.workload} seed {args.seed}: {problem}", file=sys.stderr)
    # BENCHMARK.json names each mode's metrics and units; the code below
    # computes only their values.
    values, names = {}, []
    if args.trace and traced:
        values = per_layer(traces, traced, untraced, VECTORIZE_MIN_POOL)
        names = spec["per_layer"]
    elif not args.trace and untraced:
        values = end_to_end(setup_s, untraced)
        names = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    status = "checked against the committed digest" if expected else (
        "tiny run: passes compared with each other" if args.tiny
        else "no committed digest for this seed: passes compared with each other"
    )
    print(json.dumps({"meta": metadata(args, len(setup_s), untraced, traced, status)}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
