"""Self-test of the benchmark at tiny sizes.

Usage (from the repository root)::

    python3 perfbench/smoke.py

Runs every workload in ``BENCHMARK.json`` with ``--tiny`` in both modes and
checks that each run is correct, fails nothing, and emits every metric
``BENCHMARK.json`` names for that mode with its unit.  It then checks that
the benchmark exits non-zero, printing nothing, in a directory that holds
only ``BENCHMARK.json`` and the benchmark's own files.  Exits 1 on any
problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import work_dir  # noqa: E402


def run(cwd: Path, command: list[str], workload: str, trace: int, *extra: str):
    return subprocess.run(
        [*command, "--workload", workload, "--seed", "1", "--seconds", "0.2",
         "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_run(proc, expected: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") or result.get("attempted", 0) < 1:
        problems.append(
            f"correct={result.get('correct')} attempted={result.get('attempted')} "
            f"failed={result.get('failed')}: {proc.stderr.strip()[-500:]}"
        )
    metrics = result.get("metrics", {})
    for name, unit in expected.items():
        if name not in metrics:
            problems.append(f"missing metric {name}")
        elif metrics[name].get("unit") != unit:
            problems.append(f"{name} has unit {metrics[name].get('unit')!r}, not {unit!r}")
        elif not isinstance(metrics[name].get("value"), (int, float)):
            problems.append(f"{name} has no numeric value")
    extra = set(metrics) - set(expected)
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = spec["command"]
    per_mode = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in per_mode.items():
            problems = check_run(run(ROOT, command, workload, trace, "--tiny"), expected)
            print(f"{workload} --trace {trace}: {'ok' if not problems else 'FAIL'}")
            for problem in problems:
                print(f"  {problem}")
            failures += bool(problems)

    with work_dir() as bare:
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, command, spec["workloads"][0]["name"], 0)
    ok = proc.returncode != 0 and not proc.stdout.strip()
    print(f"checkout without sources: {'ok' if ok else 'FAIL'} (exit {proc.returncode})")
    failures += not ok
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
