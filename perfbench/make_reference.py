"""Regenerate ``reference.json``: the committed output digest per workload and seed.

Usage (from the repository root)::

    python3 perfbench/make_reference.py 0 32

records seeds 0..31.  Run it only when a change is meant to alter seeded
output, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, work_dir  # noqa: E402


def main() -> int:
    first, stop = int(sys.argv[1]), int(sys.argv[2])
    path = HERE / "reference.json"
    references = json.loads(path.read_text())
    with work_dir() as workdir:
        for seed in range(first, stop):
            for name, workload in WORKLOADS.items():
                state = workload.setup(seed, False, workdir)
                references.setdefault(name, {})[str(seed)] = workload.run(state).digest
            print(f"seed {seed} recorded", flush=True)
            path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
