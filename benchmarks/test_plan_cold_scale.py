"""Cold planning at the paper's row widths: 1×512 and 1×1024.

Each size is planned with ``algorithm="auto"`` in a fresh Python
process, so the Auto-Gen DP tables and every planner memo start empty.
The 1×1024 DP is memory-bound (about 800 dense 1025×1025 min-plus
levels), so load from other processes only adds time: the bench takes
the faster of two fresh processes.  It asserts the wall time of that
``plan()`` call against the cold-planning targets (≤ 1 s at 1×512,
≤ 8 s at 1×1024) and pins the chosen algorithm and its predicted
cycles, so a faster DP that changed the plan would fail here.  The
output is timings, so no file is written for the snapshot guard.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

_CHILD = """
import json, sys, time
from repro import CollectiveSpec, Grid, wse
p = int(sys.argv[1])
start = time.perf_counter()
plan = wse.plan(CollectiveSpec("reduce", Grid(1, p), 256))
print(json.dumps({"seconds": time.perf_counter() - start,
                  "algorithm": plan.algorithm,
                  "predicted_cycles": plan.predicted_cycles}))
"""

#: (P, time bound in s, algorithm, predicted cycles) for reduce 1×P, B=256.
CASES = [
    (512, 1.0, "autogen", 1162.4696673189824),
    (1024, 8.0, "autogen", 1743.989247311828),
]


def cold_plan(p: int) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, str(p)],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("p, bound_s, algorithm, cycles", CASES)
def test_cold_plan_at_paper_scale(p, bound_s, algorithm, cycles):
    got = min((cold_plan(p) for _ in range(2)), key=lambda r: r["seconds"])
    print(f"\ncold plan reduce 1x{p} B=256: {got['seconds']:.3f} s "
          f"({got['algorithm']}, {got['predicted_cycles']} cycles)")
    assert got["algorithm"] == algorithm
    assert got["predicted_cycles"] == cycles
    assert got["seconds"] <= bound_s
