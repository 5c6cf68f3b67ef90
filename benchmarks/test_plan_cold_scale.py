"""Cold planning at the paper's scale: rows of 512 and 1024 PEs, and
the 256×256 and 512×512 grids.

Each size is planned with ``algorithm="auto"`` in a fresh Python
process, so the Auto-Gen DP tables and every planner memo start empty.
The 1×1024 DP is memory-bound (about 800 dense 1025×1025 min-plus
levels), so load from other processes only adds time: the bench takes
the faster of two fresh processes.  It asserts the wall time of that
``plan()`` call against the cold-planning targets (≤ 1 s at 1×512,
≤ 8 s at 1×1024; at 512×512, ≤ 5 s for reduce and ≤ 8 s for allreduce)
and pins the chosen algorithm and its predicted cycles, so a faster
planner that changed the plan would fail here.  On the 2D grids the
schedule has one program per PE (262 144 at 512×512), so the time is
schedule construction as much as the DP; the 512×512 cases also bound
the process's peak RSS.  The output is timings, so no file is written
for the snapshot guard.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# Peak RSS is the kernel's high-water mark of this process's own memory
# (VmHWM): ``ru_maxrss`` would also count the pytest process it was
# forked from, which is larger than the plan after a full bench run.
_CHILD = """
import json, sys, time
from repro import CollectiveSpec, Grid, wse
kind, rows, cols = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
start = time.perf_counter()
plan = wse.plan(CollectiveSpec(kind, Grid(rows, cols), 256))
seconds = time.perf_counter() - start
with open("/proc/self/status") as status:
    hwm_kb = next(int(line.split()[1]) for line in status
                  if line.startswith("VmHWM:"))
print(json.dumps({"seconds": seconds,
                  "algorithm": plan.algorithm,
                  "predicted_cycles": plan.predicted_cycles,
                  "peak_rss_mb": hwm_kb / 1024}))
"""

#: (P, time bound in s, algorithm, predicted cycles) for reduce 1×P, B=256.
CASES = [
    (512, 1.0, "autogen", 1162.4696673189824),
    (1024, 8.0, "autogen", 1743.989247311828),
]


#: (kind, side, time bound in s, algorithm, predicted cycles) for the
#: ``side``×``side`` grid, B=256.
CASES_2D = [
    ("reduce", 256, 1.5, "autogen", 1709.8274509803923),
    ("reduce", 512, 5.0, "autogen", 2324.9393346379647),
    ("allreduce", 256, 2.5, "autogen", 2480.8274509803923),
    ("allreduce", 512, 8.0, "autogen", 3607.9393346379647),
]

#: Peak RSS bound of a 512×512 cold plan: what the per-row construction,
#: which merged one schedule per row, needed for the allreduce.
RSS_BOUND_MB_512 = 838.0


def cold_plan(p: int, kind: str = "reduce", rows: int = 1) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, kind, str(rows), str(p)],
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


@pytest.mark.parametrize("kind, side, bound_s, algorithm, cycles", CASES_2D)
def test_cold_plan_2d_at_paper_scale(kind, side, bound_s, algorithm, cycles):
    runs = [cold_plan(side, kind, rows=side) for _ in range(2)]
    got = min(runs, key=lambda r: r["seconds"])
    rss = max(r["peak_rss_mb"] for r in runs)
    print(f"\ncold plan {kind} {side}x{side} B=256: {got['seconds']:.3f} s, "
          f"peak RSS {rss:.0f} MB ({got['algorithm']}, "
          f"{got['predicted_cycles']} cycles)")
    assert got["algorithm"] == algorithm
    assert got["predicted_cycles"] == cycles
    assert got["seconds"] <= bound_s
    if side == 512:
        assert rss <= RSS_BOUND_MB_512
