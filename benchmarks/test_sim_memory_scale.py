"""Memory of one simulated collective at 64×64 and 128×128 PEs.

One ``execute`` of reduce ``algorithm="auto"`` at B=256 on a seeded
input, in a fresh Python process (planning happens first and is not
timed).  The vectorized stepper keeps only timing state — wavelet
counts, arrival times and rule cursors — and the value pass computes
the buffers once the stepper is released, so the process's peak RSS is
bounded by the larger of the two, not their sum.  At 128×128 the bench
asserts the vectorized backend, the cycle count (1426), the NumPy sum
and a peak RSS of at most 470 MB (a stepper that carried the payloads
through its FIFOs and queues peaked at 530 MB).  The 64×64 point is
reported beside it.  The output is timings and memory, so no file is
written for the snapshot guard.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# Peak RSS is the kernel's high-water mark of the child's own memory
# (VmHWM); ``ru_maxrss`` would also count the pytest process it was
# forked from.
_CHILD = """
import json, sys, time
import numpy as np
from repro import CollectiveSpec, Grid, wse
from repro.core.api import seeded_input
side = int(sys.argv[1])
spec = CollectiveSpec("reduce", Grid(side, side), 256)
plan = wse.plan(spec)
data = seeded_input(spec, 0)
start = time.perf_counter()
out = wse.execute(plan, data)
seconds = time.perf_counter() - start
with open("/proc/self/status") as status:
    hwm_kb = next(int(line.split()[1]) for line in status
                  if line.startswith("VmHWM:"))
print(json.dumps({"seconds": seconds,
                  "cycles": out.measured_cycles,
                  "backend": out.sim.backend,
                  "matches_sum": bool(np.allclose(out.result, data.sum(axis=0))),
                  "peak_rss_mb": hwm_kb / 1024}))
"""

#: Peak RSS bound of the 128×128 execute.
RSS_BOUND_MB_128 = 470.0


def execute_in_child(side: int) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, str(side)],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_execute_memory_at_128x128():
    small = execute_in_child(64)
    got = execute_in_child(128)
    for side, run in ((64, small), (128, got)):
        print(f"\nexecute reduce auto {side}x{side} B=256: "
              f"{run['seconds']:.2f} s, peak RSS {run['peak_rss_mb']:.0f} MB, "
              f"{run['cycles']} cycles ({run['backend']})")
    assert got["backend"] == "vectorized"
    assert got["cycles"] == 1426
    assert got["matches_sum"]
    assert got["peak_rss_mb"] <= RSS_BOUND_MB_128
