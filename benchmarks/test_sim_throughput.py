"""Simulator throughput: vectorized array-phase backend vs reference.

Times the same fixed spec grid through both simulator backends on the
serial path (one process, one schedule at a time) and writes
``benchmarks/out/BENCH_sim.json``:

* **reference** — the per-message event-loop oracle
  (:class:`~repro.fabric.simulator.FabricSimulator`);
* **vectorized** — :class:`~repro.fabric.vectorized.VectorizedSimulator`,
  which advances every PE per cycle with dense array phases and strides
  over steady-state windows, timing only, plus the clock-free value pass
  (:mod:`repro.fabric.values`) for the buffers.

Every point must agree bit for bit (cycles, energy, per-PE buffers,
link loads, completion times) — the reference backend is the oracle,
speed never buys divergence.  The JSON records per-point seconds,
points/sec and the speedup for both backends on any machine; the ≥5x
speedup *assertion* only gates the vectorized leg (it is meaningless
when ``REPRO_SIM_BACKEND=reference`` pins the oracle), and holds on a
single-core box since both legs are serial.

The spec grid matches the paper's fig 8-13 operating regime: 16x16 PEs
with kilobyte-class blocks, one case per major algorithm family (tree,
two-phase, flood, chain).  The aggregate speedup and its floor cover
that grid only.  Beside it, ``cases_1d`` records the paper's 1D regime
(figs 11-12, 1x64 PEs) per case: there striding rarely applies and the
vectorized backend is not expected to beat the reference by much, so it
gets a trajectory but no floor.
"""

import json
import time

import numpy as np

from repro.collectives import build_schedule
from repro.fabric.geometry import Grid
from repro.fabric.simulator import resolve_backend, simulate

#: (kind, algorithm, grid, b) — the fixed spec grid, one case per
#: algorithm family at the paper's 2D operating point.
SPEC_GRID = [
    ("reduce", "tree", Grid(16, 16), 1024),
    ("allreduce", "two_phase", Grid(16, 16), 1024),
    ("broadcast", "flood", Grid(16, 16), 1024),
    ("allreduce", "chain", Grid(16, 16), 1024),
]

#: the 1D regime, reported per case and kept out of the aggregate.
SPEC_1D = [
    ("reduce", "chain", Grid(1, 64), 192),
    ("reduce", "star", Grid(1, 64), 32),
]

#: serial points/sec floor for the vectorized backend vs reference.
MIN_SPEEDUP = 5.0


def _inputs(schedule, rng):
    return {
        pe: rng.standard_normal(schedule.buffer_size)
        for pe in schedule.programs
    }


def _run(schedule, inputs, backend):
    copies = {pe: buf.copy() for pe, buf in inputs.items()}
    start = time.perf_counter()
    result = simulate(schedule, inputs=copies, backend=backend)
    return result, time.perf_counter() - start


def _assert_identical(ref, vec, label):
    assert ref.backend == "reference" and vec.backend == "vectorized", label
    assert ref.cycles == vec.cycles, label
    assert ref.energy == vec.energy, label
    assert np.array_equal(ref.received, vec.received), label
    assert np.array_equal(ref.sent, vec.sent), label
    assert np.array_equal(ref.link_loads, vec.link_loads), label
    assert np.array_equal(ref.completion, vec.completion), label
    assert ref.clock_samples == vec.clock_samples, label
    assert sorted(ref.buffers) == sorted(vec.buffers), label
    for pe in ref.buffers:
        assert np.array_equal(ref.buffers[pe], vec.buffers[pe]), (
            f"{label}: buffers diverge at PE {pe}"
        )


def _case(kind, algorithm, grid, b, rng):
    """Time one spec through both backends; its row and the two times."""
    schedule = build_schedule(kind, grid, algorithm, b)
    inputs = _inputs(schedule, rng)
    label = f"{kind}/{algorithm}/{grid.rows}x{grid.cols}/b{b}"
    ref, ref_s = _run(schedule, inputs, "reference")
    vec, vec_s = _run(schedule, inputs, "vectorized")
    _assert_identical(ref, vec, label)
    row = {
        "case": label,
        "cycles": ref.cycles,
        "reference_seconds": round(ref_s, 3),
        "vectorized_seconds": round(vec_s, 3),
        "speedup": round(ref_s / vec_s, 2) if vec_s else 0.0,
    }
    return row, ref_s, vec_s


def test_sim_throughput_backends(out_dir):
    rng = np.random.default_rng(2024)
    cases = []
    ref_total = vec_total = 0.0
    for spec in SPEC_GRID:
        row, ref_s, vec_s = _case(*spec, rng)
        ref_total += ref_s
        vec_total += vec_s
        cases.append(row)
    cases_1d = [_case(*spec, rng)[0] for spec in SPEC_1D]

    n = len(SPEC_GRID)
    report = {
        "backend": resolve_backend(None),
        "points": n,
        "cases": cases,
        "cases_1d": cases_1d,
        "reference_seconds": round(ref_total, 3),
        "vectorized_seconds": round(vec_total, 3),
        "per_point_seconds_reference": round(ref_total / n, 3),
        "per_point_seconds_vectorized": round(vec_total / n, 3),
        "points_per_sec_reference": (
            round(n / ref_total, 3) if ref_total else 0.0
        ),
        "points_per_sec_vectorized": (
            round(n / vec_total, 3) if vec_total else 0.0
        ),
        "speedup": round(ref_total / vec_total, 2) if vec_total else 0.0,
        "bit_identical": True,
    }
    (out_dir / "BENCH_sim.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    print(f"\n===== BENCH_sim =====\n{json.dumps(report, indent=2)}\n")

    # The speedup floor gates only the vectorized leg: under
    # REPRO_SIM_BACKEND=reference the point of the run is the oracle,
    # not the optimization.  Both legs are serial, so the floor is
    # core-count-independent.
    if report["backend"] == "vectorized":
        assert report["speedup"] >= MIN_SPEEDUP, (
            f"vectorized backend is only {report['speedup']}x reference "
            f"(floor {MIN_SPEEDUP}x)"
        )
