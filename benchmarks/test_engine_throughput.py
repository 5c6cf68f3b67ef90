"""Engine throughput: serial vs cold-pool vs warm-session.

Times the same 64-point batch three ways and writes
``benchmarks/out/BENCH_engine.json``:

* **serial** — ``EngineSession(workers=1)``, the plain plan/execute
  pipeline;
* **cold** — a fresh ``EngineSession(workers=N)`` per sweep: pool
  startup and shutdown both paid inside the measured window (what a
  one-off ``engine.sweep(workers=N)`` costs);
* **warm** — an :class:`EngineSession`'s persistent pool, measured
  *after* a warm-up sweep, so the startup cost is amortized away; every
  chunk it ships rides the shared-memory data plane.

Every variant must agree with serial bit for bit; the JSON records all
throughputs and ratios honestly on any machine, while the speedup
*assertions* are gated on the CPUs actually available to this process
(process fan-out cannot beat serial on a single-core box).
"""

import json
import time

import numpy as np
import pytest

from repro import CollectiveSpec, Grid
from repro.engine import EngineSession, default_workers

N_POINTS = 64
P, B = 64, 192
PARALLEL_WORKERS = max(4, min(8, default_workers()))


def _batch():
    """64 points over 8 distinct specs (mixed algorithms and sizes)."""
    rng = np.random.default_rng(42)
    shapes = [
        ("reduce", "chain", B), ("reduce", "tree", B),
        ("reduce", "two_phase", B), ("reduce", "star", 32),
        ("allreduce", "chain", B), ("allreduce", "tree", B),
        ("reduce", "chain", 2 * B), ("allreduce", "two_phase", B),
    ]
    specs, datas = [], []
    for i in range(N_POINTS):
        kind, algorithm, b = shapes[i % len(shapes)]
        specs.append(CollectiveSpec(kind, Grid(1, P), b, algorithm=algorithm))
        datas.append(rng.normal(size=(P, b)))
    return specs, datas


def _timed(runner, specs, datas):
    start = time.perf_counter()
    outcomes = runner(specs, datas)
    return outcomes, time.perf_counter() - start


def _assert_identical(outcomes, reference, label):
    for ours, ref in zip(outcomes, reference):
        assert np.array_equal(ours.result, ref.result), label
        assert ours.measured_cycles == ref.measured_cycles, label
        assert ours.algorithm == ref.algorithm, label


def test_engine_throughput_64_points(out_dir):
    specs, datas = _batch()
    serial_outs, serial_s = _timed(
        EngineSession(workers=1).sweep, specs, datas
    )

    # Cold: a session built, swept once and closed, all inside the
    # measured window.
    def fresh_session_sweep(specs, datas):
        with EngineSession(workers=PARALLEL_WORKERS) as session:
            outcomes = session.sweep(specs, datas)
        cold_stats.update(session.stats.as_dict())
        return outcomes

    cold_stats = {}
    cold_outs, cold_s = _timed(fresh_session_sweep, specs, datas)
    _assert_identical(cold_outs, serial_outs, "cold pool")

    with EngineSession(workers=PARALLEL_WORKERS) as session:
        session.sweep(specs, datas)                      # warm-up (cold start)
        warm_outs, warm_s = _timed(session.sweep, specs, datas)
        _assert_identical(warm_outs, serial_outs, "warm session")
        warm_stats = session.stats.as_dict()

    cores = default_workers()

    def rate(seconds):
        return round(N_POINTS / seconds, 2) if seconds > 0 else 0.0

    report = {
        "points": N_POINTS,
        "sim_backend": warm_stats["sim_backend"],
        "distinct_specs": len(set(specs)),
        "pe_row": P,
        "workers": PARALLEL_WORKERS,
        "cores_available": cores,
        "serial_seconds": round(serial_s, 3),
        "cold_seconds": round(cold_s, 3),
        "warm_seconds": round(warm_s, 3),
        "points_per_sec_serial": rate(serial_s),
        "points_per_sec_cold": rate(cold_s),
        "points_per_sec_warm": rate(warm_s),
        "speedup_cold_vs_serial": round(serial_s / cold_s, 3) if cold_s else 0.0,
        "speedup_warm_vs_serial": round(serial_s / warm_s, 3) if warm_s else 0.0,
        "speedup_warm_vs_cold": round(cold_s / warm_s, 3) if warm_s else 0.0,
        "shm_chunks": warm_stats["shm_chunks"],
        "shm_bytes": warm_stats["shm_bytes"],
        "warm_pool_reuses": warm_stats["pool_reuses"],
        "warm_cold_starts": warm_stats["cold_starts"],
        "chunks": warm_stats["chunks"],
    }
    (out_dir / "BENCH_engine.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    print(f"\n===== BENCH_engine =====\n{json.dumps(report, indent=2)}\n")

    # Structural honesty on any core count: the pools really ran, the
    # warm session really reused its pool, shm really carried the bytes.
    assert cold_stats["parallel_points"] == N_POINTS
    assert cold_stats["cold_starts"] == 1 and cold_stats["pool_reuses"] == 0
    assert warm_stats["parallel_points"] == 2 * N_POINTS
    assert warm_stats["cold_starts"] == 1
    assert warm_stats["pool_reuses"] == 1
    assert warm_stats["shm_chunks"] == warm_stats["chunks"] > 0
    assert warm_stats["shm_bytes"] > 0

    speedup = report["speedup_warm_vs_serial"]
    if cores >= 4:
        assert speedup >= 2.0, report
    elif cores >= 2:
        assert speedup >= 1.2, report
    else:
        pytest.skip(
            f"single core available (warm speedup {speedup:.2f}x recorded "
            "in BENCH_engine.json); the >=2x criterion needs >=4 cores"
        )
