"""Telemetry ↔ engine integration: traces of real (faulty) sweeps.

The acceptance story for :mod:`repro.obs`: a multi-worker sweep with an
injected worker kill produces a Perfetto-loadable trace showing the
parent's ``engine.sweep`` span, each worker's ``engine.chunk`` spans on
its own pid-named track, and the recovery (requeue / pool loss /
replacement) as instant events — while the sweep's outcomes stay
bit-identical to a telemetry-off run.  Plus the zero-cost contract:
disabled telemetry writes no files and adds no measurable overhead.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.cache import PLAN_CACHE
from repro.core.registry import CollectiveSpec
from repro.engine import EngineSession, faults, use_faults
from repro.fabric.geometry import Grid
from repro.obs import export, spans
from repro.obs.metrics import METRICS

pytestmark = pytest.mark.usefixtures("shm_leak_guard", "close_sessions")

SPEC = CollectiveSpec("reduce", Grid(1, 8), 16)

#: Thread idents are pointer-sized; worker tids in merged traces are
#: pids.  This is the same discrimination the exporter's track naming
#: uses.
_PID_LIKE = 1 << 22


@pytest.fixture(autouse=True)
def _clean_obs(monkeypatch):
    monkeypatch.delenv(spans.ENV_TRACE, raising=False)
    monkeypatch.delenv(spans.ENV_METRICS, raising=False)
    saved = dict(spans._STATE)
    spans._STATE["enabled"] = False
    spans._STATE["env_checked"] = True
    spans._STATE["collector"] = spans.SpanCollector()
    yield
    spans._STATE.update(saved)


@pytest.fixture(autouse=True)
def fresh_cache():
    PLAN_CACHE.clear()
    yield
    PLAN_CACHE.clear()


@pytest.fixture(autouse=True)
def _no_env_faults():
    with faults.use_faults(None):
        yield


def _batch(rng, n=12):
    return [SPEC] * n, [rng.normal(size=(8, 16)) for _ in range(n)]


def _assert_outcomes_equal(ours, reference):
    assert len(ours) == len(reference)
    for a, b in zip(ours, reference):
        assert np.array_equal(a.result, b.result)  # bit-identical
        assert a.measured_cycles == b.measured_cycles


class TestFaultySweepTrace:
    def test_kill_fault_sweep_shows_workers_and_recovery(self, rng,
                                                         tmp_path):
        trace_path = tmp_path / "trace.json"
        specs, datas = _batch(rng)
        with export.use_telemetry(trace=str(trace_path)):
            with use_faults("kill@1"):
                engine = EngineSession(workers=2, backoff_base=0.01)
                engine.sweep(specs, datas)
        assert engine.stats.pool_replacements >= 1

        trace = json.loads(trace_path.read_text())
        events = trace["traceEvents"]
        xs = [e for e in events if e.get("ph") == "X"]
        instants = {e["name"] for e in events if e.get("ph") == "i"}

        # Parent-side structure.
        assert any(e["name"] == "engine.sweep" for e in xs)

        # Worker chunk spans, merged onto per-worker (pid-named) tracks
        # under the host process.
        chunk_tracks = {e["tid"] for e in xs if e["name"] == "engine.chunk"}
        assert chunk_tracks, "no engine.chunk spans in trace"
        assert all(tid < _PID_LIKE for tid in chunk_tracks)
        assert all(e["pid"] == os.getpid() for e in xs
                   if e["name"] == "engine.chunk")
        track_names = {
            e["args"]["name"] for e in events
            if e.get("ph") == "M" and e["name"] == "thread_name"
        }
        assert any(name.startswith("worker ") for name in track_names)

        # The recovery is on the timeline.
        assert "engine.requeue" in instants
        assert "engine.pool_loss" in instants
        assert "engine.pool_replacement" in instants

        # And in the registry: per-worker chunk wall-time histograms.
        walls = [k for k in METRICS.snapshot()
                 if k.startswith("engine.chunk.wall_seconds{worker=")]
        assert walls

    def test_timeout_retry_appears_as_instants(self, rng, tmp_path):
        specs, datas = _batch(rng, n=6)
        with export.use_telemetry() as got:
            with use_faults("delay@0=0.8"):
                engine = EngineSession(workers=2, chunk_timeout=0.2,
                                       backoff_base=0.01)
                engine.sweep(specs, datas)
        assert engine.stats.timeouts >= 1
        assert engine.stats.retries >= 1
        instants = {e["name"] for e in got.events if e.get("ph") == "i"}
        assert "engine.timeout" in instants
        assert "engine.retry" in instants

    def test_outcomes_bit_identical_telemetry_on_vs_off(self, rng):
        specs, datas = _batch(rng)
        engine_off = EngineSession(workers=2)
        baseline = engine_off.sweep(specs, datas)
        with export.use_telemetry():
            engine_on = EngineSession(workers=2)
            traced = engine_on.sweep(specs, datas)
        _assert_outcomes_equal(traced, baseline)


class TestZeroCostDisabled:
    def test_disabled_run_emits_no_files(self, rng, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        specs, datas = _batch(rng, n=4)
        EngineSession(workers=1).sweep(specs, datas)
        assert os.listdir(tmp_path) == []

    def test_disabled_adds_no_measurable_overhead(self, rng):
        """Disabled telemetry must not cost more than enabled + 10%.

        The disabled path is a dict lookup per call site, the enabled
        path allocates spans and appends events — so disabled ≤ enabled
        is the physically expected ordering and the 10% headroom only
        absorbs scheduler noise.  A regression that makes the *disabled*
        path do real work trips this.

        The measure is the process's CPU time, so time spent preempted
        by other processes is not counted; the statistic is the median
        over seven back-to-back (disabled, enabled) pairs of their ratio,
        order alternating, so a slow stretch of the host lands on both
        halves of a pair.  The collector is off while timing, as in
        ``timeit``.
        """
        # Eight distinct specs, so every sweep runs eight simulations:
        # repeats of one spec simulate once, and the ~15 ms left of a
        # sweep is within the noise of a busy host.
        specs = [CollectiveSpec("reduce", Grid(1, 8), b) for b in range(16, 24)]
        datas = [rng.normal(size=(8, spec.b)) for spec in specs]
        engine = EngineSession(workers=1)
        engine.sweep(specs, datas)  # warm the plan cache

        def once(enabled):
            if enabled:
                with export.use_telemetry():
                    t0 = time.process_time()
                    engine.sweep(specs, datas)
                    return time.process_time() - t0
            t0 = time.process_time()
            engine.sweep(specs, datas)
            return time.process_time() - t0

        ratios = []
        gc.collect()
        gc.disable()
        try:
            for rep in range(7):
                if rep % 2:
                    enabled = once(True)
                    disabled = once(False)
                else:
                    disabled = once(False)
                    enabled = once(True)
                ratios.append(disabled / enabled)
        finally:
            gc.enable()
        assert statistics.median(ratios) <= 1.10, ratios


def test_env_armed_process_writes_files_at_exit(tmp_path):
    """REPRO_TRACE/REPRO_METRICS arm lazily and write on interpreter exit."""
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.jsonl"
    code = (
        "import numpy as np\n"
        "from repro.core.api import plan, execute\n"
        "from repro.core.registry import CollectiveSpec\n"
        "from repro.fabric.geometry import Grid\n"
        "spec = CollectiveSpec('reduce', Grid(1, 8), 8)\n"
        "execute(plan(spec), np.ones((8, 8)))\n"
    )
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    env["REPRO_TRACE"] = str(trace_path)
    env["REPRO_METRICS"] = str(metrics_path)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=env,
                   cwd=os.path.dirname(os.path.dirname(__file__)) or ".")
    trace = json.loads(trace_path.read_text())
    names = {e["name"] for e in trace["traceEvents"] if e.get("ph") == "X"}
    assert {"plan", "execute", "sim.run"} <= names
    rows = metrics_path.read_text().splitlines()
    assert rows and "meta" in json.loads(rows[0])
