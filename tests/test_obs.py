"""Unit tests for the telemetry subsystem (:mod:`repro.obs`).

Covers the metrics registry (series, labels, snapshot/delta, sources),
the span layer (zero-cost disabled path, collection, cross-process
merge), the exporters (Perfetto-loadable trace, metrics JSONL,
``use_telemetry``), the text dashboard, the observable vectorized→
reference fallback, and the ``EngineStats``/``as_dict`` completeness
contract the registry's engine source relies on.
"""

from __future__ import annotations

import dataclasses
import json
import logging

import numpy as np
import pytest

from repro.core.cache import PLAN_CACHE
from repro.core.registry import CollectiveSpec
from repro.engine import EngineSession, EngineStats
from repro.fabric.geometry import Grid
from repro.model.params import MachineParams
from repro.obs import export, report, spans
from repro.obs.metrics import METRICS, MetricsRegistry, series_key


@pytest.fixture(autouse=True)
def _clean_obs(monkeypatch):
    """Isolate every test from env-armed telemetry and shared state.

    The full CI tier runs the suite with ``REPRO_TRACE`` set; these
    tests assert exact enabled/disabled behaviour, so they must start
    from the boot state and restore whatever the environment armed.
    """
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


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


def test_series_key_canonical():
    assert series_key("a.b", {}) == "a.b"
    assert series_key("a", {"w": 3, "k": "x"}) == "a{k=x,w=3}"


def test_counter_gauge_histogram_roundtrip():
    m = MetricsRegistry()
    m.counter("c").inc()
    m.counter("c").inc(2, worker=1)
    m.gauge("g").set(7.5)
    m.histogram("h").observe(1.0)
    m.histogram("h").observe(3.0)
    snap = m.snapshot()
    assert snap["c"] == 1
    assert snap["c{worker=1}"] == 2
    assert snap["g"] == 7.5
    hist = snap["h"]
    assert hist == {"count": 2, "sum": 4.0, "min": 1.0, "max": 3.0,
                    "mean": 2.0}
    assert m.as_dict() == m.snapshot()


def test_delta_diffs_counters_and_histograms():
    m = MetricsRegistry()
    m.inc("c", 5)
    m.observe("h", 1.0)
    before = m.snapshot()
    m.inc("c", 2)
    m.observe("h", 9.0)
    m.set_gauge("name", "vectorized")  # non-numeric: reported as-is
    d = m.delta(before)
    assert d["c"] == 2
    assert d["h"]["count"] == 1
    assert d["h"]["sum"] == 9.0
    assert d["name"] == "vectorized"
    assert m.delta({})["c"] == 7  # absent series report full value


def test_sources_flatten_and_never_break_snapshots():
    m = MetricsRegistry()
    m.register_source("good", lambda: {"x": 1})
    m.register_source("bad", lambda: 1 / 0)
    m.register_source("empty", lambda: None)
    snap = m.snapshot()
    assert snap["good.x"] == 1
    assert not any(k.startswith(("bad.", "empty.")) for k in snap)
    m.unregister_source("good")
    assert "good.x" not in m.snapshot()


def test_default_registry_has_repo_sources():
    snap = METRICS.snapshot()
    assert "plan_cache.size" in snap
    assert "tunedb.hits" in snap
    assert "tunedb.misses" in snap


def test_reset_zeroes_series_keeps_sources():
    m = MetricsRegistry()
    m.register_source("s", lambda: {"x": 1})
    m.inc("c")
    m.reset()
    snap = m.snapshot()
    assert "c" not in snap
    assert snap["s.x"] == 1
    m.reset(sources=True)
    assert m.snapshot() == {}


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


def test_disabled_span_is_shared_noop_and_records_nothing():
    assert not spans.enabled()
    s1 = spans.span("anything", a=1)
    s2 = spans.span("else")
    assert s1 is s2  # the one shared no-op object
    with s1 as sp:
        sp.add(more=2)
    spans.instant("evt")
    spans.counter_sample("ctr", {"x": 1})
    assert spans.collector().events == []


def test_repeated_spec_run_many_is_inert_when_off():
    """The value pass behind every point records only when on: the
    simulated first point runs it for its buffers, the repeats alone."""
    from repro.core.api import run_many

    spec = CollectiveSpec("reduce", Grid(1, 8), 8)
    datas = [np.full((8, 8), float(seed)) for seed in range(3)]

    def values_series(delta):
        return {k: v for k, v in delta.items()
                if k.startswith("fabric.values") and v}

    before = METRICS.snapshot()
    run_many([spec] * 3, datas, backend="vectorized")
    assert spans.collector().events == []
    assert values_series(METRICS.delta(before)) == {}

    before = METRICS.snapshot()
    spans.set_enabled(True)
    try:
        run_many([spec] * 3, datas, backend="vectorized")
    finally:
        spans.set_enabled(False)
    assert values_series(METRICS.delta(before)) == {"fabric.values.points": 3}
    assert [e["name"] for e in spans.collector().events
            if e["name"] == "fabric.values"] == ["fabric.values"] * 3


def test_enabled_spans_nest_and_capture_args():
    spans.set_enabled(True)
    with spans.collect() as got:
        with spans.span("outer", k=1) as sp:
            with spans.span("inner"):
                pass
            sp.add(result=42)
        spans.instant("tick", n=3)
        spans.counter_sample("ctr", {"a": 1.0})
    names = [e["name"] for e in got.events]
    assert names == ["inner", "outer", "tick", "ctr"]  # exit order
    outer = got.events[1]
    assert outer["ph"] == "X"
    assert outer["args"] == {"k": 1, "result": 42}
    assert outer["dur"] >= got.events[0]["dur"]  # outer contains inner
    assert got.events[2]["ph"] == "i"
    assert got.events[3]["ph"] == "C"
    # collect() restored the previous collector: nothing leaked out.
    assert spans.collector().events == []


def test_span_records_even_when_block_raises():
    spans.set_enabled(True)
    with spans.collect() as got:
        with pytest.raises(ValueError):
            with spans.span("boom"):
                raise ValueError("x")
    assert [e["name"] for e in got.events] == ["boom"]


def test_collector_caps_events_and_counts_truncation():
    c = spans.SpanCollector(max_events=2)
    for i in range(5):
        c.add({"i": i})
    assert len(c.events) == 2
    assert c.truncated == 3


def test_merge_events_retags_worker_track():
    spans.set_enabled(True)
    import os
    with spans.collect() as got:
        spans.merge_events(
            [{"ph": "X", "name": "engine.chunk", "ts": 1.0, "dur": 2.0,
              "pid": 99999, "tid": 123}],
            tid=4242,
        )
    (e,) = got.events
    assert e["pid"] == os.getpid()
    assert e["tid"] == 4242


def test_set_enabled_returns_previous():
    assert spans.set_enabled(True) is False
    assert spans.set_enabled(False) is True


# ---------------------------------------------------------------------------
# Export + report
# ---------------------------------------------------------------------------


def _run_point():
    from repro.core.api import execute, plan

    spec = CollectiveSpec("reduce", Grid(1, 8), 8)
    data = np.arange(8 * 8, dtype=np.float64).reshape(8, 8)
    return execute(plan(spec), data)


def test_use_telemetry_writes_loadable_trace_and_metrics(tmp_path):
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.jsonl"
    with export.use_telemetry(trace=str(trace_path),
                              metrics=str(metrics_path)):
        _run_point()
    assert not spans.enabled()  # restored

    trace = json.loads(trace_path.read_text())
    events = trace["traceEvents"]
    x_names = {e["name"] for e in events if e.get("ph") == "X"}
    assert {"plan", "execute", "sim.run"} <= x_names
    # Perfetto-loadable shape: rebased timestamps, named tracks.
    assert min(e["ts"] for e in events if "ts" in e) == 0.0
    assert any(e.get("ph") == "M" and e["name"] == "process_name"
               for e in events)

    rows = [json.loads(line) for line in
            metrics_path.read_text().splitlines()]
    assert "meta" in rows[0]
    series = {r["series"] for r in rows[1:]}
    assert "plan_cache.size" in series


def test_use_telemetry_yields_collector_for_in_process_use():
    with export.use_telemetry() as got:
        _run_point()
    assert any(e["name"] == "sim.run" for e in got.events)


def test_chrome_trace_reports_truncation():
    c = spans.SpanCollector(max_events=1)
    c.add({"ph": "X", "name": "a", "ts": 5.0, "dur": 1.0, "pid": 1,
           "tid": 2})
    c.add({"ph": "X", "name": "b", "ts": 6.0, "dur": 1.0, "pid": 1,
           "tid": 2})
    doc = export.chrome_trace(c.events, truncated=c.truncated)
    assert doc["otherData"]["truncated_events"] == 1
    (ev,) = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    assert ev["ts"] == 0.0  # rebased


def test_report_summarizes_trace_and_metrics(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.jsonl"
    with export.use_telemetry(trace=str(trace_path),
                              metrics=str(metrics_path)):
        _run_point()
        spans.instant("engine.retry", chunk=0)

    text = report.summarize_trace(report.load_trace(str(trace_path)))
    assert "== span totals ==" in text
    assert "sim.run" in text
    assert "== per-track utilization" in text
    assert "engine.retry" in text
    assert "== simulator phases ==" in text

    mtext = report.summarize_metrics(str(metrics_path))
    assert "plan_cache.size" in mtext

    assert report.main([str(trace_path), str(metrics_path)]) == 0
    out = capsys.readouterr().out
    assert "== span totals ==" in out
    assert "== metrics ==" in out


def test_env_arming_enables_recording(monkeypatch, tmp_path):
    monkeypatch.setenv(spans.ENV_TRACE, str(tmp_path / "t.json"))
    spans._STATE["enabled"] = False
    spans._STATE["env_checked"] = False
    saved_pid = export._ARMED["pid"]
    try:
        assert spans.enabled()  # lazily armed from env
    finally:
        export._ARMED["pid"] = saved_pid
        spans.set_enabled(False)


# ---------------------------------------------------------------------------
# Observable vectorized -> reference fallback
# ---------------------------------------------------------------------------


#: A zero ramp latency is one of the reasons a vectorized run falls back.
_NO_RAMP = MachineParams(ramp_latency=0)


def _fallback_schedule_inputs():
    from repro.collectives import build_schedule

    s = build_schedule("reduce", Grid(1, 4), "tree", 4)
    rng = np.random.default_rng(0)
    inputs = {pe: rng.random(4) for pe in range(4)}
    return s, inputs


def test_fallback_increments_metric_and_emits_instant():
    from repro.fabric.simulator import simulate

    schedule, inputs = _fallback_schedule_inputs()
    before = METRICS.snapshot()
    spans.set_enabled(True)
    try:
        with spans.collect() as got:
            result = simulate(schedule, inputs=inputs,
                              backend="vectorized", params=_NO_RAMP)
    finally:
        spans.set_enabled(False)
    assert result.backend == "reference"
    delta = METRICS.delta(before)
    fallback = [k for k in delta
                if k.startswith("sim.fallback") and delta[k]]
    assert fallback, f"no sim.fallback series bumped: {sorted(delta)}"
    assert any(e["ph"] == "i" and e["name"] == "sim.fallback"
               for e in got.events)


def test_fallback_hook_fires_every_time_and_restores():
    from repro.fabric import simulator

    schedule, inputs = _fallback_schedule_inputs()
    calls = []
    previous = simulator.set_fallback_hook(
        lambda sched, reason: calls.append((sched.name, reason))
    )
    try:
        for _ in range(2):
            simulator.simulate(
                schedule,
                inputs={k: v.copy() for k, v in inputs.items()},
                backend="vectorized", params=_NO_RAMP,
            )
    finally:
        restored = simulator.set_fallback_hook(previous)
    assert len(calls) == 2
    assert all(reason == "ramp_latency" for _, reason in calls)
    assert restored is not None  # our hook was in place until now


def test_fallback_logs_once_per_reason(caplog):
    from repro.fabric import simulator

    schedule, inputs = _fallback_schedule_inputs()
    simulator._FALLBACK_STATE["warned"].clear()
    with caplog.at_level(logging.WARNING, logger="repro.fabric.simulator"):
        for _ in range(3):
            simulator.simulate(
                schedule,
                inputs={k: v.copy() for k, v in inputs.items()},
                backend="vectorized", params=_NO_RAMP,
            )
    warnings = [r for r in caplog.records
                if "falling back" in r.getMessage()]
    assert len(warnings) == 1


# ---------------------------------------------------------------------------
# EngineStats completeness (the engine.stats source contract)
# ---------------------------------------------------------------------------


def test_engine_stats_as_dict_covers_every_field():
    stats = EngineStats()
    keys = set(stats.as_dict())
    fields = {f.name for f in dataclasses.fields(EngineStats)}
    missing = fields - keys
    assert not missing, f"EngineStats.as_dict() missing fields: {missing}"
    assert "sim_backend" in keys


def test_last_stats_reaches_registry_via_source():
    from repro.engine import runner

    spec = CollectiveSpec("reduce", Grid(1, 8), 8)
    data = np.arange(8 * 8, dtype=np.float64).reshape(8, 8)
    runner.sweep([spec], [data], session=EngineSession(workers=1))
    snap = METRICS.snapshot()
    assert snap["engine.stats.points"] >= 1
    assert "engine.stats.sim_backend" in snap
