"""Unified telemetry: metrics registry, timing spans, trace export.

The observability layer for the whole pipeline (planner → engine →
workers → simulator):

* :mod:`repro.obs.metrics` — labeled counters/gauges/histograms plus
  registered sources (:class:`~repro.engine.session.EngineStats`, the plan
  cache, TuneDB lookups) behind one :data:`METRICS` registry;
* :mod:`repro.obs.spans` — nestable ``with span("plan"):`` timing with
  process/thread context; worker-side spans ride home in chunk replies
  and merge onto the parent timeline;
* :mod:`repro.obs.export` — ``REPRO_TRACE=trace.json`` /
  ``REPRO_METRICS=metrics.jsonl`` env knobs and the programmatic
  :func:`use_telemetry`, writing Perfetto-loadable Chrome traces and
  metrics JSONL;
* :mod:`repro.obs.report` — ``python -m repro.obs.report trace.json``,
  a text dashboard (span totals, per-worker utilization, retry/fault
  counts, simulator phase breakdown).

Telemetry is strictly zero-cost when disabled: :func:`enabled` is a
dict lookup, hot paths guard on it before building any event, and no
instrumentation ever changes results — engine sweeps and snapshot
hashes are bit-identical with telemetry on or off.
"""

from . import export, metrics, spans  # noqa: F401
from .export import use_telemetry, write_metrics, write_trace  # noqa: F401
from .metrics import METRICS, MetricsRegistry  # noqa: F401
from .spans import (  # noqa: F401
    counter_sample,
    enabled,
    instant,
    merge_events,
    set_enabled,
    span,
)

__all__ = [
    "METRICS",
    "MetricsRegistry",
    "counter_sample",
    "enabled",
    "export",
    "instant",
    "merge_events",
    "metrics",
    "set_enabled",
    "span",
    "spans",
    "use_telemetry",
    "write_metrics",
    "write_trace",
]
