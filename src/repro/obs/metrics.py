"""Process-wide metrics registry: counters, gauges, histograms, sources.

One registry (:data:`METRICS`) unifies the repo's previously-disconnected
observability islands — :class:`~repro.engine.session.EngineStats`,
``PLAN_CACHE.stats()``, TuneDB hit/miss — behind labeled series:

>>> from repro.obs.metrics import MetricsRegistry
>>> m = MetricsRegistry()
>>> m.counter("engine.chunk.retries").inc()
>>> m.histogram("engine.chunk.wall_seconds").observe(0.12, worker=3)
>>> sorted(m.snapshot())
['engine.chunk.retries', 'engine.chunk.wall_seconds{worker=3}']

Series are keyed ``name{label=value,...}`` (labels sorted, so the key is
canonical).  Counters/gauges hold one float; histograms hold
``{count, sum, min, max, mean}``.  :meth:`~MetricsRegistry.snapshot`
returns a plain dict (registered *sources* — callables returning dicts —
are polled at snapshot time under their prefix), and
:meth:`~MetricsRegistry.delta` diffs two snapshots so a caller can
attribute counts to one sweep out of a long-lived process.

Updates are lock-guarded and cheap, but the zero-cost-when-disabled
contract lives one layer up: call sites guard on
:func:`repro.obs.spans.enabled` before touching the registry.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Mapping, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "METRICS",
    "series_key",
]


def series_key(name: str, labels: Mapping[str, Any]) -> str:
    """Canonical series key: ``name`` or ``name{k=v,...}`` (sorted)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class _Metric:
    """Base handle: a name bound to its registry."""

    __slots__ = ("name", "_registry")

    def __init__(self, name: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self._registry = registry


class Counter(_Metric):
    """Monotonically increasing series (per label set)."""

    def inc(self, value: float = 1, **labels: Any) -> None:
        self._registry.inc(self.name, value, **labels)


class Gauge(_Metric):
    """Last-write-wins series (per label set)."""

    def set(self, value: float, **labels: Any) -> None:
        self._registry.set_gauge(self.name, value, **labels)


class Histogram(_Metric):
    """Aggregating series: count/sum/min/max per label set."""

    def observe(self, value: float, **labels: Any) -> None:
        self._registry.observe(self.name, value, **labels)


class MetricsRegistry:
    """Named, labeled metric series plus pollable sources."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._hists: Dict[str, Dict[str, float]] = {}
        self._sources: Dict[str, Callable[[], Mapping[str, Any]]] = {}

    # -- handles ------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        return Counter(name, self)

    def gauge(self, name: str) -> Gauge:
        return Gauge(name, self)

    def histogram(self, name: str) -> Histogram:
        return Histogram(name, self)

    # -- updates ------------------------------------------------------------

    def inc(self, name: str, value: float = 1, **labels: Any) -> None:
        key = series_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        key = series_key(name, labels)
        with self._lock:
            self._gauges[key] = value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        key = series_key(name, labels)
        with self._lock:
            hist = self._hists.get(key)
            if hist is None:
                self._hists[key] = {
                    "count": 1, "sum": value, "min": value, "max": value,
                }
            else:
                hist["count"] += 1
                hist["sum"] += value
                hist["min"] = min(hist["min"], value)
                hist["max"] = max(hist["max"], value)

    # -- sources ------------------------------------------------------------

    def register_source(
        self, prefix: str, fn: Callable[[], Mapping[str, Any]]
    ) -> None:
        """Register a pollable source; its dict lands under ``prefix.``.

        Sources are how existing stats objects join the registry without
        double-counting: :meth:`snapshot` calls ``fn()`` and flattens the
        result to ``prefix.key`` series.  A source returning ``None`` (or
        raising) contributes nothing — sources must never break a
        snapshot.
        """
        with self._lock:
            self._sources[prefix] = fn

    def unregister_source(self, prefix: str) -> None:
        with self._lock:
            self._sources.pop(prefix, None)

    # -- reading ------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """All series (own + polled sources) as one flat dict."""
        with self._lock:
            out: Dict[str, Any] = dict(self._counters)
            out.update(self._gauges)
            for key, hist in self._hists.items():
                view = dict(hist)
                view["mean"] = view["sum"] / view["count"] if view["count"] else 0.0
                out[key] = view
            sources = list(self._sources.items())
        for prefix, fn in sources:
            try:
                polled = fn()
            except Exception:  # noqa: BLE001 - sources must not break snapshots
                continue
            if not polled:
                continue
            for key, value in polled.items():
                out[f"{prefix}.{key}"] = value
        return out

    #: ``as_dict`` is the conventional exporter-facing name.
    as_dict = snapshot

    def delta(self, previous: Mapping[str, Any]) -> Dict[str, Any]:
        """Diff the current snapshot against ``previous``.

        Numeric series subtract; histogram dicts subtract field-wise
        (``min``/``max``/``mean`` are recomputed meaninglessly by
        subtraction, so only ``count``/``sum`` are diffed and the rest
        report current values); anything non-numeric (e.g. a backend
        name) reports its current value.  Series absent from
        ``previous`` report their full current value.
        """
        current = self.snapshot()
        out: Dict[str, Any] = {}
        for key, value in current.items():
            prev = previous.get(key)
            if isinstance(value, dict):
                if isinstance(prev, dict):
                    diff = dict(value)
                    diff["count"] = value.get("count", 0) - prev.get("count", 0)
                    diff["sum"] = value.get("sum", 0) - prev.get("sum", 0)
                    out[key] = diff
                else:
                    out[key] = value
            elif isinstance(value, (int, float)) and isinstance(prev, (int, float)):
                out[key] = value - prev
            else:
                out[key] = value
        return out

    def reset(self, sources: bool = False) -> None:
        """Zero every series; optionally drop registered sources too."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._hists.clear()
            if sources:
                self._sources.clear()


def _engine_stats_source() -> Optional[Mapping[str, Any]]:
    from ..engine import runner

    stats = runner.last_stats()
    return stats.as_dict() if stats is not None else None


def _plan_cache_source() -> Mapping[str, Any]:
    from ..core.cache import PLAN_CACHE

    return PLAN_CACHE.stats()


def _tunedb_source() -> Mapping[str, Any]:
    from ..engine.store import lookup_counts

    return lookup_counts()


def install_default_sources(registry: "MetricsRegistry") -> None:
    """Wire the repo's standard stats objects in as sources."""
    registry.register_source("engine.stats", _engine_stats_source)
    registry.register_source("plan_cache", _plan_cache_source)
    registry.register_source("tunedb", _tunedb_source)


#: The process-wide default registry all instrumented call sites use.
METRICS = MetricsRegistry()
install_default_sources(METRICS)
