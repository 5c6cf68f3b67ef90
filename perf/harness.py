"""Shared pieces of the benchmark: statistics, spans, host fingerprint.

Nothing here imports ``repro``: the driver (``run.py``) and the self-tests
use this module without the program on ``sys.path``.
"""

from __future__ import annotations

import os
import pathlib
import platform
import resource
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

PERF_DIR = pathlib.Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
SRC = ROOT / "src"
OUT_DIR = PERF_DIR / "out"

#: Percentiles the benchmark may print, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is printed only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def percentile_allowed(n_samples: int, pct: float) -> bool:
    """Whether ``n_samples`` leave >= 10 samples beyond percentile ``pct``."""
    return n_samples * (1.0 - pct / 100.0) >= MIN_SAMPLES_BEYOND


def highest_percentile(n_samples: int) -> Optional[float]:
    """The highest ladder percentile ``n_samples`` supports, if any."""
    allowed = [p for p in PERCENTILE_LADDER if percentile_allowed(n_samples, p)]
    return allowed[-1] if allowed else None


def guarded_percentile(values: Sequence[float], pct: float) -> Optional[float]:
    """``percentile`` when the sample supports it, else ``None``."""
    if not percentile_allowed(len(values), pct):
        return None
    return percentile(values, pct)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0]) if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


# -- spans --------------------------------------------------------------------


class Recorder:
    """In-memory span recorder: name, layer, start, end, parent, op id.

    Spans nest by call order on one thread.  ``add`` inserts a span that
    was timed elsewhere (another process, an offline replay) under a
    given parent.  Self time is a span's duration minus the part its
    direct children cover, so the self times of a tree sum to its root.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, layer: str, op: Optional[int] = None):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        index = len(self.spans)
        record = {"name": name, "layer": layer, "start": time.perf_counter(),
                  "end": None, "parent": parent, "op": op}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, layer: str, start: float, end: float,
            parent: Optional[int], op: Optional[int] = None) -> int:
        if parent is not None:
            outer = self.spans[parent]
            if op is None:
                op = outer["op"]
            # children lie inside their parent, so self times stay >= 0
            start = max(start, outer["start"])
            end = min(max(end, start), outer["end"])
        self.spans.append({"name": name, "layer": layer, "start": start,
                           "end": end, "parent": parent, "op": op})
        return len(self.spans) - 1

    def duration(self, index: int) -> float:
        record = self.spans[index]
        return record["end"] - record["start"]

    def self_times(self) -> List[float]:
        """Self time of every span, in span order."""
        covered = [0.0] * len(self.spans)
        for index, record in enumerate(self.spans):
            if record["parent"] is not None:
                covered[record["parent"]] += self.duration(index)
        return [max(self.duration(i) - covered[i], 0.0)
                for i in range(len(self.spans))]

    def layer_self_seconds(self) -> Dict[str, float]:
        """Self time summed by layer over every recorded span."""
        out: Dict[str, float] = {}
        for record, own in zip(self.spans, self.self_times()):
            out[record["layer"]] = out.get(record["layer"], 0.0) + own
        return out

    def roots(self) -> List[int]:
        return [i for i, r in enumerate(self.spans) if r["parent"] is None]

    def chrome_trace(self) -> Dict[str, object]:
        """The spans as Chrome-trace complete events (chrome://tracing)."""
        base = min((r["start"] for r in self.spans), default=0.0)
        events = [{
            "name": r["name"], "cat": r["layer"], "ph": "X",
            "ts": (r["start"] - base) * 1e6,
            "dur": (r["end"] - r["start"]) * 1e6,
            "pid": 1, "tid": 1,
            "args": {"workload": self.workload, "op": r["op"],
                     "span": i, "parent": r["parent"]},
        } for i, r in enumerate(self.spans)]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def ledger(recorder: Recorder, n_ops: int,
           layers: Iterable[str]) -> Dict[str, float]:
    """Per-op ledger of a traced window: one row per layer, in ms.

    ``op`` is the mean root-span time; the rows are layer self times per
    op; ``unexplained`` is what no named layer accounts for (self time of
    spans whose layer is not in ``layers``, i.e. the harness itself, is
    part of it), so ``sum(rows) + unexplained == op`` by construction.
    """
    total = sum(recorder.duration(i) for i in recorder.roots())
    by_layer = recorder.layer_self_seconds()
    n_ops = max(n_ops, 1)
    rows = {layer: 1e3 * by_layer.get(layer, 0.0) / n_ops for layer in layers}
    op_ms = 1e3 * total / n_ops
    rows["unexplained"] = op_ms - sum(rows.values())
    rows["op"] = op_ms
    return rows


# -- host ---------------------------------------------------------------------


def calibrate() -> Dict[str, float]:
    """Two fixed loops, so a reader can tell host drift from code drift."""
    import numpy as np

    def best_of(fn, reps=3):
        best = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    def python_loop():
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        return acc

    grid = np.arange(16_384, dtype=np.float64)   # stays in cache

    def numpy_loop():
        acc = 0.0
        for _ in range(600):
            acc += float(np.sqrt(grid * 1.0001 + 1.0).sum())
        return acc

    return {"host.calib_python_s": best_of(python_loop),
            "host.calib_numpy_s": best_of(numpy_loop)}


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = ROOT / ".git" / text[5:]
            return ref.read_text().strip() if ref.exists() else text[5:]
        return text
    except OSError:
        return "unknown"


def host_fingerprint() -> Dict[str, object]:
    import numpy as np

    return {
        "host.cores": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def peak_rss_mb() -> float:
    """Peak resident set: this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def shm_segments() -> List[str]:
    """Names of the program's shared-memory segments still in /dev/shm."""
    try:
        return sorted(n for n in os.listdir("/dev/shm")
                      if n.startswith("repro_shm"))
    except OSError:
        return []
