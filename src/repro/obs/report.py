"""Text dashboard over a telemetry trace: ``python -m repro.obs.report``.

Reads a Chrome-trace ``trace.json`` (written by
:mod:`repro.obs.export`) and optionally a metrics JSONL file, and prints
a human-readable summary:

* span totals per name (count / total / mean / max milliseconds);
* per-worker utilization (union of busy intervals over the trace span,
  one row per (pid, tid) track);
* instant-event counts (retries, timeouts, pool losses, faults);
* simulator phase breakdown (drain/deliver/route/procs/stride seconds,
  strided-vs-stepped cycle fraction) from the ``C`` counter samples.

Usage::

    REPRO_TRACE=trace.json python -m repro.bench.figures --figure 11
    python -m repro.obs.report trace.json [metrics.jsonl]
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["load_trace", "summarize_trace", "summarize_metrics", "main"]


def load_trace(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _merge_intervals(
    intervals: List[Tuple[float, float]],
) -> List[Tuple[float, float]]:
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _fmt_ms(us: float) -> str:
    return f"{us / 1000.0:10.3f}"


def summarize_trace(trace: Dict[str, Any]) -> str:
    events = trace.get("traceEvents", [])
    xs = [e for e in events if e.get("ph") == "X"]
    instants = [e for e in events if e.get("ph") == "i"]
    counters = [e for e in events if e.get("ph") == "C"]
    names = {
        (e.get("pid"), e.get("tid")): e.get("args", {}).get("name", "")
        for e in events
        if e.get("ph") == "M" and e.get("name") == "thread_name"
    }
    lines: List[str] = []

    # -- span totals --------------------------------------------------------
    per_name: Dict[str, List[float]] = {}
    for e in xs:
        per_name.setdefault(e["name"], []).append(float(e.get("dur", 0.0)))
    lines.append("== span totals ==")
    if per_name:
        lines.append(
            f"  {'name':<24} {'count':>6} {'total ms':>10} "
            f"{'mean ms':>10} {'max ms':>10}"
        )
        for name in sorted(per_name, key=lambda n: -sum(per_name[n])):
            durs = per_name[name]
            lines.append(
                f"  {name:<24} {len(durs):>6} {_fmt_ms(sum(durs))} "
                f"{_fmt_ms(sum(durs) / len(durs))} {_fmt_ms(max(durs))}"
            )
    else:
        lines.append("  (no spans)")

    # -- per-worker utilization ---------------------------------------------
    if xs:
        t0 = min(float(e["ts"]) for e in xs)
        t1 = max(float(e["ts"]) + float(e.get("dur", 0.0)) for e in xs)
        total = max(t1 - t0, 1e-9)
        tracks: Dict[Tuple[Any, Any], List[Tuple[float, float]]] = {}
        for e in xs:
            key = (e.get("pid"), e.get("tid"))
            start = float(e["ts"])
            tracks.setdefault(key, []).append(
                (start, start + float(e.get("dur", 0.0)))
            )
        lines.append("")
        lines.append(f"== per-track utilization (trace span {total / 1000.0:.3f} ms) ==")
        lines.append(f"  {'track':<24} {'spans':>6} {'busy ms':>10} {'util':>7}")
        for key in sorted(tracks, key=lambda k: str(k)):
            merged = _merge_intervals(tracks[key])
            busy = sum(end - start for start, end in merged)
            label = names.get(key) or f"pid {key[0]} tid {key[1]}"
            lines.append(
                f"  {label:<24} {len(tracks[key]):>6} {_fmt_ms(busy)} "
                f"{busy / total:>6.1%}"
            )

    # -- instants (retries / faults / pool events) --------------------------
    lines.append("")
    lines.append("== events ==")
    if instants:
        by_name: Dict[str, int] = {}
        for e in instants:
            by_name[e["name"]] = by_name.get(e["name"], 0) + 1
        for name in sorted(by_name):
            lines.append(f"  {name:<32} {by_name[name]:>6}")
    else:
        lines.append("  (none)")

    # -- simulator phase breakdown ------------------------------------------
    phase_totals: Dict[str, float] = {}
    cycle_totals: Dict[str, float] = {}
    for e in counters:
        args = e.get("args", {})
        if e["name"] == "sim.phase.ms":
            for phase, ms in args.items():
                phase_totals[phase] = phase_totals.get(phase, 0.0) + float(ms)
        elif e["name"] == "sim.cycles":
            for kind, n in args.items():
                cycle_totals[kind] = cycle_totals.get(kind, 0.0) + float(n)
    if phase_totals or cycle_totals:
        lines.append("")
        lines.append("== simulator phases ==")
        for phase in sorted(phase_totals, key=lambda p: -phase_totals[p]):
            lines.append(f"  {phase:<16} {phase_totals[phase]:>10.3f} ms")
        total_cycles = sum(cycle_totals.values())
        if total_cycles:
            strided = cycle_totals.get("strided", 0.0)
            lines.append(
                f"  cycles: {int(total_cycles)} total, "
                f"{int(strided)} strided ({strided / total_cycles:.1%}), "
                f"{int(cycle_totals.get('stepped', 0.0))} stepped, "
                f"{int(cycle_totals.get('jumped', 0.0))} jumped"
            )
    truncated = trace.get("otherData", {}).get("truncated_events", 0)
    if truncated:
        lines.append("")
        lines.append(f"!! {truncated} events dropped (collector cap)")
    return "\n".join(lines)


def summarize_metrics(path: str) -> str:
    lines: List[str] = ["== metrics =="]
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            row = json.loads(raw)
            if "series" not in row:
                continue
            value = row["value"]
            if isinstance(value, dict):
                rendered = " ".join(
                    f"{k}={value[k]:.6g}" if isinstance(value[k], float)
                    else f"{k}={value[k]}"
                    for k in ("count", "sum", "min", "max", "mean")
                    if k in value
                )
            elif isinstance(value, float):
                rendered = f"{value:.6g}"
            else:
                rendered = str(value)
            lines.append(f"  {row['series']:<44} {rendered}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Summarize a repro telemetry trace.",
    )
    parser.add_argument("trace", help="trace.json written by REPRO_TRACE")
    parser.add_argument(
        "metrics", nargs="?", default=None,
        help="optional metrics JSONL written by REPRO_METRICS",
    )
    args = parser.parse_args(argv)
    try:
        print(summarize_trace(load_trace(args.trace)))
        if args.metrics:
            print()
            print(summarize_metrics(args.metrics))
    except BrokenPipeError:  # e.g. `... | head`
        sys.stderr.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
