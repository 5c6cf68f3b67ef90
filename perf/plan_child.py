"""One ``plan_cold`` sample: plan a list of specs in this fresh process.

Spawned once per sample so every memo of the program (``PLAN_CACHE``, the
DP-table LRU, the tree caches) starts empty without reaching into
internals.  Reads ``{"specs": [...], "mode": ...}`` on stdin, prints one
JSON object on stdout.  Modes: ``plain`` times ``plan(spec)``; ``traced``
times the same work decomposed into its public sub-calls; ``layers`` is the
layer suite's planner probe.
"""

from __future__ import annotations

import json
import sys
import time


def _spec(fields):
    from repro import CollectiveSpec, Grid

    kind, rows, cols, b, algorithm = fields
    return CollectiveSpec(kind, Grid(rows, cols), b, algorithm=algorithm)


def _check(spec, algorithm, predicted, schedule):
    """Why this plan is wrong, or ``None``."""
    from repro.core.planner import rank_spec

    from replay import lower_bound

    choice = rank_spec(spec)
    if algorithm != choice.algorithm:
        return f"planned {algorithm}, ranking says {choice.algorithm}"
    if predicted != min(choice.candidates.values()):
        return "prediction is not the cheapest candidate's"
    if schedule.grid != spec.grid:
        return "schedule built for another grid"
    if spec.kind == "reduce" and predicted < lower_bound(spec):
        return f"prediction {predicted} beats the lower bound"
    return None


def _failures(specs, built):
    """Check every ``(algorithm, predicted, schedule)`` after the timing."""
    failures = []
    for spec, (algorithm, predicted, schedule) in zip(specs, built):
        why = _check(spec, algorithm, predicted, schedule)
        if why is not None:
            failures.append(f"{spec.kind} {spec.grid.rows}x{spec.grid.cols} "
                            f"b={spec.b}: {why}")
    return failures


def _plain(specs):
    from repro import PLAN_CACHE, plan

    times, plans = [], []
    for spec in specs:
        start = time.perf_counter()
        built = plan(spec)
        times.append(time.perf_counter() - start)
        plans.append(built)
    stats = PLAN_CACHE.stats()
    failures = _failures(specs, [(p.algorithm, p.predicted_cycles, p.schedule)
                                 for p in plans])
    if stats["hits"] != 0 or stats["misses"] != len(specs):
        failures.append(f"plans were not cold: {stats}")
    return {"plan_s": times, "failures": failures, "cache": stats}


def _decomposed(spec, spans, op):
    """``plan(spec)`` as its public sub-calls; appends spans, returns parts."""
    from repro.collectives import build_schedule
    from repro.core.planner import rank_spec
    from repro.core.registry import get_entry

    def timed(name, layer, fn):
        start = time.perf_counter()
        value = fn()
        spans.append([name, layer, start, time.perf_counter(), op])
        return value

    choice = timed("core.planner.rank_spec", "core", lambda: rank_spec(spec))
    resolved = spec.with_algorithm(choice.algorithm)
    schedule = timed(
        "collectives.build_schedule", "collectives",
        lambda: build_schedule(spec.kind, spec.grid, choice.algorithm, spec.b,
                               params=spec.params, xy=spec.xy))
    entry = get_entry(spec.kind, spec.dims, choice.algorithm)
    predicted = timed("model.predict", "model", lambda: entry.predict(resolved))
    return choice, schedule, predicted


def _traced(specs):
    spans, ops, built = [], [], []
    for op, spec in enumerate(specs):
        start = time.perf_counter()
        choice, schedule, predicted = _decomposed(spec, spans, op)
        ops.append([start, time.perf_counter()])
        built.append((choice.algorithm, predicted, schedule))
    return {"ops": ops, "spans": spans, "failures": _failures(specs, built)}


def _layers(specs):
    """First DP tables, cold ``plan``, then the warm decomposed sub-calls."""
    from repro import PLAN_CACHE, plan
    from repro.autogen import autogen_tables

    out = {}
    for p in (64, 192):
        start = time.perf_counter()
        autogen_tables(p)
        out[f"tables_s_p{p}"] = time.perf_counter() - start
    cold = []
    for spec in specs:
        start = time.perf_counter()
        plan(spec)
        cold.append(time.perf_counter() - start)
    out["cold_plan_s"] = cold
    out["cache"] = PLAN_CACHE.stats()
    spans = []
    for op, spec in enumerate(specs):
        _decomposed(spec, spans, op)
    for name, key in (("core.planner.rank_spec", "rank_s"),
                      ("collectives.build_schedule", "build_s"),
                      ("model.predict", "predict_s")):
        out[key] = [end - start for n, _, start, end, _ in spans if n == name]
    return out


def main() -> int:
    request = json.loads(sys.stdin.read())
    specs = [_spec(fields) for fields in request["specs"]]
    ready = time.monotonic()
    result = {"plain": _plain, "traced": _traced,
              "layers": _layers}[request["mode"]](specs)
    result["ready_mono"] = ready
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
