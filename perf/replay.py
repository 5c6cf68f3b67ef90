"""``execute(plan, data)`` replayed through public calls, and the correctness gate.

The traced run cannot put spans inside ``repro.execute``, so it repeats
the same work from outside: ``plan`` -> ``lower_arrays`` -> ``simulate`` ->
result extraction, with a span around each call.  The replay covers the
three kinds the workloads use (reduce, allreduce, broadcast).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import CollectiveSpec, Grid, plan, simulate
from repro.core.api import REDUCE_OPS
from repro.fabric.ir import lower_arrays
from repro.model import lower_bound_2d_time, reduce_lower_bound_time

from harness import Recorder
from workloads import spec_key

#: Layers a ledger row exists for (module names); the rest is unexplained.
LAYERS = ("core", "collectives", "model", "fabric", "engine", "service")


def to_spec(fields: Sequence) -> CollectiveSpec:
    kind, rows, cols, b, algorithm = fields
    return CollectiveSpec(kind, Grid(rows, cols), b, algorithm=algorithm)


def grid_shape(spec: CollectiveSpec):
    grid = spec.grid
    return (grid.rows, grid.cols, spec.b) if grid.rows > 1 else (grid.cols, spec.b)


def expected_result(spec: CollectiveSpec, data: np.ndarray) -> np.ndarray:
    """What NumPy says the collective's result is."""
    if spec.kind == "reduce":
        return data.sum(axis=0)
    if spec.kind == "allreduce":
        return np.broadcast_to(data.sum(axis=0), grid_shape(spec))
    if spec.kind == "broadcast":
        return np.broadcast_to(data, grid_shape(spec))
    raise ValueError(f"no expected result for kind {spec.kind!r}")


def lower_bound(spec: CollectiveSpec) -> Optional[float]:
    """The paper's runtime lower bound, for reduce points only."""
    if spec.kind != "reduce":
        return None
    if spec.grid.rows == 1:
        return float(reduce_lower_bound_time(spec.grid.cols, spec.b, spec.params))
    return float(lower_bound_2d_time(spec.grid.rows, spec.grid.cols, spec.b,
                                     spec.params))


def prepare_inputs(spec: CollectiveSpec, data: np.ndarray) -> Dict[int, np.ndarray]:
    if spec.kind == "broadcast":
        return {0: np.asarray(data, dtype=np.float64).copy()}
    flat = np.asarray(data, dtype=np.float64).reshape(spec.grid.size, spec.b)
    return {pe: flat[pe].copy() for pe in range(flat.shape[0])}


def extract_result(spec: CollectiveSpec, sim) -> np.ndarray:
    if spec.kind == "reduce":
        return sim.buffers[0][:spec.b].copy()
    stacked = np.stack([sim.buffers[pe][:spec.b] for pe in range(spec.grid.size)])
    return stacked.reshape(grid_shape(spec))


def traced_execute(rec: Recorder, spec: CollectiveSpec, data: np.ndarray):
    """One point, decomposed; returns ``(result, sim, plan)``."""
    with rec.span("core.plan", "core"):
        built = plan(spec)
    with rec.span("core.execute.prepare_inputs", "core"):
        inputs = prepare_inputs(spec, data)
    with rec.span("fabric.ir.lower_arrays", "fabric"):
        lower_arrays(built.schedule)
    with rec.span("fabric.simulate", "fabric"):
        sim = simulate(built.schedule, inputs=inputs, params=spec.params,
                       combine=REDUCE_OPS[spec.op])
    with rec.span("core.execute.extract_result", "core"):
        result = extract_result(spec, sim)
    return result, sim, built


class Gate:
    """Counts ops attempted and failed, and keeps the simulated statistics."""

    def __init__(self, golden: Dict[str, int]) -> None:
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.cycles = 0
        self.model_errors: List[float] = []
        self.lb_ratios: List[float] = []
        self.lb_violations = 0
        self.fallbacks = 0

    def fail(self, what: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.failures) < 20:
            self.failures.append(what)

    def problem(self, what: str) -> None:
        """A failure of the run as a whole, not of one op."""
        if len(self.failures) < 20:
            self.failures.append(what)
        self.failed = max(self.failed, 1)

    def point(self, fields: Sequence, spec: CollectiveSpec, data: np.ndarray,
              result: np.ndarray, measured: int, predicted: float,
              backend: str, exact: Optional[np.ndarray] = None) -> None:
        """Check one simulated point; ``exact`` is a bit-identical reference."""
        self.attempted += 1
        key = spec_key(tuple(fields))
        why = None
        want = expected_result(spec, data)
        result = np.asarray(result)
        if result.shape != want.shape:
            why = f"result shape {result.shape}, expected {want.shape}"
        elif spec.kind == "broadcast" and not np.array_equal(result, want):
            why = "broadcast result differs from its input"
        elif not np.allclose(result, want, rtol=1e-9, atol=1e-9):
            why = "result differs from the numpy reduction"
        elif exact is not None and not np.array_equal(result, exact):
            why = "result is not bit-identical to the library's serial path"
        elif self.golden.get(key) != measured:
            why = f"{measured} cycles, golden says {self.golden.get(key)}"
        elif backend != "vectorized":
            self.fallbacks += 1
            why = f"ran on backend {backend!r} (silent fallback)"
        bound = lower_bound(spec)
        if bound is not None:
            self.lb_ratios.append(measured / bound)
            if measured < bound:
                self.lb_violations += 1
                why = why or f"{measured} cycles beat the lower bound {bound}"
        self.cycles += int(measured)
        if measured:
            self.model_errors.append(abs(measured - predicted) / measured)
        if why is not None:
            self.fail(f"{key}: {why}")
