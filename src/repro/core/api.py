"""Public API: one spec -> plan -> execute pipeline for every collective.

Every collective — ``reduce``, ``allreduce``, ``broadcast``, ``gather``,
``scatter``, ``allgather``, ``reduce_scatter`` — flows through the same
three stages:

1. a frozen :class:`~repro.core.registry.CollectiveSpec` describes the
   invocation (kind, grid, B, op, algorithm, machine params);
2. :func:`plan` resolves it against the algorithm registry — applying
   the paper's model-driven planner for ``algorithm="auto"`` and
   dropping infeasible candidates — into an immutable :class:`Plan`
   (schedule + prediction), memoized in
   :data:`~repro.core.cache.PLAN_CACHE`;
3. :func:`execute` runs the plan's schedule on the cycle simulator and
   extracts the collective's result.

The MPI-flavoured entry points are thin wrappers over this pipeline:

>>> import numpy as np
>>> from repro import wse
>>> data = np.random.default_rng(0).normal(size=(16, 64))   # 16 PEs, B=64
>>> out = wse.reduce(data)                                   # model picks the algorithm
>>> np.allclose(out.result, data.sum(axis=0))
True

and batched sweeps plan and simulate once per distinct spec:

>>> from repro.core.registry import CollectiveSpec
>>> from repro.fabric.geometry import Grid
>>> spec = CollectiveSpec("reduce", Grid(1, 16), 64)
>>> outs = wse.run_many([spec, spec], [data, 2 * data])      # one plan, one simulation
>>> np.allclose(outs[1].result, 2 * data.sum(axis=0))
True

``algorithm="auto"`` applies the paper's model-driven planner; any
registered name forces a specific pattern.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..fabric.geometry import Grid
from ..fabric.ir import Schedule
from ..fabric.simulator import SimResult, simulate
from ..fabric.values import ValuesRefused, final_buffers
from ..model.params import CS2, MachineParams
from ..obs import spans as _obs
from . import planner, registry
from .cache import PLAN_CACHE
from .registry import REDUCE_OPS, CollectiveSpec

__all__ = ["CollectiveSpec", "CollectiveOutcome", "Plan",
           "plan", "execute", "run_many", "cache_info",
           "plan_reduce", "plan_allreduce",
           "reduce", "allreduce", "broadcast", "gather", "scatter",
           "allgather", "reduce_scatter", "REDUCE_OPS", "seeded_input"]


def _combine_for(op: str):
    try:
        return REDUCE_OPS[op]
    except KeyError:
        raise ValueError(
            f"unknown op {op!r}; expected one of {sorted(REDUCE_OPS)}"
        ) from None


@dataclass(frozen=True)
class Plan:
    """A planned collective: spec, schedule and its model prediction.

    Plans are immutable and shareable — :func:`execute` never mutates the
    schedule (the simulator copies router rules and op lists), which is
    what makes the plan cache sound.
    """

    spec: CollectiveSpec
    schedule: Schedule
    algorithm: str
    grid: Grid
    b: int
    predicted_cycles: float
    choice: Optional[planner.Choice] = None


@dataclass(frozen=True)
class CollectiveOutcome:
    """Result of executing a planned collective on the fabric simulator."""

    result: np.ndarray
    algorithm: str
    predicted_cycles: float
    measured_cycles: int
    sim: SimResult
    plan: Plan

    @property
    def prediction_error(self) -> float:
        """Relative model error, ``|measured - predicted| / measured``."""
        if self.measured_cycles == 0:
            return 0.0
        return abs(self.measured_cycles - self.predicted_cycles) / self.measured_cycles


# ---------------------------------------------------------------------------
# plan(spec) -> Plan
# ---------------------------------------------------------------------------


def _plan_uncached(spec: CollectiveSpec) -> Plan:
    """Resolve ``spec`` against the registry without touching the cache."""
    entries = registry.entries_for(spec.kind, spec.dims)
    if not entries:
        raise ValueError(
            f"no registered {spec.dims}D {spec.kind} algorithms"
        )
    choice: Optional[planner.Choice] = None
    if spec.algorithm == "auto":
        if len(entries) == 1:
            name = next(iter(entries))
        else:
            choice = planner.rank_spec(spec)
            name = choice.algorithm
    else:
        name = spec.algorithm
        if name not in entries:
            raise ValueError(
                f"unknown {spec.dims}D {spec.kind} algorithm {name!r}"
            )
        if len(entries) > 1:
            # Keep the full ranking alongside forced picks so callers can
            # inspect what the planner would have chosen.
            try:
                choice = planner.rank_spec(spec)
            except ValueError:
                choice = None
    entry = entries[name]
    resolved = spec.with_algorithm(name)
    why = entry.why_infeasible(resolved)
    if why is not None:
        raise ValueError(why)
    return Plan(
        spec=spec,
        schedule=entry.build(resolved),
        algorithm=name,
        grid=spec.grid,
        b=spec.b,
        predicted_cycles=entry.predict(resolved),
        choice=choice,
    )


def plan(spec: CollectiveSpec, use_cache: bool = True) -> Plan:
    """Plan ``spec``: registry lookup, planner ranking, schedule build.

    Planning is memoized in :data:`~repro.core.cache.PLAN_CACHE` keyed by
    the spec itself; pass ``use_cache=False`` to force a fresh build.
    """
    if _obs.enabled():
        with _obs.span(
            "plan", kind=spec.kind, pes=spec.grid.size, b=spec.b,
            algorithm=spec.algorithm,
        ) as sp:
            built = _plan_cached(spec, use_cache)
            sp.add(resolved=built.algorithm)
            return built
    return _plan_cached(spec, use_cache)


def _plan_cached(spec: CollectiveSpec, use_cache: bool) -> Plan:
    if not use_cache:
        return _plan_uncached(spec)
    return PLAN_CACHE.get_or_plan(spec, _plan_uncached)


def cache_info() -> Dict[str, int]:
    """Observability counters of the process-wide plan cache.

    Returns ``{"size", "hits", "misses"}`` from
    :data:`~repro.core.cache.PLAN_CACHE` — the quick way to check that a
    sweep or training loop is actually reusing plans (misses should stay
    at one per distinct spec).
    """
    return PLAN_CACHE.stats()


# ---------------------------------------------------------------------------
# execute(plan, data) -> CollectiveOutcome
# ---------------------------------------------------------------------------


def _as_grid_data(data: np.ndarray) -> Tuple[Grid, int, np.ndarray]:
    """Normalize input to (grid, b, flat (P, B) array).

    2D arrays are a row of PEs ``(P, B)``; 3D arrays are a grid
    ``(M, N, B)``.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 2:
        p, b = data.shape
        return Grid(1, p), b, data
    if data.ndim == 3:
        m, n, b = data.shape
        return Grid(m, n), b, data.reshape(m * n, b)
    raise ValueError(
        f"expected (P, B) or (M, N, B) input, got shape {data.shape}"
    )


def _flat_rows(spec: CollectiveSpec, data: np.ndarray) -> np.ndarray:
    """Validate per-PE row input against the spec; returns ``(P, B)``."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 3:
        arr = arr.reshape(arr.shape[0] * arr.shape[1], arr.shape[2])
    if arr.ndim != 2 or arr.shape != (spec.grid.size, spec.b):
        raise ValueError(
            f"data shape {np.shape(data)} does not match spec "
            f"({spec.grid.rows}x{spec.grid.cols} PEs, B={spec.b})"
        )
    return arr


def _prepare_inputs(
    spec: CollectiveSpec, data: np.ndarray
) -> Dict[int, np.ndarray]:
    """Per-PE input buffers for the simulator, per collective kind."""
    kind = spec.kind
    if kind in ("reduce", "allreduce", "gather", "reduce_scatter"):
        flat = _flat_rows(spec, data)
        return {pe: flat[pe].copy() for pe in range(flat.shape[0])}
    if kind == "broadcast":
        vector = np.asarray(data, dtype=np.float64)
        if vector.ndim != 1 or len(vector) != spec.b:
            raise ValueError(
                f"broadcast data must be a B={spec.b} vector, "
                f"got shape {np.shape(data)}"
            )
        return {0: vector.copy()}
    if kind == "scatter":
        blocks = _flat_rows(spec, data)
        return {0: blocks.reshape(-1).copy()}
    if kind == "allgather":
        flat = _flat_rows(spec, data)
        p, b = flat.shape
        inputs = {}
        for pe in range(p):
            buf = np.zeros(p * b)
            buf[pe * b : (pe + 1) * b] = flat[pe]
            inputs[pe] = buf
        return inputs
    raise ValueError(f"unknown collective kind {kind!r}")


def seeded_input(spec: CollectiveSpec, seed: int) -> np.ndarray:
    """The deterministic, well-shaped input ``seed`` denotes for ``spec``:
    one ``B``-vector for a broadcast, per-PE rows for every other kind.

    The one definition behind the tuner's measurement input and the
    planner service's seeded sweep items, so the library and the service
    derive byte-identical arrays from the same seed.
    """
    rng = np.random.default_rng(seed)
    if spec.kind == "broadcast":
        return rng.normal(size=spec.b)
    return rng.normal(size=(spec.grid.size, spec.b))


def _extract_result(spec: CollectiveSpec, sim: SimResult) -> np.ndarray:
    """Pull the collective's defined output out of the simulated buffers."""
    kind, b = spec.kind, spec.b
    grid = spec.grid
    grid_shape = (grid.rows, grid.cols, b) if grid.rows > 1 else (grid.cols, b)
    if kind == "reduce":
        return sim.buffers[0][:b].copy()
    if kind in ("allreduce", "broadcast"):
        result = np.stack([sim.buffers[pe][:b] for pe in range(grid.size)])
        return result.reshape(grid_shape)
    if kind == "gather":
        p = grid.size
        return sim.buffers[0][: p * b].reshape(p, b).copy()
    if kind == "scatter":
        return np.stack([sim.buffers[pe][:b] for pe in range(grid.size)])
    if kind == "allgather":
        p = grid.size
        return np.stack(
            [sim.buffers[pe][: p * b].reshape(p, b) for pe in range(p)]
        )
    if kind == "reduce_scatter":
        p = grid.size
        chunk = b // p
        return np.stack(
            [sim.buffers[pe][pe * chunk : (pe + 1) * chunk] for pe in range(p)]
        )
    raise ValueError(f"unknown collective kind {kind!r}")


def execute(
    plan: Plan, data: np.ndarray, backend: Optional[str] = None
) -> CollectiveOutcome:
    """Run a planned collective on the fabric simulator.

    ``data`` is the collective's natural input: per-PE rows ``(P, B)`` or
    a grid ``(M, N, B)`` for the reducing/gathering kinds, root-held
    blocks for ``scatter``, a single ``B``-vector for ``broadcast``.  The
    plan's schedule is treated as read-only, so one plan can serve any
    number of executions.  ``backend`` selects the simulator backend
    (``None`` defers to ``REPRO_SIM_BACKEND`` / the default); the
    backend that actually ran is recorded on ``outcome.sim.backend``.
    """
    if _obs.enabled():
        with _obs.span(
            "execute", kind=plan.spec.kind, pes=plan.grid.size, b=plan.b,
            algorithm=plan.algorithm,
        ) as sp:
            outcome = _execute_impl(plan, data, backend)
            sp.add(cycles=outcome.measured_cycles,
                   backend=outcome.sim.backend)
            return outcome
    return _execute_impl(plan, data, backend)


def _execute_impl(
    plan: Plan, data: np.ndarray, backend: Optional[str]
) -> CollectiveOutcome:
    spec = plan.spec
    sim = simulate(
        plan.schedule,
        inputs=_prepare_inputs(spec, data),
        params=spec.params,
        backend=backend,
        combine=_combine_for(spec.op),
    )
    return CollectiveOutcome(
        result=_extract_result(spec, sim),
        algorithm=plan.algorithm,
        predicted_cycles=plan.predicted_cycles,
        measured_cycles=sim.cycles,
        sim=sim,
        plan=plan,
    )


def _replay(first: CollectiveOutcome, data: np.ndarray
            ) -> Optional[CollectiveOutcome]:
    """``first.plan`` executed on ``data`` without a simulation: the
    timing of ``first`` (simulated timing depends only on the schedule)
    with buffers from the value pass; ``None`` if the pass refuses."""
    spec, done = first.plan.spec, first.sim
    inputs = _prepare_inputs(spec, data)
    try:
        buffers = final_buffers(first.plan.schedule, inputs,
                                _combine_for(spec.op))
    except ValuesRefused:
        return None
    sim = SimResult(
        cycles=done.cycles,
        energy=done.energy,
        buffers=buffers,
        received=done.received.copy(),
        sent=done.sent.copy(),
        link_loads=done.link_loads.copy(),
        clock_samples={tag: dict(samples)
                       for tag, samples in done.clock_samples.items()},
        completion=done.completion.copy(),
        backend=done.backend,
    )
    return dataclasses.replace(first, result=_extract_result(spec, sim),
                               sim=sim)


def execute_batch(
    plans: Sequence[Plan],
    datas: Sequence[np.ndarray],
    backend: Optional[str] = None,
    timed: Sequence[CollectiveOutcome] = (),
) -> List[CollectiveOutcome]:
    """``[execute(plans[i], datas[i], backend) ...]``, simulating once
    per distinct plan.

    The per-point loop behind :func:`run_many` and the sweep engine.
    The first point of each plan is simulated.  If that ran on the
    vectorized backend, the plan's later points take copies of its
    timing and get their buffers from the clock-free value pass
    (:mod:`repro.fabric.values`), which is bit-identical to a
    simulation.  Points of a plan whose simulation ran on the reference
    backend, or that the value pass refuses, are simulated one by one.
    ``timed`` holds outcomes already simulated for some of the plans
    (matched by ``outcome.plan`` identity, only ``result`` and
    ``sim.buffers`` unused): every point of those plans replays them.
    """
    #: id(plan) -> the outcome later points replay, or None: simulate.
    replayable: Dict[int, Optional[CollectiveOutcome]] = {
        id(outcome.plan): outcome for outcome in timed
        if outcome.sim.backend == "vectorized"
    }
    outcomes = []
    for planned, data in zip(plans, datas):
        first = replayable.get(id(planned))
        if first is None:
            outcome = execute(planned, data, backend=backend)
            if id(planned) not in replayable:
                vectorized = outcome.sim.backend == "vectorized"
                replayable[id(planned)] = outcome if vectorized else None
        else:
            outcome = _replay(first, data)
            if outcome is None:     # refused: the plan simulates from now on
                replayable[id(planned)] = None
                outcome = execute(planned, data, backend=backend)
        outcomes.append(outcome)
    return outcomes


def run_many(
    specs: Sequence[CollectiveSpec],
    datas: Sequence[np.ndarray],
    use_cache: bool = True,
    backend: Optional[str] = None,
) -> List[CollectiveOutcome]:
    """Execute a batch of collectives, planning once per distinct spec.

    ``specs[i]`` runs on ``datas[i]``.  Identical specs — repeated sweep
    points, every step of a training loop — share a single plan (and hit
    :data:`~repro.core.cache.PLAN_CACHE` across calls) and a single
    simulation: simulated timing depends only on the schedule, so the
    later points of a spec reuse the first one's timing and compute
    their values with the clock-free value pass.  The sweep cost is one
    plan and one simulation per distinct spec plus one value pass per
    repeated point; outcomes are bit-identical to per-point
    :func:`execute`.
    """
    specs = list(specs)
    datas = list(datas)
    if len(specs) != len(datas):
        raise ValueError(
            f"got {len(specs)} specs but {len(datas)} data arrays"
        )
    plans: Dict[CollectiveSpec, Plan] = {}
    for spec in specs:
        if spec not in plans:
            plans[spec] = plan(spec, use_cache=use_cache)
    return execute_batch([plans[spec] for spec in specs], datas,
                         backend=backend)


# ---------------------------------------------------------------------------
# MPI-flavoured wrappers (all thin shims over plan/execute).
# ---------------------------------------------------------------------------


def plan_reduce(
    grid: Grid,
    b: int,
    algorithm: str = "auto",
    params: MachineParams = CS2,
) -> Plan:
    """Plan a Reduce to PE (0, 0) on ``grid`` for ``b``-wavelet vectors."""
    return plan(CollectiveSpec("reduce", grid, b, algorithm=algorithm,
                               params=params))


def plan_allreduce(
    grid: Grid,
    b: int,
    algorithm: str = "auto",
    params: MachineParams = CS2,
    xy: bool = False,
) -> Plan:
    """Plan an AllReduce on ``grid``.

    For 2D grids, ``xy=True`` uses the row-then-column AllReduce
    composition instead of the default Reduce + 2D Broadcast (§7.4).
    """
    return plan(CollectiveSpec("allreduce", grid, b, algorithm=algorithm,
                               params=params, xy=xy and grid.rows > 1))


def reduce(
    data: np.ndarray,
    algorithm: str = "auto",
    params: MachineParams = CS2,
    op: str = "sum",
) -> CollectiveOutcome:
    """Reduce per-PE vectors to PE (0, 0) on the simulated wafer.

    ``data`` is ``(P, B)`` for a row of PEs or ``(M, N, B)`` for a grid.
    ``outcome.result`` is the ``B``-vector at the root.  ``op`` selects
    the associative operator (:data:`REDUCE_OPS`).
    """
    grid, b, flat = _as_grid_data(data)
    spec = CollectiveSpec("reduce", grid, b, op=op, algorithm=algorithm,
                          params=params)
    return execute(plan(spec), flat)


def allreduce(
    data: np.ndarray,
    algorithm: str = "auto",
    params: MachineParams = CS2,
    xy: bool = False,
    op: str = "sum",
) -> CollectiveOutcome:
    """AllReduce: every PE ends with the reduction; result keeps shape.

    ``op`` selects the associative operator; note the Ring's
    reduce-scatter only supports ``"sum"``-style combining semantics for
    any associative op as well, since chunks are combined pairwise.
    """
    grid, b, flat = _as_grid_data(data)
    spec = CollectiveSpec("allreduce", grid, b, op=op, algorithm=algorithm,
                          params=params, xy=xy and grid.rows > 1)
    return execute(plan(spec), flat)


def gather(
    data: np.ndarray,
    params: MachineParams = CS2,
) -> CollectiveOutcome:
    """Gather ``(P, B)`` per-PE vectors to PE 0 (1D rows only).

    ``outcome.result`` has shape ``(P, B)``: the root's concatenated
    buffer, block ``i`` holding PE ``i``'s vector.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError(f"gather takes (P, B) input, got shape {data.shape}")
    p, b = data.shape
    spec = CollectiveSpec("gather", Grid(1, p), b, params=params)
    return execute(plan(spec), data)


def scatter(
    blocks: np.ndarray,
    params: MachineParams = CS2,
) -> CollectiveOutcome:
    """Scatter root-held ``(P, B)`` blocks: PE ``i`` receives block ``i``."""
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.ndim != 2:
        raise ValueError(f"scatter takes (P, B) blocks, got {blocks.shape}")
    p, b = blocks.shape
    spec = CollectiveSpec("scatter", Grid(1, p), b, params=params)
    return execute(plan(spec), blocks)


def allgather(
    data: np.ndarray,
    params: MachineParams = CS2,
) -> CollectiveOutcome:
    """AllGather ``(P, B)`` vectors: every PE ends with all ``P`` blocks.

    ``outcome.result`` has shape ``(P, P, B)`` (per PE, per block).
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError(f"allgather takes (P, B) input, got {data.shape}")
    p, b = data.shape
    spec = CollectiveSpec("allgather", Grid(1, p), b, params=params)
    return execute(plan(spec), data)


def reduce_scatter(
    data: np.ndarray,
    params: MachineParams = CS2,
    op: str = "sum",
) -> CollectiveOutcome:
    """ReduceScatter ``(P, B)``: PE ``i`` ends with reduced chunk ``i``.

    ``outcome.result`` has shape ``(P, B/P)``.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError(f"reduce_scatter takes (P, B) input, got {data.shape}")
    p, b = data.shape
    spec = CollectiveSpec("reduce_scatter", Grid(1, p), b, op=op,
                          params=params)
    return execute(plan(spec), data)


def broadcast(
    vector: np.ndarray,
    grid: Grid,
    params: MachineParams = CS2,
) -> CollectiveOutcome:
    """Broadcast ``vector`` from PE (0, 0) to the whole grid (flooding)."""
    vector = np.asarray(vector, dtype=np.float64)
    if vector.ndim != 1:
        raise ValueError(f"broadcast takes a 1D vector, got {vector.shape}")
    spec = CollectiveSpec("broadcast", grid, len(vector), params=params)
    return execute(plan(spec), vector)
