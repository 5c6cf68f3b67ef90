"""Parameter sweeps shared by the figure-regeneration benches.

The paper's evaluation (Section 8) sweeps two axes: vector length at fixed
PE count (Figures 11, 13a/b) and PE count at fixed 1 KB vectors
(Figures 12, 13c).  Each sweep produces model predictions for every
algorithm and — where the cycle simulator is affordable — measured cycles,
mirroring the paper's measured-vs-predicted presentation.

Every *measured* point is expressed as a
:class:`~repro.core.registry.CollectiveSpec` and the whole sweep is
batched through an :class:`~repro.engine.session.EngineSession`: each
distinct spec is planned exactly once (and the plan is reused from the
process-wide cache across sweeps and re-runs), then the simulations fan
out point by point — over a process pool when ``workers > 1`` (the
``REPRO_SWEEP_WORKERS`` environment variable sets the default; unset
means serial).  Parallel runs share one persistent
:class:`~repro.engine.session.EngineSession` per worker count for the
whole figure run (an installed module-default session takes precedence),
so a full bench pass pays pool startup once, not once per figure.  The
engine changes where points run, never what they compute, so sweep
outputs are identical for any worker count.  Results are still verified
against NumPy before being recorded.

Full-wafer 512x512 measured runs are not feasible in a Python cycle
simulator (the paper's own full-scale heatmaps are model-driven); the
``max_movements`` budget decides which points are simulated, and
everything else reports predictions.  EXPERIMENTS.md documents this
substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import registry
from ..core.registry import CollectiveSpec
from ..engine.session import EngineSession, get_session
from ..fabric.geometry import Grid
from ..model import analytic
from ..obs import spans as _obs
from ..model.params import CS2, MachineParams
from ..validation.verify import ATOL, RTOL, random_inputs

__all__ = [
    "VECTOR_LENGTH_BYTES",
    "PE_COUNTS",
    "SweepPoint",
    "SweepResult",
    "bench_session",
    "reduce_1d_sweep",
    "allreduce_1d_sweep",
    "broadcast_1d_sweep",
    "reduce_2d_sweep",
    "allreduce_2d_sweep",
    "broadcast_2d_sweep",
]

#: Figure 1/11/13 x-axis: 4 B .. 32 KB (the paper's 2^2 .. 2^15 bytes).
VECTOR_LENGTH_BYTES: Tuple[int, ...] = tuple(2**k for k in range(2, 16))

#: Figure 1/12 y-axis: rows of 4 .. 512 PEs.
PE_COUNTS: Tuple[int, ...] = tuple(2**k for k in range(2, 10))


@dataclass
class SweepPoint:
    """One (algorithm, shape, B) evaluation."""

    algorithm: str
    shape: Tuple[int, ...]
    b: int
    predicted_cycles: float
    measured_cycles: Optional[int] = None

    @property
    def relative_error(self) -> Optional[float]:
        if self.measured_cycles in (None, 0):
            return None
        return abs(self.measured_cycles - self.predicted_cycles) / self.measured_cycles

    @property
    def predicted_us(self) -> float:
        return CS2.cycles_to_us(self.predicted_cycles)

    @property
    def measured_us(self) -> Optional[float]:
        if self.measured_cycles is None:
            return None
        return CS2.cycles_to_us(self.measured_cycles)


@dataclass
class SweepResult:
    """All points of one sweep, keyed by algorithm."""

    points: Dict[str, List[SweepPoint]] = field(default_factory=dict)

    def add(self, point: SweepPoint) -> None:
        self.points.setdefault(point.algorithm, []).append(point)

    def curve(self, algorithm: str, what: str = "predicted") -> np.ndarray:
        pts = self.points[algorithm]
        if what == "predicted":
            return np.array([p.predicted_cycles for p in pts])
        return np.array(
            [p.measured_cycles if p.measured_cycles is not None else np.nan for p in pts]
        )

    def mean_relative_error(self, algorithm: str) -> Optional[float]:
        errs = [
            p.relative_error
            for p in self.points[algorithm]
            if p.relative_error is not None
        ]
        return float(np.mean(errs)) if errs else None


def _movement_estimate(kind: str, algorithm: str, p: int, b: int) -> float:
    """Rough wavelet-movement count of a simulated point (cost guard)."""
    if kind == "broadcast":
        return float(b) * p
    if algorithm == "star":
        return float(b) * p * p / 2
    if algorithm in ("tree",):
        return float(b) * p * max(1, int(np.log2(max(p, 2)))) / 2
    if algorithm == "ring":
        return 4.0 * b * p
    return 2.0 * float(b) * p  # chain / two-phase / autogen / snake


def _sweep_workers(workers: Optional[int]) -> int:
    """Resolve a sweep's worker count: explicit arg, env var, serial.

    ``REPRO_SWEEP_WORKERS`` accepts a positive integer (values below 1
    mean serial, so ``0`` is a valid "off switch"); anything unparsable
    raises a clear error rather than failing deep inside a sweep.
    """
    if workers is not None:
        return workers
    from ..core import config as _config

    return max(1, _config.env_int("REPRO_SWEEP_WORKERS", 1))


#: One warm session shared by every parallel figure sweep in this
#: process, keyed by its worker count (re-created if the count changes).
_BENCH_SESSION: Optional[EngineSession] = None


def bench_session(workers: int) -> EngineSession:
    """The bench-wide persistent session for ``workers`` processes.

    The fig 11–13 sweeps all route through this one session, so a full
    figure run pays exactly one pool startup (visible as
    ``stats.cold_starts == 1`` with ``pool_reuses`` counting the rest).
    """
    global _BENCH_SESSION
    if (
        _BENCH_SESSION is None
        or _BENCH_SESSION.closed
        or _BENCH_SESSION.workers != workers
    ):
        if _BENCH_SESSION is not None:
            _BENCH_SESSION.close()
        _BENCH_SESSION = EngineSession(workers=workers).attach()
    return _BENCH_SESSION


class _MeasuredBatch:
    """Accumulates the measured points of one sweep for an engine run.

    Points are registered in sweep order; :meth:`run` executes the whole
    batch through an :class:`~repro.engine.session.EngineSession` (one plan
    per distinct spec, fanned out over ``workers`` processes), verifies
    every outcome against the NumPy reference, and writes the measured
    cycle counts back into the sweep's points.
    """

    def __init__(self) -> None:
        self.specs: List[CollectiveSpec] = []
        self.datas: List[np.ndarray] = []
        self.points: List[SweepPoint] = []

    def add(self, spec: CollectiveSpec, data: np.ndarray, point: SweepPoint) -> None:
        self.specs.append(spec)
        self.datas.append(data)
        self.points.append(point)

    def run(self, workers: Optional[int] = None) -> None:
        if not self.specs:
            return
        with _obs.span("bench.sweep", points=len(self.specs)):
            session = None if workers is not None else get_session()
            if session is None:
                n_workers = _sweep_workers(workers)
                if n_workers > 1:
                    session = bench_session(n_workers)
            if session is not None:
                outcomes = session.sweep(self.specs, self.datas)
            else:
                outcomes = EngineSession(workers=1).sweep(
                    self.specs, self.datas
                )
        for spec, data, point, out in zip(
            self.specs, self.datas, self.points, outcomes
        ):
            expected = self._expected(spec, data)
            if not np.allclose(out.result, expected, rtol=RTOL, atol=ATOL):
                worst = np.abs(np.asarray(out.result) - expected).max()
                raise AssertionError(
                    f"{out.plan.schedule.name}: result off by {worst:.3e} "
                    f"(B={spec.b}, PEs={spec.grid.size})"
                )
            point.measured_cycles = out.measured_cycles

    @staticmethod
    def _expected(spec: CollectiveSpec, data: np.ndarray) -> np.ndarray:
        if spec.kind == "reduce":
            return data.sum(axis=0)
        if spec.kind == "allreduce":
            total = data.sum(axis=0)
            shape = (
                (spec.grid.rows, spec.grid.cols, spec.b)
                if spec.grid.rows > 1
                else (spec.grid.cols, spec.b)
            )
            return np.broadcast_to(total, shape)
        if spec.kind == "broadcast":
            shape = (
                (spec.grid.rows, spec.grid.cols, spec.b)
                if spec.grid.rows > 1
                else (spec.grid.cols, spec.b)
            )
            return np.broadcast_to(data, shape)
        raise ValueError(f"no reference for kind {spec.kind!r}")


def _stacked_inputs(n_pes: int, b: int, seed: int) -> np.ndarray:
    """Reproducible per-PE input rows, stacked to ``(P, B)``."""
    inputs = random_inputs(n_pes, b, seed=seed)
    return np.stack([inputs[pe] for pe in range(n_pes)])


def reduce_1d_sweep(
    pe_counts: Sequence[int],
    byte_lengths: Sequence[int],
    algorithms: Sequence[str] = ("star", "chain", "tree", "two_phase", "autogen"),
    params: MachineParams = CS2,
    measure: bool = True,
    max_movements: float = 3e6,
    seed: int = 7,
    workers: Optional[int] = None,
) -> SweepResult:
    """1D Reduce sweep over the cross-product of PEs and vector bytes."""
    result = SweepResult()
    batch = _MeasuredBatch()
    for p in pe_counts:
        grid = Grid(1, p)
        for nbytes in byte_lengths:
            b = params.bytes_to_wavelets(nbytes)
            for alg in algorithms:
                predicted = registry.reduce_1d_predict(alg, p, b, params)
                point = SweepPoint(alg, (p,), b, float(predicted))
                if measure and _movement_estimate("reduce", alg, p, b) <= max_movements:
                    spec = CollectiveSpec(
                        "reduce", grid, b, algorithm=alg, params=params
                    )
                    batch.add(spec, _stacked_inputs(p, b, seed), point)
                result.add(point)
    batch.run(workers)
    return result


def allreduce_1d_sweep(
    pe_counts: Sequence[int],
    byte_lengths: Sequence[int],
    algorithms: Sequence[str] = (
        "star", "chain", "tree", "two_phase", "autogen", "ring",
    ),
    params: MachineParams = CS2,
    measure: bool = True,
    max_movements: float = 3e6,
    seed: int = 7,
    workers: Optional[int] = None,
) -> SweepResult:
    """1D AllReduce sweep; Ring points require B divisible by P."""
    result = SweepResult()
    batch = _MeasuredBatch()
    for p in pe_counts:
        grid = Grid(1, p)
        for nbytes in byte_lengths:
            b = params.bytes_to_wavelets(nbytes)
            for alg in algorithms:
                if alg == "ring" and b % p != 0:
                    continue
                predicted = registry.allreduce_1d_predict(alg, p, b, params)
                point = SweepPoint(alg, (p,), b, float(predicted))
                if measure and _movement_estimate("allreduce", alg, p, b) <= max_movements:
                    spec = CollectiveSpec(
                        "allreduce", grid, b, algorithm=alg, params=params
                    )
                    batch.add(spec, _stacked_inputs(p, b, seed), point)
                result.add(point)
    batch.run(workers)
    return result


def broadcast_1d_sweep(
    pe_counts: Sequence[int],
    byte_lengths: Sequence[int],
    params: MachineParams = CS2,
    measure: bool = True,
    max_movements: float = 3e6,
    seed: int = 7,
    workers: Optional[int] = None,
) -> SweepResult:
    """1D flooding-broadcast sweep (Figures 11a, 12a)."""
    result = SweepResult()
    batch = _MeasuredBatch()
    rng = np.random.default_rng(seed)
    for p in pe_counts:
        grid = Grid(1, p)
        for nbytes in byte_lengths:
            b = params.bytes_to_wavelets(nbytes)
            predicted = float(analytic.broadcast_1d_time(p, b, params))
            point = SweepPoint("flood", (p,), b, predicted)
            if measure and _movement_estimate("broadcast", "flood", p, b) <= max_movements:
                spec = CollectiveSpec(
                    "broadcast", grid, b, algorithm="flood", params=params
                )
                batch.add(spec, rng.normal(size=b), point)
            result.add(point)
    batch.run(workers)
    return result


def reduce_2d_sweep(
    grids: Sequence[Tuple[int, int]],
    byte_lengths: Sequence[int],
    algorithms: Sequence[str] = (
        "star", "chain", "tree", "two_phase", "autogen", "snake",
    ),
    params: MachineParams = CS2,
    measure: bool = True,
    max_movements: float = 3e6,
    seed: int = 7,
    workers: Optional[int] = None,
) -> SweepResult:
    """2D Reduce sweep over grid shapes (Figures 13a, 13c)."""
    result = SweepResult()
    batch = _MeasuredBatch()
    for m, n in grids:
        grid = Grid(m, n)
        for nbytes in byte_lengths:
            b = params.bytes_to_wavelets(nbytes)
            for alg in algorithms:
                predicted = registry.reduce_2d_predict(alg, m, n, b, params)
                point = SweepPoint(alg, (m, n), b, float(predicted))
                cost = _movement_estimate("reduce", alg, m * n, b)
                if measure and cost <= max_movements:
                    spec = CollectiveSpec(
                        "reduce", grid, b, algorithm=alg, params=params
                    )
                    batch.add(spec, _stacked_inputs(m * n, b, seed), point)
                result.add(point)
    batch.run(workers)
    return result


def allreduce_2d_sweep(
    grids: Sequence[Tuple[int, int]],
    byte_lengths: Sequence[int],
    algorithms: Sequence[str] = (
        "star", "chain", "tree", "two_phase", "autogen", "snake",
    ),
    params: MachineParams = CS2,
    measure: bool = True,
    max_movements: float = 3e6,
    seed: int = 7,
    workers: Optional[int] = None,
) -> SweepResult:
    """2D AllReduce sweep: 2D Reduce + corner broadcast (Figure 13b)."""
    result = SweepResult()
    batch = _MeasuredBatch()
    for m, n in grids:
        grid = Grid(m, n)
        for nbytes in byte_lengths:
            b = params.bytes_to_wavelets(nbytes)
            for alg in algorithms:
                predicted = registry.allreduce_2d_predict(alg, m, n, b, params)
                point = SweepPoint(alg, (m, n), b, float(predicted))
                cost = 2 * _movement_estimate("reduce", alg, m * n, b)
                if measure and cost <= max_movements:
                    spec = CollectiveSpec(
                        "allreduce", grid, b, algorithm=alg, params=params
                    )
                    batch.add(spec, _stacked_inputs(m * n, b, seed), point)
                result.add(point)
    batch.run(workers)
    return result


def broadcast_2d_sweep(
    grids: Sequence[Tuple[int, int]],
    byte_lengths: Sequence[int],
    params: MachineParams = CS2,
    measure: bool = True,
    max_movements: float = 3e6,
    seed: int = 7,
    workers: Optional[int] = None,
) -> SweepResult:
    """2D corner-broadcast sweep (Lemma 7.1 validation)."""
    result = SweepResult()
    batch = _MeasuredBatch()
    rng = np.random.default_rng(seed)
    for m, n in grids:
        grid = Grid(m, n)
        for nbytes in byte_lengths:
            b = params.bytes_to_wavelets(nbytes)
            predicted = float(analytic.broadcast_2d_time(m, n, b, params))
            point = SweepPoint("flood", (m, n), b, predicted)
            if measure and _movement_estimate("broadcast", "flood", m * n, b) <= max_movements:
                spec = CollectiveSpec(
                    "broadcast", grid, b, algorithm="flood", params=params
                )
                batch.add(spec, rng.normal(size=b), point)
            result.add(point)
    batch.run(workers)
    return result
