"""Algorithm registry: names, kinds, predictors and builders in one place.

The registry ties together the faces of each algorithm:

* its *model* predictor (:mod:`repro.model.analytic` / :mod:`repro.autogen`),
* its *schedule builder* (:mod:`repro.collectives`),
* its *feasibility* predicate (e.g. the Ring's ``B % P == 0``),
* its provenance (vendor baseline, prior work, or this paper's contribution),

so the planner, the public API and the benchmark harness all agree on
what exists and what it is called.

:data:`COLLECTIVES` maps every ``(kind, dims, name)`` triple to a typed
:class:`CollectiveEntry` — ``build(spec)`` / ``predict(spec)`` /
``feasible(spec)`` over a frozen :class:`CollectiveSpec` — which is the
single source the plan/execute pipeline in :mod:`repro.core.api` and the
planner (:func:`repro.core.planner.rank_spec`) consume.  Below it, the
name tables (:data:`REDUCE_1D` ...) carry each family's metadata, and
the positional ``*_predict`` functions, which the entries' ``predict``
and the benches' sweeps and heatmaps call, compose the analytic
predictions: X-Y as row plus column, AllReduce as Reduce plus
Broadcast.  New algorithms plug in via :func:`register_collective`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..autogen.hybrid import autogen_hybrid_time
from ..collectives import COLLECTIVE_KINDS, build_schedule
from ..fabric.geometry import Grid
from ..fabric.ir import Schedule
from ..model import analytic
from ..model.params import CS2, MachineParams

__all__ = [
    "AlgorithmInfo",
    "CollectiveSpec",
    "CollectiveEntry",
    "COLLECTIVES",
    "COLLECTIVE_KINDS",
    "REDUCE_OPS",
    "register_collective",
    "get_entry",
    "entries_for",
    "REDUCE_1D",
    "ALLREDUCE_1D",
    "REDUCE_2D",
    "ALLREDUCE_2D",
    "reduce_1d_predict",
    "allreduce_1d_predict",
    "reduce_2d_predict",
    "allreduce_2d_predict",
]

#: Supported associative reduction operators, as the binary ufuncs the
#: value pass combines with (any-associative-op per the MPI semantics the
#: paper adopts in §2.1).
REDUCE_OPS = {
    "sum": np.add,
    "max": np.maximum,
    "min": np.minimum,
    "prod": np.multiply,
}


@dataclass(frozen=True)
class CollectiveSpec:
    """Immutable description of one collective invocation.

    A spec is everything the pipeline needs to plan (and cache the plan
    of) a collective: *what* (``kind``), *where* (``grid``), *how much*
    (``b`` wavelets per PE), *combining with what* (``op``), *how*
    (``algorithm``, ``"auto"`` for the model-driven planner; ``xy``
    selects the §7.4 row-then-column AllReduce composition on 2D grids)
    and *on which machine* (``params``).  All fields are hashable, so
    the spec itself is the plan-cache key.
    """

    kind: str
    grid: Grid
    b: int
    op: str = "sum"
    algorithm: str = "auto"
    params: MachineParams = CS2
    xy: bool = False

    def __post_init__(self) -> None:
        if self.kind not in COLLECTIVE_KINDS:
            raise ValueError(
                f"unknown collective kind {self.kind!r}; "
                f"expected one of {COLLECTIVE_KINDS}"
            )
        if self.b < 1:
            raise ValueError(f"vector length must be >= 1, got {self.b}")
        if self.op not in REDUCE_OPS:
            raise ValueError(
                f"unknown op {self.op!r}; expected one of {sorted(REDUCE_OPS)}"
            )

    @property
    def dims(self) -> int:
        """1 for a row of PEs, 2 for a proper grid."""
        return 1 if self.grid.rows == 1 else 2

    def with_algorithm(self, name: str) -> "CollectiveSpec":
        """Copy of the spec with the algorithm resolved to ``name``."""
        return replace(self, algorithm=name)


@dataclass(frozen=True)
class CollectiveEntry:
    """One registered collective algorithm: build + predict + feasible.

    ``build_fn`` lowers a resolved spec to a :class:`Schedule`,
    ``predict_fn`` returns the Equation-(1) cycle prediction, and
    ``infeasible_fn`` (optional) returns a human-readable reason when the
    spec cannot be built (``None`` when it can).  The planner drops
    infeasible candidates; the API raises the reason for forced picks.
    """

    kind: str
    dims: int
    name: str
    build_fn: Callable[["CollectiveSpec"], Schedule]
    predict_fn: Callable[["CollectiveSpec"], float]
    infeasible_fn: Optional[Callable[["CollectiveSpec"], Optional[str]]] = None
    info: Optional[AlgorithmInfo] = None

    def build(self, spec: "CollectiveSpec") -> Schedule:
        """Lower ``spec`` to a schedule (callers must treat it as frozen)."""
        return self.build_fn(spec)

    def predict(self, spec: "CollectiveSpec") -> float:
        """Predicted cycles for ``spec`` under its machine parameters."""
        return float(self.predict_fn(spec))

    def why_infeasible(self, spec: "CollectiveSpec") -> Optional[str]:
        """Reason ``spec`` cannot be built, or ``None`` if it can."""
        if self.infeasible_fn is None:
            return None
        return self.infeasible_fn(spec)

    def feasible(self, spec: "CollectiveSpec") -> bool:
        """Whether a schedule can be built for ``spec``."""
        return self.why_infeasible(spec) is None


@dataclass(frozen=True)
class AlgorithmInfo:
    """Metadata for one algorithm entry."""

    name: str
    kind: str  # "reduce" | "allreduce" | "broadcast"
    dims: int  # 1 or 2
    origin: str  # "vendor" | "prior" | "paper" | "classic"
    description: str


REDUCE_1D: Dict[str, AlgorithmInfo] = {
    "star": AlgorithmInfo(
        "star", "reduce", 1, "prior",
        "Every PE sends directly to the root (Rocki et al. stencil); "
        "minimal depth, maximal contention.",
    ),
    "chain": AlgorithmInfo(
        "chain", "reduce", 1, "vendor",
        "Pipelined nearest-neighbour chain (the Cerebras SDK collective); "
        "minimal contention, linear depth.",
    ),
    "tree": AlgorithmInfo(
        "tree", "reduce", 1, "paper",
        "Binomial-tree halving rounds; logarithmic depth at log-factor "
        "contention.",
    ),
    "two_phase": AlgorithmInfo(
        "two_phase", "reduce", 1, "paper",
        "Chains of sqrt(P) behind a chain of group leaders; depth "
        "2 sqrt(P), contention 2B.",
    ),
    "autogen": AlgorithmInfo(
        "autogen", "reduce", 1, "paper",
        "DP-optimal pre-order reduction tree generated per (P, B).",
    ),
}

ALLREDUCE_1D: Dict[str, AlgorithmInfo] = {
    **{
        name: AlgorithmInfo(
            name, "allreduce", 1, info.origin,
            f"{info.description} Composed with the flooding broadcast.",
        )
        for name, info in REDUCE_1D.items()
    },
    "ring": AlgorithmInfo(
        "ring", "allreduce", 1, "classic",
        "Reduce-scatter + allgather ring mapped onto the mesh row; "
        "bandwidth-optimal on classic networks but depth-bound here.",
    ),
}

REDUCE_2D: Dict[str, AlgorithmInfo] = {
    **{
        name: AlgorithmInfo(
            name, "reduce", 2, info.origin,
            f"X-Y composition: rows then column 0 with the 1D "
            f"{name} pattern.",
        )
        for name, info in REDUCE_1D.items()
    },
    "snake": AlgorithmInfo(
        "snake", "reduce", 2, "paper",
        "Chain pipeline threaded boustrophedon through the whole grid; "
        "optimal for B >> P.",
    ),
}

ALLREDUCE_2D: Dict[str, AlgorithmInfo] = {
    **{
        name: AlgorithmInfo(
            name, "allreduce", 2, info.origin,
            f"2D Reduce ({info.description.split(';')[0]}) followed by "
            "the corner 2D broadcast.",
        )
        for name, info in REDUCE_2D.items()
    },
}


# ---------------------------------------------------------------------------
# Unified predictors (cycles) used by the planner and the benches.
# ---------------------------------------------------------------------------


def reduce_1d_predict(
    name: str, p: int, b: int, params: MachineParams = CS2
) -> float:
    """Predicted 1D Reduce cycles for algorithm ``name``."""
    if name == "autogen":
        return autogen_hybrid_time(p, b, params)
    fn = analytic.REDUCE_1D_TIMES.get(name)
    if fn is None:
        raise ValueError(f"unknown 1D reduce algorithm {name!r}")
    return float(fn(p, b, params))


def allreduce_1d_predict(
    name: str, p: int, b: int, params: MachineParams = CS2
) -> float:
    """Predicted 1D AllReduce cycles for algorithm ``name``."""
    if name == "ring":
        return float(analytic.ring_allreduce_time(p, b, params))
    if name == "butterfly":
        return float(analytic.butterfly_allreduce_time(p, b, params))
    reduce_cycles = reduce_1d_predict(name, p, b, params)
    return float(
        analytic.reduce_then_broadcast_time(reduce_cycles, p, b, params)
    )


def reduce_2d_predict(
    name: str, m: int, n: int, b: int, params: MachineParams = CS2
) -> float:
    """Predicted 2D Reduce cycles (X-Y composition or Snake)."""
    if name == "snake":
        return float(analytic.snake_reduce_time(m, n, b, params))
    return reduce_1d_predict(name, n, b, params) + reduce_1d_predict(
        name, m, b, params
    )


def allreduce_2d_predict(
    name: str, m: int, n: int, b: int, params: MachineParams = CS2
) -> float:
    """Predicted 2D AllReduce cycles: 2D Reduce + 2D Broadcast (§7.4)."""
    reduce_cycles = reduce_2d_predict(name, m, n, b, params)
    return float(
        analytic.reduce_then_broadcast_2d_time(reduce_cycles, m, n, b, params)
    )


# ---------------------------------------------------------------------------
# The unified collective registry: (kind, dims, name) -> CollectiveEntry.
# ---------------------------------------------------------------------------

COLLECTIVES: Dict[Tuple[str, int, str], CollectiveEntry] = {}


def register_collective(entry: CollectiveEntry, replace: bool = False) -> None:
    """Add ``entry`` to :data:`COLLECTIVES` (``replace=True`` to override).

    Registration invalidates the process-wide plan cache: cached plans
    (including ``algorithm="auto"`` picks) embed the registry state they
    were planned under, so a new or replaced entry must not keep serving
    stale schedules or rankings.
    """
    from .cache import PLAN_CACHE

    key = (entry.kind, entry.dims, entry.name)
    if key in COLLECTIVES and not replace:
        raise ValueError(f"collective {key} already registered")
    COLLECTIVES[key] = entry
    PLAN_CACHE.clear()


def get_entry(kind: str, dims: int, name: str) -> CollectiveEntry:
    """The entry for ``(kind, dims, name)``; raises on unknown names."""
    entry = COLLECTIVES.get((kind, dims, name))
    if entry is None:
        raise ValueError(f"unknown {dims}D {kind} algorithm {name!r}")
    return entry


def entries_for(kind: str, dims: int) -> Dict[str, CollectiveEntry]:
    """All registered entries of one ``(kind, dims)`` family, by name."""
    return {
        name: entry
        for (k, d, name), entry in COLLECTIVES.items()
        if k == kind and d == dims
    }


def _spec_build(spec: CollectiveSpec) -> Schedule:
    return build_schedule(
        spec.kind, spec.grid, spec.algorithm, spec.b,
        params=spec.params, xy=spec.xy,
    )


def _ring_1d_infeasible(spec: CollectiveSpec) -> Optional[str]:
    p = spec.grid.cols
    if p > 1 and spec.b % p != 0:
        return (
            f"ring requires B divisible by P (B={spec.b}, P={p}); "
            "pad the vector or choose another algorithm"
        )
    return None


def _allreduce_2d_infeasible(name: str, spec: CollectiveSpec) -> Optional[str]:
    if name == "snake":
        if spec.xy:
            return (
                "the snake is a whole-grid pattern and cannot be used "
                "as the per-row/per-column algorithm of an X-Y "
                "AllReduce; pick a 1D pattern or use xy=False"
            )
        return None
    if name == "ring":
        if not spec.xy:
            return (
                "ring composes 2D AllReduces only per-row/per-column "
                "(xy=True); the default Reduce + 2D Broadcast path has "
                "no ring variant"
            )
        for p in (spec.grid.cols, spec.grid.rows):
            if p > 1 and spec.b % p != 0:
                return (
                    f"X-Y ring requires B divisible by both grid sides "
                    f"(B={spec.b}, {spec.grid.rows}x{spec.grid.cols})"
                )
    return None


def _allreduce_2d_predict_spec(name: str, spec: CollectiveSpec) -> float:
    if spec.xy:
        return float(
            allreduce_1d_predict(name, spec.grid.cols, spec.b, spec.params)
            + allreduce_1d_predict(name, spec.grid.rows, spec.b, spec.params)
        )
    return allreduce_2d_predict(
        name, spec.grid.rows, spec.grid.cols, spec.b, spec.params
    )


def _register_defaults() -> None:
    """Populate :data:`COLLECTIVES` with every algorithm in the paper."""
    for name, info in REDUCE_1D.items():
        register_collective(CollectiveEntry(
            kind="reduce", dims=1, name=name, info=info,
            build_fn=_spec_build,
            predict_fn=lambda s, n=name: reduce_1d_predict(
                n, s.grid.cols, s.b, s.params
            ),
        ))
    for name, info in REDUCE_2D.items():
        register_collective(CollectiveEntry(
            kind="reduce", dims=2, name=name, info=info,
            build_fn=_spec_build,
            predict_fn=lambda s, n=name: reduce_2d_predict(
                n, s.grid.rows, s.grid.cols, s.b, s.params
            ),
        ))
    for name, info in ALLREDUCE_1D.items():
        register_collective(CollectiveEntry(
            kind="allreduce", dims=1, name=name, info=info,
            build_fn=_spec_build,
            predict_fn=lambda s, n=name: allreduce_1d_predict(
                n, s.grid.cols, s.b, s.params
            ),
            infeasible_fn=_ring_1d_infeasible if name == "ring" else None,
        ))
    for name, info in ALLREDUCE_2D.items():
        register_collective(CollectiveEntry(
            kind="allreduce", dims=2, name=name, info=info,
            build_fn=_spec_build,
            predict_fn=lambda s, n=name: _allreduce_2d_predict_spec(n, s),
            infeasible_fn=lambda s, n=name: _allreduce_2d_infeasible(n, s),
        ))
    # Ring as the per-lane pattern of an X-Y AllReduce (xy=True only).
    register_collective(CollectiveEntry(
        kind="allreduce", dims=2, name="ring",
        info=ALLREDUCE_1D["ring"],
        build_fn=_spec_build,
        predict_fn=lambda s: _allreduce_2d_predict_spec("ring", s),
        infeasible_fn=lambda s: _allreduce_2d_infeasible("ring", s),
    ))

    flood_1d = AlgorithmInfo(
        "flood", "broadcast", 1, "vendor",
        "Multicast flooding along the row: every router duplicates the "
        "stream for free (§4).",
    )
    flood_2d = AlgorithmInfo(
        "flood", "broadcast", 2, "vendor",
        "Corner-rooted 2D multicast flood (Lemma 7.1).",
    )
    register_collective(CollectiveEntry(
        kind="broadcast", dims=1, name="flood", info=flood_1d,
        build_fn=_spec_build,
        predict_fn=lambda s: float(
            analytic.broadcast_1d_time(s.grid.cols, s.b, s.params)
        ),
    ))
    register_collective(CollectiveEntry(
        kind="broadcast", dims=2, name="flood", info=flood_2d,
        build_fn=_spec_build,
        predict_fn=lambda s: float(
            analytic.broadcast_2d_time(s.grid.rows, s.grid.cols, s.b, s.params)
        ),
    ))

    register_collective(CollectiveEntry(
        kind="gather", dims=1, name="gather",
        info=AlgorithmInfo(
            "gather", "gather", 1, "classic",
            "Pipelined block concatenation towards the root.",
        ),
        build_fn=_spec_build,
        predict_fn=lambda s: float(
            analytic.gather_time(s.grid.cols, s.b, s.params)
        ),
    ))
    register_collective(CollectiveEntry(
        kind="scatter", dims=1, name="scatter",
        info=AlgorithmInfo(
            "scatter", "scatter", 1, "classic",
            "Root streams per-PE blocks down the row.",
        ),
        build_fn=_spec_build,
        predict_fn=lambda s: float(
            analytic.scatter_time(s.grid.cols, s.b, s.params)
        ),
    ))
    register_collective(CollectiveEntry(
        kind="allgather", dims=1, name="allgather",
        info=AlgorithmInfo(
            "allgather", "allgather", 1, "classic",
            "Ring allgather: P-1 neighbour rounds of one block each.",
        ),
        build_fn=_spec_build,
        predict_fn=lambda s: float(
            analytic.allgather_time(s.grid.cols, s.b, s.params)
        ),
        infeasible_fn=lambda s: (
            "allgather needs at least 2 PEs" if s.grid.cols < 2 else None
        ),
    ))

    def _reduce_scatter_infeasible(s: CollectiveSpec) -> Optional[str]:
        p = s.grid.cols
        if p < 2:
            return "reduce_scatter needs at least 2 PEs"
        if s.b % p != 0:
            return f"B={s.b} must be divisible by P={p}"
        return None

    register_collective(CollectiveEntry(
        kind="reduce_scatter", dims=1, name="reduce_scatter",
        info=AlgorithmInfo(
            "reduce_scatter", "reduce_scatter", 1, "classic",
            "Ring reduce-scatter: P-1 combining rounds of one chunk each.",
        ),
        build_fn=_spec_build,
        predict_fn=lambda s: float(
            analytic.reduce_scatter_time(s.grid.cols, s.b, s.params)
        ),
        infeasible_fn=_reduce_scatter_infeasible,
    ))


_register_defaults()
