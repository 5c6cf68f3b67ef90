"""Public API and model-driven planner (re-exported as ``repro.wse``).

The package is layered as a single evaluation pipeline:

* :mod:`repro.core.registry` — :class:`CollectiveSpec` (the frozen
  description of one collective) and :class:`CollectiveEntry` records
  (``build`` / ``predict`` / ``feasible``) for every registered
  algorithm;
* :mod:`repro.core.planner` — :func:`rank_spec`, the model-driven
  selection over feasible entries;
* :mod:`repro.core.cache` — the keyed plan cache;
* :mod:`repro.core.api` — :func:`plan` / :func:`execute` /
  :func:`run_many` and the MPI-flavoured wrappers.
"""

from . import cache, planner, registry
from .api import (
    REDUCE_OPS,
    CollectiveOutcome,
    Plan,
    allgather,
    allreduce,
    broadcast,
    cache_info,
    execute,
    gather,
    plan,
    plan_allreduce,
    plan_reduce,
    reduce,
    reduce_scatter,
    run_many,
    scatter,
)
from .cache import PLAN_CACHE, PlanCache
from .planner import (
    Choice,
    best_allreduce_1d,
    best_allreduce_2d,
    best_reduce_1d,
    best_reduce_2d,
    get_tuner_hook,
    rank_spec,
    set_tuner_hook,
)
from .registry import (
    ALLREDUCE_1D,
    ALLREDUCE_2D,
    COLLECTIVES,
    REDUCE_1D,
    REDUCE_2D,
    AlgorithmInfo,
    CollectiveEntry,
    CollectiveSpec,
    allreduce_1d_predict,
    allreduce_2d_predict,
    entries_for,
    get_entry,
    reduce_1d_predict,
    reduce_2d_predict,
    register_collective,
)

__all__ = [
    "cache",
    "planner",
    "registry",
    "CollectiveOutcome",
    "CollectiveSpec",
    "Plan",
    "plan",
    "execute",
    "run_many",
    "cache_info",
    "allreduce",
    "broadcast",
    "plan_allreduce",
    "plan_reduce",
    "reduce",
    "REDUCE_OPS",
    "allgather",
    "gather",
    "reduce_scatter",
    "scatter",
    "PLAN_CACHE",
    "PlanCache",
    "Choice",
    "best_allreduce_1d",
    "best_allreduce_2d",
    "best_reduce_1d",
    "best_reduce_2d",
    "rank_spec",
    "set_tuner_hook",
    "get_tuner_hook",
    "ALLREDUCE_1D",
    "ALLREDUCE_2D",
    "COLLECTIVES",
    "REDUCE_1D",
    "REDUCE_2D",
    "AlgorithmInfo",
    "CollectiveEntry",
    "allreduce_1d_predict",
    "allreduce_2d_predict",
    "entries_for",
    "get_entry",
    "reduce_1d_predict",
    "reduce_2d_predict",
    "register_collective",
]
