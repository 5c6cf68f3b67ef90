"""Collective schedule builders: Broadcast, Reduce, AllReduce, 1D and 2D.

Besides the individual builders, :func:`build_schedule` is the single
dispatch point from a collective *kind* (``reduce``, ``allreduce``,
``broadcast``, ``gather``, ``scatter``, ``allgather``,
``reduce_scatter``) plus grid/algorithm to a lowered
:class:`~repro.fabric.ir.Schedule`.  The registry entries in
:mod:`repro.core.registry` wrap it, so the public plan/execute pipeline
never hand-rolls builder calls.
"""

from .allreduce import (
    allreduce_1d_schedule,
    allreduce_2d_schedule,
    allreduce_lane_schedule,
    xy_allreduce_schedule,
)
from .butterfly import butterfly_allreduce_schedule
from .broadcast import (
    broadcast_2d_schedule,
    broadcast_lane_schedule,
    broadcast_row_schedule,
)
from .middle_root import (
    middle_root_allreduce_schedule,
    middle_root_allreduce_time,
)
from .distribution import (
    allgather_schedule,
    gather_schedule,
    reduce_scatter_schedule,
    scatter_schedule,
)
from .lanes import col_lane, row_lane, snake_lane, validate_lane
from .reduce import REDUCE_PATTERNS, reduce_1d_schedule, reduce_tree_for
from .ring import RING_MAPPINGS, ring_allreduce_schedule, ring_order
from .tree_schedule import schedule_tree_reduce
from .xy import snake_reduce_schedule, xy_reduce_schedule
from ..autogen.tree import (
    TREE_BUILDERS,
    binomial_tree,
    chain_tree,
    star_tree,
    two_phase_tree,
)
from ..model.params import CS2

#: Collective kinds understood by :func:`build_schedule` (and by the
#: spec/plan/execute pipeline built on top of it).
COLLECTIVE_KINDS = (
    "reduce",
    "allreduce",
    "broadcast",
    "gather",
    "scatter",
    "allgather",
    "reduce_scatter",
)


def build_schedule(kind, grid, algorithm, b, params=CS2, xy=False):
    """Lower one collective to its :class:`~repro.fabric.ir.Schedule`.

    ``kind`` is one of :data:`COLLECTIVE_KINDS`; ``algorithm`` names the
    pattern (the single-algorithm kinds ignore it).  For 2D AllReduce,
    ``xy=True`` selects the row-then-column composition (§7.4) instead
    of 2D Reduce + corner broadcast.
    """
    dims = 1 if grid.rows == 1 else 2
    if kind == "reduce":
        if dims == 1:
            return reduce_1d_schedule(grid, algorithm, b, params=params)
        if algorithm == "snake":
            return snake_reduce_schedule(grid, b, params=params)
        return xy_reduce_schedule(grid, algorithm, b, params=params)
    if kind == "allreduce":
        if dims == 1:
            return allreduce_1d_schedule(grid, algorithm, b, params=params)
        if xy:
            return xy_allreduce_schedule(grid, algorithm, b, params=params)
        return allreduce_2d_schedule(grid, algorithm, b, params=params)
    if kind == "broadcast":
        if dims == 1:
            return broadcast_row_schedule(grid, b)
        return broadcast_2d_schedule(grid, b)
    if kind == "gather":
        return gather_schedule(grid, b)
    if kind == "scatter":
        return scatter_schedule(grid, b)
    if kind == "allgather":
        return allgather_schedule(grid, b)
    if kind == "reduce_scatter":
        return reduce_scatter_schedule(grid, b)
    raise ValueError(
        f"unknown collective kind {kind!r}; expected one of {COLLECTIVE_KINDS}"
    )


__all__ = [
    "COLLECTIVE_KINDS",
    "build_schedule",
    "butterfly_allreduce_schedule",
    "middle_root_allreduce_schedule",
    "middle_root_allreduce_time",
    "allgather_schedule",
    "gather_schedule",
    "reduce_scatter_schedule",
    "scatter_schedule",
    "allreduce_1d_schedule",
    "allreduce_2d_schedule",
    "allreduce_lane_schedule",
    "xy_allreduce_schedule",
    "broadcast_2d_schedule",
    "broadcast_lane_schedule",
    "broadcast_row_schedule",
    "col_lane",
    "row_lane",
    "snake_lane",
    "validate_lane",
    "REDUCE_PATTERNS",
    "reduce_1d_schedule",
    "reduce_tree_for",
    "RING_MAPPINGS",
    "ring_allreduce_schedule",
    "ring_order",
    "schedule_tree_reduce",
    "TREE_BUILDERS",
    "binomial_tree",
    "chain_tree",
    "star_tree",
    "two_phase_tree",
    "snake_reduce_schedule",
    "xy_reduce_schedule",
]
