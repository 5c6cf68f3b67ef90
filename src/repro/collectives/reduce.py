"""1D Reduce schedule builders (Section 5).

Each function produces a :class:`~repro.fabric.ir.Schedule` reducing the
local ``B``-vectors of a row of PEs into the leftmost PE.  All patterns —
including the Auto-Gen tree — lower through the shared tree scheduler.
"""

from __future__ import annotations

from typing import Tuple

from ..autogen.hybrid import best_reduce_tree
from ..autogen.tree import TREE_BUILDERS, ReductionTree
from ..fabric.geometry import Grid
from ..fabric.ir import Schedule
from ..model.params import CS2, MachineParams
from .lanes import row_lane
from .tree_schedule import schedule_tree_reduce

__all__ = ["reduce_1d_schedule", "REDUCE_PATTERNS"]

#: 1D Reduce pattern names accepted by :func:`reduce_1d_schedule`.
REDUCE_PATTERNS = ("star", "chain", "tree", "two_phase", "autogen")


def reduce_tree_for(
    pattern: str,
    p: int,
    b: int,
    params: MachineParams = CS2,
    group_size: int | None = None,
) -> ReductionTree:
    """The reduction tree a pattern uses for ``p`` PEs and ``b`` wavelets."""
    if pattern == "autogen":
        return best_reduce_tree(p, b, params).tree
    builder = TREE_BUILDERS.get(pattern)
    if builder is None:
        raise ValueError(
            f"unknown pattern {pattern!r}; expected one of {REDUCE_PATTERNS}"
        )
    if pattern == "two_phase" and group_size is not None:
        return builder(p, group_size=group_size)
    return builder(p)


def reduce_1d_schedule(
    grid: Grid,
    pattern: str,
    b: int,
    row: int = 0,
    length: int | None = None,
    colors: Tuple[int, int] = (0, 1),
    params: MachineParams = CS2,
    group_size: int | None = None,
    buffer_size: int | None = None,
) -> Schedule:
    """Reduce along one grid row to its leftmost PE using ``pattern``.

    ``length`` restricts the reduction to the first ``length`` PEs of the
    row (default: the whole row).  The result lands at ``(row, 0)``.
    """
    lane = row_lane(grid, row, root_col=0, length=length)
    tree = reduce_tree_for(pattern, len(lane), b, params, group_size)
    return schedule_tree_reduce(
        grid,
        tree,
        lane,
        b,
        colors=colors,
        name=f"reduce-1d-{pattern}",
        buffer_size=buffer_size,
    )
