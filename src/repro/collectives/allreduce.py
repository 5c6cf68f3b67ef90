"""AllReduce schedule builders (Sections 6 and 7.4).

1D AllReduce is Reduce-then-Broadcast (§6.1) for the tree patterns, or the
Ring (§6.2).  In 2D the paper composes either

* **X-Y AllReduce**: AllReduce along every row, then along every column
  (bandwidth-inefficient — it broadcasts twice), or
* **2D Reduce + 2D Broadcast**: any 2D Reduce followed by the corner
  broadcast of Lemma 7.1 (the recommended composition).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..fabric.geometry import Grid
from ..fabric.ir import Schedule, merge_phases, stamp_parallel
from ..model.params import CS2, MachineParams
from .broadcast import broadcast_2d_phase, broadcast_lane_schedule
from .lanes import col_lane, row_lane
from .reduce import reduce_tree_for
from .ring import ring_allreduce_schedule
from .tree_schedule import schedule_tree_reduce
from .xy import snake_reduce_schedule, xy_reduce_phases

__all__ = [
    "allreduce_lane_schedule",
    "allreduce_1d_schedule",
    "xy_allreduce_schedule",
    "allreduce_2d_schedule",
]


def allreduce_lane_schedule(
    grid: Grid,
    lane: Sequence[int],
    pattern: str,
    b: int,
    colors: Tuple[int, int, int] = (0, 1, 2),
    params: MachineParams = CS2,
    name: str | None = None,
    validate: bool = True,
) -> Schedule:
    """AllReduce along one lane: tree Reduce + flooding Broadcast, or Ring.

    ``colors`` are (reduce color A, reduce color B, broadcast color); the
    Ring uses all three as its edge palette.  ``validate=False`` leaves
    the check to a caller composing this schedule into a larger one.
    """
    label = name or f"allreduce-{pattern}"
    if len(lane) == 1:
        sched = Schedule(grid=grid, buffer_size=b, name=label)
        sched.program(lane[0])
        return sched
    if pattern == "ring":
        return ring_allreduce_schedule(
            grid, b, lane=lane, palette=colors, name=label, validate=validate
        )
    tree = reduce_tree_for(pattern, len(lane), b, params)
    reduce_phase = schedule_tree_reduce(
        grid,
        tree,
        lane,
        b,
        colors=(colors[0], colors[1]),
        name=f"{label}/reduce",
        validate=False,
    )
    bcast_phase = broadcast_lane_schedule(
        grid, lane, b, color=colors[2], name=f"{label}/bcast", validate=False
    )
    merged = merge_phases((reduce_phase, bcast_phase), name=label)
    if validate:
        merged.validate()
    return merged


def allreduce_1d_schedule(
    grid: Grid,
    pattern: str,
    b: int,
    row: int = 0,
    length: int | None = None,
    colors: Tuple[int, int, int] = (0, 1, 2),
    params: MachineParams = CS2,
) -> Schedule:
    """1D AllReduce along a grid row (Section 6)."""
    lane = row_lane(grid, row, length=length)
    return allreduce_lane_schedule(
        grid, lane, pattern, b, colors=colors, params=params,
        name=f"allreduce-1d-{pattern}",
    )


def xy_allreduce_schedule(
    grid: Grid,
    pattern: str,
    b: int,
    row_colors: Tuple[int, int, int] = (0, 1, 2),
    col_colors: Tuple[int, int, int] = (3, 4, 5),
    params: MachineParams = CS2,
) -> Schedule:
    """X-Y AllReduce: AllReduce every row, then every column (§7.4).

    After the row phase each PE holds its row's sum; the column phase then
    produces the global sum everywhere.  Rows (and columns) run
    concurrently on disjoint PEs; the two phases use disjoint colors.
    """
    if set(row_colors) & set(col_colors):
        raise ValueError("row and column phases must use disjoint colors")
    # Every row (column) runs row 0's (column 0's) lane AllReduce shifted
    # by row * cols (col) PEs: build it once and stamp it.
    row0 = allreduce_lane_schedule(
        grid, row_lane(grid, 0), pattern, b,
        colors=row_colors, params=params,
        name="xy-allreduce-row0", validate=False,
    )
    rows = stamp_parallel(
        row0, [r * grid.cols for r in range(grid.rows)],
        name=f"xy-allreduce-rows-{pattern}",
    )
    col0 = allreduce_lane_schedule(
        grid, col_lane(grid, 0), pattern, b,
        colors=col_colors, params=params,
        name="xy-allreduce-col0", validate=False,
    )
    cols = stamp_parallel(
        col0, range(grid.cols), name=f"xy-allreduce-cols-{pattern}"
    )
    merged = merge_phases((rows, cols), name=f"xy-allreduce-{pattern}")
    merged.validate()
    return merged


def allreduce_2d_schedule(
    grid: Grid,
    pattern: str,
    b: int,
    bcast_color: int = 4,
    params: MachineParams = CS2,
) -> Schedule:
    """2D AllReduce = 2D Reduce + 2D Broadcast from the corner (§7.4).

    ``pattern`` selects the 2D Reduce: any 1D pattern name composes X-Y;
    ``"snake"`` uses the Snake Reduce.  Uses 5 colors total, matching the
    paper's 2D implementations.
    """
    if pattern == "snake":
        reduce_phases = (
            snake_reduce_schedule(
                grid, b, colors=(0, 1), params=params, validate=False
            ),
        )
    else:
        reduce_phases = xy_reduce_phases(
            grid, pattern, b, row_colors=(0, 1), col_colors=(2, 3), params=params
        )
    bcast_phase = broadcast_2d_phase(grid, b, color=bcast_color)
    merged = merge_phases(
        (*reduce_phases, bcast_phase), name=f"allreduce-2d-{pattern}"
    )
    merged.validate()
    return merged
