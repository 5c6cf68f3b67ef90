"""2D Reduce schedules: X-Y composition and the Snake (Section 7).

* **X-Y Reduce** (Figure 9a): every row runs a 1D Reduce to its leftmost
  PE (all rows concurrently, disjoint PEs), then column 0 runs a 1D
  Reduce to the corner (0, 0).  Any 1D pattern can be used for both
  phases; the phases synchronize by dataflow (a row root only has its
  column contribution once its row is done), not by a barrier.  Every
  row's program is row 0's shifted by ``row * cols`` PEs, so row 0's
  schedule is built once and stamped onto the other rows
  (:func:`~repro.fabric.ir.stamp_parallel`); the phases are merged in
  one pass and the final schedule is validated once.
* **Snake Reduce** (Figure 9b): the Chain pipeline threaded through the
  whole grid boustrophedon — optimal when ``B`` dominates ``P``.
"""

from __future__ import annotations

from typing import Tuple

from ..autogen.tree import chain_tree
from ..fabric.geometry import Grid
from ..fabric.ir import Schedule, merge_phases, stamp_parallel
from ..model.params import CS2, MachineParams
from .lanes import col_lane, row_lane, snake_lane
from .reduce import reduce_tree_for
from .tree_schedule import schedule_tree_reduce

__all__ = ["xy_reduce_phases", "xy_reduce_schedule", "snake_reduce_schedule"]


def xy_reduce_phases(
    grid: Grid,
    pattern: str,
    b: int,
    row_colors: Tuple[int, int] = (0, 1),
    col_colors: Tuple[int, int] = (2, 3),
    params: MachineParams = CS2,
) -> Tuple[Schedule, Schedule]:
    """The unvalidated row and column phases of the X-Y Reduce."""
    if set(row_colors) & set(col_colors):
        raise ValueError("row and column phases must use disjoint colors")

    # Row phase: row 0's 1D Reduce, stamped onto every row.
    row_tree = reduce_tree_for(pattern, grid.cols, b, params)
    row0 = schedule_tree_reduce(
        grid,
        row_tree,
        row_lane(grid, 0),
        b,
        colors=row_colors,
        name=f"xy-row-{pattern}",
        validate=False,
    )
    rows = stamp_parallel(
        row0,
        [row * grid.cols for row in range(grid.rows)],
        name=f"xy-rows-{pattern}",
    )

    # Column phase along column 0.
    col_tree = reduce_tree_for(pattern, grid.rows, b, params)
    cols = schedule_tree_reduce(
        grid,
        col_tree,
        col_lane(grid, 0),
        b,
        colors=col_colors,
        name=f"xy-col-{pattern}",
        validate=False,
    )
    return rows, cols


def xy_reduce_schedule(
    grid: Grid,
    pattern: str,
    b: int,
    row_colors: Tuple[int, int] = (0, 1),
    col_colors: Tuple[int, int] = (2, 3),
    params: MachineParams = CS2,
) -> Schedule:
    """X-Y Reduce of the whole grid to PE (0, 0) using a 1D ``pattern``.

    The row phase uses ``row_colors``, the column phase ``col_colors``;
    they must be disjoint because a row root keeps routing late row
    traffic while its column message is already in flight.
    """
    phases = xy_reduce_phases(grid, pattern, b, row_colors, col_colors, params)
    merged = merge_phases(phases, name=f"xy-reduce-{pattern}")
    merged.validate()
    return merged


def snake_reduce_schedule(
    grid: Grid,
    b: int,
    colors: Tuple[int, int] = (0, 1),
    params: MachineParams = CS2,
    validate: bool = True,
) -> Schedule:
    """Snake Reduce: one Chain pipeline over the boustrophedon lane."""
    lane = snake_lane(grid)
    tree = chain_tree(len(lane))
    return schedule_tree_reduce(
        grid,
        tree,
        lane,
        b,
        colors=colors,
        name="snake-reduce",
        validate=validate,
    )
