"""Flooding broadcast schedules (Section 4 and Lemma 7.1).

The WSE's free multicast makes broadcast as cheap as a single message: the
root streams its vector once and every router duplicates the stream to its
processor and onward.  Depth 1, energy ``B (P-1)``, contention ``B``.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..fabric.geometry import Grid, Port
from ..fabric.ir import PEProgram, Recv, RouterRule, Schedule, Send, merge_phases
from .lanes import validate_lane

__all__ = [
    "broadcast_lane_schedule",
    "broadcast_row_schedule",
    "broadcast_2d_phase",
    "broadcast_2d_schedule",
]


def broadcast_lane_schedule(
    grid: Grid,
    lane: Sequence[int],
    b: int,
    color: int = 0,
    name: str = "broadcast",
    buffer_size: int | None = None,
    validate: bool = True,
) -> Schedule:
    """Flood ``lane[0]``'s vector to every PE on the lane.

    Each intermediate router forwards the stream both up its ramp and
    onward along the lane (Figure 4's pipelined multicast).
    ``validate=False`` skips the final :meth:`Schedule.validate` for
    callers that validate the schedule they compose this into.
    """
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    validate_lane(grid, lane)
    schedule = Schedule(
        grid=grid,
        buffer_size=b if buffer_size is None else buffer_size,
        name=name,
    )
    if len(lane) == 1:
        schedule.program(lane[0])
        return schedule
    root = lane[0]
    root_prog = schedule.program(root)
    root_prog.router[color] = [
        RouterRule(
            accept=Port.RAMP,
            forward=(grid.step_port(root, lane[1]),),
            count=b,
        )
    ]
    root_prog.ops.append(Send(color=color, length=b))
    for i in range(1, len(lane)):
        pe = lane[i]
        inbound = grid.step_port(pe, lane[i - 1])
        if i + 1 < len(lane):
            forward: Tuple[int, ...] = (Port.RAMP, grid.step_port(pe, lane[i + 1]))
        else:
            forward = (Port.RAMP,)
        prog = schedule.program(pe)
        prog.router[color] = [RouterRule(accept=inbound, forward=forward, count=b)]
        prog.ops.append(Recv(color=color, length=b, combine=False))
    if validate:
        schedule.validate()
    return schedule


def broadcast_row_schedule(
    grid: Grid,
    b: int,
    row: int = 0,
    root_col: int = 0,
    color: int = 0,
    name: str = "broadcast-1d",
) -> Schedule:
    """1D broadcast along a row from ``root_col`` eastward (Lemma 4.1).

    The paper roots its standalone broadcast at the rightmost PE and
    floods west; for composition with Reduce (whose root is the leftmost
    PE) we flood east — the cost is symmetric.
    """
    lane = [grid.index(row, c) for c in range(root_col, grid.cols)]
    return broadcast_lane_schedule(grid, lane, b, color=color, name=name)


def broadcast_2d_phase(
    grid: Grid,
    b: int,
    color: int = 0,
    name: str = "broadcast-2d",
    buffer_size: int | None = None,
) -> Schedule:
    """The 2D broadcast as a phase for :func:`~repro.fabric.ir.merge_phases`.

    A PE's program depends only on its role (root, row 0, inner rows, the
    last column or row), so PEs with the same role share one
    :class:`PEProgram`; merging gives every PE its own copy.
    """
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    schedule = Schedule(
        grid=grid,
        buffer_size=b if buffer_size is None else buffer_size,
        name=name,
    )
    root = grid.index(0, 0)
    if grid.size == 1:
        schedule.program(root)
        return schedule
    shared: Dict[Tuple[int, Tuple[int, ...]], PEProgram] = {}
    programs = schedule.programs
    for row in range(grid.rows):
        for col in range(grid.cols):
            pe = grid.index(row, col)
            forward: list[int] = []
            if row == 0:
                accept = Port.RAMP if col == 0 else Port.WEST
                if col + 1 < grid.cols:
                    forward.append(Port.EAST)
                if grid.rows > 1:
                    forward.append(Port.SOUTH)
            else:
                accept = Port.NORTH
                if row + 1 < grid.rows:
                    forward.append(Port.SOUTH)
            if pe != root:
                forward.append(Port.RAMP)
            key = (accept, tuple(forward))
            prog = shared.get(key)
            if prog is None:
                op = (
                    Recv(color=color, length=b, combine=False)
                    if pe != root else Send(color=color, length=b)
                )
                rule = RouterRule(accept=accept, forward=key[1], count=b)
                prog = shared[key] = PEProgram(router={color: [rule]}, ops=[op])
            programs[pe] = prog
    return schedule


def broadcast_2d_schedule(
    grid: Grid,
    b: int,
    color: int = 0,
    name: str = "broadcast-2d",
    buffer_size: int | None = None,
) -> Schedule:
    """2D broadcast from corner (0, 0) (Lemma 7.1).

    The stream floods east along row 0 while every row-0 router also
    multicasts it south; other routers forward south and up their ramp.
    One stream, depth 1, distance ``M + N - 2``.
    """
    phase = broadcast_2d_phase(grid, b, color, name, buffer_size)
    schedule = merge_phases((phase,), name)
    schedule.validate()
    return schedule
