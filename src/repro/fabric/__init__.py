"""Wafer-scale fabric substrate: grid geometry, schedule IR, cycle simulator.

This package is the reproduction's stand-in for the physical CS-2: a
cycle-level simulator of the 2D mesh with per-color router configurations,
free multicast, backpressure stalls and ramp latency (Section 2.2 of the
paper).  Collective algorithms are expressed in the :mod:`~repro.fabric.ir`
schedule IR and timed by :class:`~repro.fabric.simulator.FabricSimulator`
(the reference) or :mod:`~repro.fabric.vectorized` (the default backend),
both timing-only.  :mod:`~repro.fabric.values` computes a schedule's final
buffers without a clock for either backend, so a plan's timing is
simulated once and its repeated points only need their values.
"""

from .geometry import PORT_NAMES, Grid, Port, opposite_port, row_grid
from .ir import (
    Delay,
    PEProgram,
    Recv,
    RecvReduceSend,
    RouterRule,
    SampleClock,
    Schedule,
    Send,
    SendRecv,
    merge_parallel,
    merge_phases,
    merge_sequential,
    stamp_parallel,
)
from .trace import Tracer, link_utilization, render_timeline
from .simulator import (
    CollisionError,
    DeadlockError,
    FabricSimulator,
    SimResult,
    SimulationError,
    simulate,
)

__all__ = [
    "PORT_NAMES",
    "Grid",
    "Port",
    "opposite_port",
    "row_grid",
    "Delay",
    "PEProgram",
    "Recv",
    "RecvReduceSend",
    "RouterRule",
    "SampleClock",
    "Schedule",
    "Send",
    "SendRecv",
    "merge_parallel",
    "merge_phases",
    "merge_sequential",
    "stamp_parallel",
    "CollisionError",
    "DeadlockError",
    "FabricSimulator",
    "SimResult",
    "SimulationError",
    "simulate",
    "Tracer",
    "link_utilization",
    "render_timeline",
]
