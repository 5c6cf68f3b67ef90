"""Schedule IR: per-PE router configurations and processor programs.

A :class:`Schedule` is the hardware-neutral description of one collective:
for every PE a list of router rules per color (mirroring the CS-2's stored
routing configurations that advance as streams complete, Section 2.2) and
an ordered list of processor operations.  All collective builders in
:mod:`repro.collectives` lower to this IR; the cycle simulator executes it
and the pseudo-CSL emitter prints it.

Router-rule advancement is modelled with wavelet *counts* rather than
explicit control wavelets: a rule forwards exactly ``count`` wavelets and
then the next rule becomes active.  On the real device this advancement is
triggered by control wavelets or by counted DSDs; the timing is identical
because a control wavelet rides the tail of the stream it terminates.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import PORT_NAMES, Grid, Port, opposite_port

__all__ = [
    "RouterRule",
    "Recv",
    "Send",
    "RecvReduceSend",
    "SendRecv",
    "SendCtrl",
    "Delay",
    "SampleClock",
    "PEProgram",
    "Schedule",
    "ScheduleArrays",
    "lower_arrays",
    "merge_sequential",
    "merge_phases",
    "merge_parallel",
    "stamp_parallel",
]


@dataclass
class RouterRule:
    """One routing configuration for one color.

    While active, the router accepts wavelets of this color from ``accept``
    only and forwards each to every port in ``forward`` (multicast
    duplication is free, Section 2.2).  After ``count`` wavelets the next
    rule in the color's list activates; ``count=None`` keeps the rule
    active forever (used by static patterns like broadcast).
    """

    accept: int
    forward: Tuple[int, ...]
    count: Optional[int] = None

    def __post_init__(self) -> None:
        if self.accept not in PORT_NAMES:
            raise ValueError(f"bad accept port {self.accept}")
        if not self.forward:
            raise ValueError("rule must forward somewhere")
        for port in self.forward:
            if port not in PORT_NAMES:
                raise ValueError(f"bad forward port {port}")
        if self.accept in self.forward:
            raise ValueError("rule forwards back to its accept port")
        if self.count is not None and self.count < 1:
            raise ValueError(f"rule count must be >= 1, got {self.count}")


@dataclass
class Recv:
    """Consume wavelets of ``color`` from the ramp into the local buffer.

    Receives ``messages`` back-to-back messages of ``length`` wavelets
    each; wavelet ``j`` of a message lands at ``offset + j``.  With
    ``combine=True`` it is added (reduction), otherwise stored (broadcast /
    allgather).  One wavelet per cycle.
    """

    color: int
    length: int
    offset: int = 0
    combine: bool = False
    messages: int = 1

    def __post_init__(self) -> None:
        if self.length < 1 or self.messages < 1 or self.offset < 0:
            raise ValueError(f"bad Recv parameters: {self!r}")

    @property
    def total_wavelets(self) -> int:
        return self.length * self.messages


@dataclass
class Send:
    """Emit ``length`` wavelets of ``color`` from the local buffer.

    Element ``j`` carries ``buffer[offset + j]``.  One wavelet per cycle;
    the wavelet enters the router ``T_R + 1`` cycles after the send issues.
    """

    color: int
    length: int
    offset: int = 0

    def __post_init__(self) -> None:
        if self.length < 1 or self.offset < 0:
            raise ValueError(f"bad Send parameters: {self!r}")

    @property
    def total_wavelets(self) -> int:
        return self.length


@dataclass
class RecvReduceSend:
    """Streaming combine: receive, add, and re-emit element by element.

    For each of ``length`` wavelets arriving on ``in_color``: combine into
    ``buffer[offset + j]`` and emit the combined value on ``out_color`` in
    the same cycle.  This is the pipelining primitive behind the Chain
    pattern and the last-child stream of every reduction-tree vertex.
    """

    in_color: int
    out_color: int
    length: int
    offset: int = 0

    def __post_init__(self) -> None:
        if self.length < 1 or self.offset < 0:
            raise ValueError(f"bad RecvReduceSend parameters: {self!r}")

    @property
    def total_wavelets(self) -> int:
        return self.length


@dataclass
class SendRecv:
    """Full-duplex round: send one chunk while receiving another.

    Each cycle the PE may emit one wavelet of
    ``buffer[send_offset : send_offset + length]`` on ``send_color`` *and*
    consume one wavelet on ``recv_color`` into
    ``buffer[recv_offset : recv_offset + length]`` (combining when
    ``combine``).  The op completes when both directions have moved
    ``length`` wavelets.  This models the device's independent fabric DSD
    engines and is the primitive behind the Ring AllReduce rounds
    (Section 6.2), whose cost per round is one chunk, not two.
    """

    send_color: int
    recv_color: int
    length: int
    send_offset: int = 0
    recv_offset: int = 0
    combine: bool = False

    def __post_init__(self) -> None:
        if self.length < 1 or self.send_offset < 0 or self.recv_offset < 0:
            raise ValueError(f"bad SendRecv parameters: {self!r}")

    @property
    def total_wavelets(self) -> int:
        return self.length


@dataclass
class SendCtrl:
    """Emit one *control wavelet* on ``color``.

    Control wavelets are the device's native configuration-advance
    mechanism (Section 2.2): every router the wavelet passes advances the
    active configuration of that color after forwarding it (it is not
    delivered up any ramp).  Schedules built with
    ``use_control_wavelets=True`` terminate each stream with one of these
    instead of relying on counted rules, paying the wavelet of overhead
    the real implementation pays.
    """

    color: int


@dataclass
class Delay:
    """Busy-wait for ``cycles`` cycles (calibration writes, §8.3)."""

    cycles: int

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ValueError(f"negative delay: {self.cycles}")


@dataclass
class SampleClock:
    """Record the PE's local clock into the simulation trace under ``tag``."""

    tag: str


Op = object  # informal union of the op dataclasses above

#: op attributes :meth:`Schedule.colors_used` reads colors from.
_OP_COLOR_ATTRS = ("color", "in_color", "out_color", "send_color", "recv_color")


@dataclass
class PEProgram:
    """Everything one PE contributes to a schedule."""

    router: Dict[int, List[RouterRule]] = field(default_factory=dict)
    ops: List[Op] = field(default_factory=list)

    def is_idle(self) -> bool:
        return not self.router and not self.ops


@dataclass
class Schedule:
    """A complete collective schedule for a grid of PEs.

    ``programs`` maps flat PE index to :class:`PEProgram` (PEs not present
    are idle).  ``buffer_size`` is the per-PE local buffer length in
    elements; ``name`` identifies the algorithm for reports.
    """

    grid: Grid
    programs: Dict[int, PEProgram] = field(default_factory=dict)
    buffer_size: int = 0
    name: str = "unnamed"

    def program(self, pe: int) -> PEProgram:
        """The program of ``pe``, creating an empty one on first access."""
        if not 0 <= pe < self.grid.size:
            raise IndexError(f"PE {pe} outside grid of {self.grid.size}")
        prog = self.programs.get(pe)
        if prog is None:
            prog = PEProgram()
            self.programs[pe] = prog
        return prog

    def colors_used(self) -> List[int]:
        colors = set()
        for prog in self.programs.values():
            colors.update(prog.router.keys())
            for op in prog.ops:
                for attr in _OP_COLOR_ATTRS:
                    c = getattr(op, attr, None)
                    if c is not None:
                        colors.add(c)
        return sorted(colors)

    def validate(self) -> None:
        """Cheap structural checks shared by all builders.

        * every referenced color has a router rule wherever the processor
          sends or receives on it;
        * counted rules and processor ops are wavelet-conserving per PE:
          the ramp traffic implied by the ops matches the RAMP-side rule
          counts (finite rules only).
        """
        for pe, prog in self.programs.items():
            ramp_in: Dict[int, int] = {}  # color -> wavelets PE sends
            ramp_out: Dict[int, int] = {}  # color -> wavelets PE receives
            for op in prog.ops:
                if isinstance(op, Recv):
                    ramp_out[op.color] = ramp_out.get(op.color, 0) + op.total_wavelets
                elif isinstance(op, Send):
                    ramp_in[op.color] = ramp_in.get(op.color, 0) + op.total_wavelets
                elif isinstance(op, RecvReduceSend):
                    ramp_out[op.in_color] = (
                        ramp_out.get(op.in_color, 0) + op.total_wavelets
                    )
                    ramp_in[op.out_color] = (
                        ramp_in.get(op.out_color, 0) + op.total_wavelets
                    )
                elif isinstance(op, SendRecv):
                    ramp_out[op.recv_color] = (
                        ramp_out.get(op.recv_color, 0) + op.total_wavelets
                    )
                    ramp_in[op.send_color] = (
                        ramp_in.get(op.send_color, 0) + op.total_wavelets
                    )
            for color, needed in ramp_in.items():
                rules = prog.router.get(color, [])
                capacity = 0
                unbounded = False
                for rule in rules:
                    if rule.accept == Port.RAMP:
                        if rule.count is None:
                            unbounded = True
                        else:
                            capacity += rule.count
                if not unbounded and capacity < needed:
                    raise ValueError(
                        f"PE {pe}: sends {needed} wavelets on color {color} "
                        f"but RAMP-accepting rules only pass {capacity}"
                    )
            for color, needed in ramp_out.items():
                rules = prog.router.get(color, [])
                capacity = 0
                unbounded = False
                for rule in rules:
                    if Port.RAMP in rule.forward:
                        if rule.count is None:
                            unbounded = True
                        else:
                            capacity += rule.count
                if not unbounded and capacity < needed:
                    raise ValueError(
                        f"PE {pe}: receives {needed} wavelets on color {color} "
                        f"but RAMP-forwarding rules only deliver {capacity}"
                    )

    def stats(self) -> Dict[str, int]:
        """Schedule-level counters used in reports and tests."""
        n_rules = sum(
            len(rules)
            for prog in self.programs.values()
            for rules in prog.router.values()
        )
        n_ops = sum(len(prog.ops) for prog in self.programs.values())
        return {
            "pes": len(self.programs),
            "rules": n_rules,
            "ops": n_ops,
            "colors": len(self.colors_used()),
        }


# -- array pre-lowering -------------------------------------------------------

#: Op kind codes used by the dense lowering (0 = no op / padding).
K_SEND, K_RECV, K_RRS, K_SENDRECV, K_SENDCTRL, K_DELAY, K_SAMPLE = range(1, 8)

#: port a wavelet arrives on after crossing the link out of each port
#: (RAMP has no link; its -1 is never used).
_OPPOSITE = np.array(
    [-1] + [opposite_port(port) for port in range(1, 5)], dtype=np.int64
)


@dataclass
class ScheduleArrays:
    """Dense array form of a :class:`Schedule` for the vectorized backend.

    Everything here is immutable run-to-run state: router rule tables and
    processor op tables flattened into ndarrays indexed ``[pe, ...]`` (with
    colors remapped to dense indices in ascending color order, so scanning
    the lane axis reproduces the reference simulator's sorted-color scans).
    Mutable per-run state (FIFO rings, counters) lives in the simulator.
    """

    n_pes: int
    #: sorted original color values; index in this list is the dense lane.
    colors: List[int]
    #: neighbor flat index per (pe, port), -1 at the grid edge (RAMP col unused).
    nbr: np.ndarray
    # Router rules, padded to the max rules-per-(pe, color) R:
    r_accept: np.ndarray   # [P, C, R] int8, -1 = no rule
    r_fwd: np.ndarray      # [P, C, R, 5] bool
    r_count: np.ndarray    # [P, C, R] int64, -1 = unbounded
    r_n: np.ndarray        # [P, C] int16, rules per (pe, color)
    # Processor ops, padded to the max ops-per-PE O:
    op_kind: np.ndarray    # [P, O] int8 (K_* codes, 0 = padding)
    op_c1: np.ndarray      # [P, O] int16 dense color lane (send/recv/in/ctrl)
    op_c2: np.ndarray      # [P, O] int16 dense color lane (out/recv side)
    op_off: np.ndarray     # [P, O] int64 (send-side / main offset)
    op_off2: np.ndarray    # [P, O] int64 (SendRecv recv offset)
    op_len: np.ndarray     # [P, O] int64 (length; Delay cycles; SampleClock tag id)
    op_total: np.ndarray   # [P, O] int64 (total wavelets to move)
    n_ops: np.ndarray      # [P] int32
    #: SampleClock tag strings, indexed by op_len for K_SAMPLE ops.
    tags: List[str]
    #: exact number of wavelets each PE ever emits (pending-queue capacity).
    emit_total: np.ndarray  # [P] int64
    #: op kind codes that actually occur in the schedule.
    kinds_present: frozenset
    # Flat index maps over the ``[pe, port, lane]`` space that router FIFOs
    # and staged output slots share (``f = (pe * 5 + port) * C + lane``):
    f_pc: np.ndarray       # [P*5*C] int64 (pe, color) pair ``pe * C + lane``
    f_link: np.ndarray     # [P*5*C] int64 link (or ramp) id ``pe * 5 + port``
    #: FIFO a staged slot delivers into (the neighbour's opposite port);
    #: -1 for RAMP slots and off-grid links.
    s_dst: np.ndarray      # [P*5*C] int64

    @property
    def n_colors(self) -> int:
        return len(self.colors)


def lower_arrays(schedule: Schedule) -> ScheduleArrays:
    """Lower ``schedule`` into :class:`ScheduleArrays` (cached per instance).

    The lowering is pure and the schedule IR is treated as immutable once
    built (plans are cached and shared), so the result is memoized on the
    schedule object itself.
    """
    cached = schedule.__dict__.get("_lowered_arrays")
    if cached is not None:
        return cached

    P = schedule.grid.size
    colors = schedule.colors_used()
    cmap = {c: i for i, c in enumerate(colors)}
    C = max(1, len(colors))

    nbr = np.full((P, 5), -1, dtype=np.int32)
    for pe in range(P):
        for port in (Port.WEST, Port.EAST, Port.NORTH, Port.SOUTH):
            n = schedule.grid.neighbor(pe, port)
            if n is not None:
                nbr[pe, port] = n

    R = max(
        [len(rules) for prog in schedule.programs.values()
         for rules in prog.router.values()],
        default=0,
    )
    R = max(1, R)
    r_accept = np.full((P, C, R), -1, dtype=np.int8)
    r_fwd = np.zeros((P, C, R, 5), dtype=bool)
    r_count = np.full((P, C, R), -1, dtype=np.int64)
    r_n = np.zeros((P, C), dtype=np.int16)

    O = max([len(p.ops) for p in schedule.programs.values()], default=0)
    O = max(1, O)
    op_kind = np.zeros((P, O), dtype=np.int8)
    op_c1 = np.full((P, O), -1, dtype=np.int16)
    op_c2 = np.full((P, O), -1, dtype=np.int16)
    op_off = np.zeros((P, O), dtype=np.int64)
    op_off2 = np.zeros((P, O), dtype=np.int64)
    op_len = np.zeros((P, O), dtype=np.int64)
    op_total = np.zeros((P, O), dtype=np.int64)
    n_ops = np.zeros(P, dtype=np.int32)
    emit_total = np.zeros(P, dtype=np.int64)
    tags: List[str] = []
    tag_ids: Dict[str, int] = {}
    kinds = set()

    for pe, prog in schedule.programs.items():
        for color, rule_list in prog.router.items():
            ci = cmap[color]
            r_n[pe, ci] = len(rule_list)
            for j, rule in enumerate(rule_list):
                r_accept[pe, ci, j] = rule.accept
                for out in rule.forward:
                    r_fwd[pe, ci, j, out] = True
                if rule.count is not None:
                    r_count[pe, ci, j] = rule.count
        n_ops[pe] = len(prog.ops)
        for j, op in enumerate(prog.ops):
            if isinstance(op, Send):
                op_kind[pe, j] = K_SEND
                op_c1[pe, j] = cmap[op.color]
                op_off[pe, j] = op.offset
                op_len[pe, j] = op.length
                op_total[pe, j] = op.length
                emit_total[pe] += op.length
            elif isinstance(op, Recv):
                op_kind[pe, j] = K_RECV
                op_c1[pe, j] = cmap[op.color]
                op_off[pe, j] = op.offset
                op_len[pe, j] = op.length
                op_total[pe, j] = op.total_wavelets
            elif isinstance(op, RecvReduceSend):
                op_kind[pe, j] = K_RRS
                op_c1[pe, j] = cmap[op.in_color]
                op_c2[pe, j] = cmap[op.out_color]
                op_off[pe, j] = op.offset
                op_len[pe, j] = op.length
                op_total[pe, j] = op.length
                emit_total[pe] += op.length
            elif isinstance(op, SendRecv):
                op_kind[pe, j] = K_SENDRECV
                op_c1[pe, j] = cmap[op.send_color]
                op_c2[pe, j] = cmap[op.recv_color]
                op_off[pe, j] = op.send_offset
                op_off2[pe, j] = op.recv_offset
                op_len[pe, j] = op.length
                op_total[pe, j] = op.length
                emit_total[pe] += op.length
            elif isinstance(op, SendCtrl):
                op_kind[pe, j] = K_SENDCTRL
                op_c1[pe, j] = cmap[op.color]
                emit_total[pe] += 1
            elif isinstance(op, Delay):
                op_kind[pe, j] = K_DELAY
                op_len[pe, j] = op.cycles
            elif isinstance(op, SampleClock):
                op_kind[pe, j] = K_SAMPLE
                tid = tag_ids.setdefault(op.tag, len(tags))
                if tid == len(tags):
                    tags.append(op.tag)
                op_len[pe, j] = tid
            else:
                raise TypeError(f"unknown op {op!r} on PE {pe}")
            kinds.add(int(op_kind[pe, j]))

    f = np.arange(P * 5 * C, dtype=np.int64)
    f_link = f // C
    lane = f % C
    nb = nbr.reshape(-1).astype(np.int64)[f_link]
    s_dst = np.where(nb >= 0, (nb * 5 + _OPPOSITE[f_link % 5]) * C + lane, -1)

    lowered = ScheduleArrays(
        n_pes=P,
        colors=colors,
        nbr=nbr,
        r_accept=r_accept,
        r_fwd=r_fwd,
        r_count=r_count,
        r_n=r_n,
        op_kind=op_kind,
        op_c1=op_c1,
        op_c2=op_c2,
        op_off=op_off,
        op_off2=op_off2,
        op_len=op_len,
        op_total=op_total,
        n_ops=n_ops,
        tags=tags,
        emit_total=emit_total,
        kinds_present=frozenset(kinds),
        f_pc=f_link // 5 * C + lane,
        f_link=f_link,
        s_dst=s_dst,
    )
    schedule.__dict__["_lowered_arrays"] = lowered
    return lowered


def merge_parallel(schedules: Sequence["Schedule"], name: str) -> Schedule:
    """Union of schedules running concurrently on disjoint PE sets.

    Each input touches only its own PEs, so the union is conflict-free by
    construction (asserted here).  Copies of one schedule at PE offsets,
    as in the X-Y collectives, are cheaper with :func:`stamp_parallel`.
    """
    if not schedules:
        raise ValueError("nothing to merge")
    grid = schedules[0].grid
    merged = Schedule(
        grid=grid,
        buffer_size=max(s.buffer_size for s in schedules),
        name=name,
    )
    for sched in schedules:
        if sched.grid != grid:
            raise ValueError("cannot merge schedules on different grids")
        for pe, prog in sched.programs.items():
            if pe in merged.programs:
                raise ValueError(
                    f"parallel schedules overlap on PE {pe}; "
                    "use merge_sequential for phased composition"
                )
            merged.programs[pe] = prog
    return merged


def stamp_parallel(
    schedule: Schedule, offsets: Sequence[int], name: str
) -> Schedule:
    """Copies of ``schedule`` shifted by each PE offset, run concurrently.

    The per-row (or per-column) phases of the X-Y collectives are one 1D
    schedule repeated at PE offsets ``row * cols`` (or ``col``): the
    router ports and processor ops are relative, so only the PE indices
    move.  The result equals :func:`merge_parallel` over the shifted
    copies, built without building them.  Copies share their
    :class:`PEProgram` objects, so the result is a phase to hand to
    :func:`merge_phases` (which gives every PE its own program), not a
    schedule to extend in place.
    """
    grid = schedule.grid
    stamped = Schedule(grid=grid, buffer_size=schedule.buffer_size, name=name)
    if not offsets or not schedule.programs:
        return stamped
    lo = min(schedule.programs) + min(offsets)
    hi = max(schedule.programs) + max(offsets)
    if lo < 0 or hi >= grid.size:
        raise IndexError(f"stamped PEs [{lo}, {hi}] outside grid of {grid.size}")
    programs = stamped.programs
    for offset in offsets:
        for pe, prog in schedule.programs.items():
            programs[pe + offset] = prog
    if len(programs) != len(schedule.programs) * len(offsets):
        raise ValueError(
            "stamped copies overlap; use merge_sequential for phased "
            "composition"
        )
    return stamped


def merge_phases(phases: Sequence[Schedule], name: str) -> Schedule:
    """Concatenate schedules phase-wise on the same grid, in one pass.

    The phases must use disjoint colors; each PE's ops run in phase order,
    and the router rule lists are concatenated per color.  Dataflow
    (counted rules + op order) provides the inter-phase synchronization,
    exactly as on the device — there is no global barrier.

    Every PE of the result gets its own :class:`PEProgram`; rules and ops
    are shared with the phases.  Phases may share one program among many
    PEs (:func:`stamp_parallel`, the 2D broadcast): each distinct
    combination of phase programs is concatenated, and scanned for the
    colors its phases use, once, then copied to every PE that has it.
    The result is not validated: composers build their phases unvalidated
    and call :meth:`Schedule.validate` once, on the final schedule.
    """
    if not phases:
        raise ValueError("nothing to merge")
    grid = phases[0].grid
    for phase in phases[1:]:
        if phase.grid != grid:
            raise ValueError("cannot merge schedules on different grids")
    pes = set(phases[0].programs)
    for phase in phases[1:]:
        pes = pes | set(phase.programs)
    merged = Schedule(
        grid=grid,
        buffer_size=max(phase.buffer_size for phase in phases),
        name=name,
    )
    order = list(pes)
    # Column per phase: its program (or None) at each PE of ``order``.
    columns = [[phase.programs.get(pe) for pe in order] for phase in phases]
    used: List[set] = [set() for _ in phases]
    #: ids of one PE's phase programs -> their concatenated router colors,
    #: rule lists and ops.
    concatenated: Dict[tuple, tuple] = {}
    programs = merged.programs
    with _collector_paused():
        for pe, progs in zip(order, zip(*columns)):
            key = tuple(map(id, progs))
            entry = concatenated.get(key)
            if entry is None:
                entry = concatenated[key] = _concatenate(progs, used)
            colors, rule_lists, ops = entry
            programs[pe] = PEProgram(
                router=dict(zip(colors, map(list, rule_lists))), ops=ops[:]
            )
    seen: set = set()
    for colors in used:
        overlap = seen & colors
        if overlap:
            raise ValueError(f"phases share colors {sorted(overlap)}")
        seen |= colors
    return merged


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector while a schedule is allocated.

    A 512×512 schedule allocates about 1.6M containers (per PE a
    :class:`PEProgram`, its router dict and lists and its ops list), and
    the heap's growth keeps triggering full collections over all of it:
    with the collector running, the merge takes about 2.5 times as long.
    Nothing allocated here forms a cycle, so pausing frees nothing late.
    A collector that was already off is left off.  The switch is
    process-wide; another thread that finds it paused only collects
    later.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _concatenate(progs: Sequence[Optional[PEProgram]], used: Sequence[set]) -> tuple:
    """One PE's phase programs run in order: ``(colors, rule lists, ops)``.

    Adds the colors each phase's program uses to that phase's ``used``.
    """
    router: Dict[int, List[RouterRule]] = {}
    ops: List[Op] = []
    for prog, colors in zip(progs, used):
        if prog is None:
            continue
        for color, rules in prog.router.items():
            colors.add(color)
            router.setdefault(color, []).extend(rules)
        for op in prog.ops:
            for attr in _OP_COLOR_ATTRS:
                c = getattr(op, attr, None)
                if c is not None:
                    colors.add(c)
        ops.extend(prog.ops)
    return tuple(router), tuple(router.values()), ops


def merge_sequential(first: Schedule, second: Schedule, name: str) -> Schedule:
    """Concatenate two schedules phase-wise: :func:`merge_phases` of two.

    One pass over the PEs, colors collected on the way; the caller
    validates the final schedule.
    """
    return merge_phases((first, second), name)
