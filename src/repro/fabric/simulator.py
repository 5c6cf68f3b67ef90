"""Cycle-level simulator of the wafer-scale fabric.

Executes a :class:`~repro.fabric.ir.Schedule` on an ``M x N`` grid with the
semantics of Section 2.2:

* each link moves one 32-bit wavelet per direction per cycle;
* routers hold per-color configuration lists; the active configuration
  accepts wavelets from a single port and forwards them to any set of
  ports (free multicast); wavelets from non-accepted ports stall in small
  input buffers with backpressure to the upstream router;
* the ramp between router and processor costs :math:`T_R` cycles each way,
  and a receive-combine-store costs one processor cycle, so one dependent
  hop costs :math:`2 T_R + 2` cycles end to end — the constant behind the
  Chain formula of Lemma 5.2;
* two wavelets of one color being *accepted* by a router in the same cycle
  is undefined behaviour on the device; the rule structure makes it
  impossible here, and the simulator asserts it.

The engine is event-assisted cycle-driven: only routers and processors
that can make progress are visited, stalled components sleep until the
event that unblocks them (arrival, buffer drain, rule advance, timer), and
fully idle stretches fast-forward to the next timed event.  Cost is
therefore :math:`O(\\text{wavelet movements})`, which is the energy term
``E`` of the schedule.

The simulator is timing-only: a wavelet in a queue carries nothing but
whether it is a control wavelet.  The values the buffers end with do not
depend on when wavelets move (Kahn's theorem), so :func:`simulate` takes
them from the clock-free value pass (:mod:`repro.fabric.values`) on
either backend.  :class:`FabricSimulator` is the timing oracle that the
vectorized backend (:mod:`repro.fabric.vectorized`) matches cycle for
cycle.
"""

from __future__ import annotations

import heapq
import logging
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..model.params import CS2, MachineParams
from ..obs import spans as _obs
from ..obs.metrics import METRICS
from . import values
from .geometry import PORT_NAMES, Port, opposite_port
from .ir import (
    Delay,
    PEProgram,
    Recv,
    RecvReduceSend,
    SampleClock,
    Schedule,
    Send,
    SendCtrl,
    SendRecv,
)

__all__ = [
    "SimulationError",
    "DeadlockError",
    "CollisionError",
    "SimResult",
    "FabricSimulator",
    "simulate",
    "resolve_backend",
    "set_fallback_hook",
    "FALLBACKS",
    "SIM_BACKENDS",
]

logger = logging.getLogger(__name__)

#: Recognised simulator backends.  ``vectorized`` falls back to
#: ``reference`` automatically for the runs of :data:`FALLBACKS`.
SIM_BACKENDS = ("vectorized", "reference")

_LINK_PORTS = (Port.WEST, Port.EAST, Port.NORTH, Port.SOUTH)


class SimulationError(RuntimeError):
    """Base class for simulator failures."""


class DeadlockError(SimulationError):
    """The schedule can make no further progress but is unfinished."""


class CollisionError(SimulationError):
    """Same-color wavelets accepted by one router in one cycle
    (undefined behaviour on the hardware)."""


@dataclass
class SimResult:
    """Outcome of one simulated collective."""

    cycles: int
    energy: int
    buffers: Dict[int, np.ndarray]
    #: wavelets each PE's processor received / sent over the ramp.
    received: np.ndarray
    sent: np.ndarray
    #: router->router deliveries out of each (pe, port).
    link_loads: np.ndarray
    #: clock samples recorded by SampleClock ops: tag -> {pe: local_time}.
    clock_samples: Dict[str, Dict[int, int]]
    #: per-PE cycle at which the processor finished its program.
    completion: np.ndarray
    #: simulator backend that produced this result ("reference" or
    #: "vectorized"); excluded from semantic comparisons.
    backend: str = "reference"

    @property
    def max_contention(self) -> int:
        """Largest wavelet count through any single PE's ramp (C term)."""
        if len(self.received) == 0:
            return 0
        return int(np.maximum(self.received, self.sent).max())

    @property
    def links_used(self) -> int:
        """Number of directed links that carried at least one wavelet (N)."""
        return int((self.link_loads > 0).sum())


class _Router:
    """Per-PE router state (see module docstring for the semantics).

    Buffering is per (port, color) on both the input and the output side:
    the device's routers flow-control each color independently (virtual
    channels), so a stalled color must not head-of-line block other colors
    sharing a physical link — neither in the input queues nor in the
    output staging towards the link.  The physical link still moves at
    most one wavelet per direction per cycle.
    """

    __slots__ = ("fifos", "staged", "rules", "rule_idx", "active")

    def __init__(self, program: Optional[PEProgram]) -> None:
        # fifos[port]: dict color -> deque of wavelets, each True for a
        # control wavelet and False for data
        self.fifos: List[Dict[int, deque]] = [dict() for _ in range(5)]
        # staged[port]: dict color -> wavelet awaiting link transfer
        self.staged: List[Dict[int, bool]] = [dict() for _ in range(5)]
        # color -> list of [accept, forward_tuple, remaining or None]
        self.rules: Dict[int, List[List]] = {}
        self.rule_idx: Dict[int, int] = {}
        if program is not None:
            for color, rule_list in program.router.items():
                self.rules[color] = [
                    [r.accept, r.forward, r.count] for r in rule_list
                ]
                self.rule_idx[color] = 0
        self.active = False

    def push(self, port: int, color: int, ctrl: bool) -> None:
        queues = self.fifos[port]
        q = queues.get(color)
        if q is None:
            q = deque()
            queues[color] = q
        q.append(ctrl)

    def backlog(self, port: int, color: int) -> int:
        q = self.fifos[port].get(color)
        return len(q) if q is not None else 0

    def has_input(self) -> bool:
        return any(q for queues in self.fifos for q in queues.values())

    def has_staged(self) -> bool:
        return any(self.staged)

    def active_rule(self, color: int) -> Optional[List]:
        idx = self.rule_idx.get(color)
        if idx is None:
            return None
        rule_list = self.rules[color]
        if idx >= len(rule_list):
            return None
        return rule_list[idx]


class _Processor:
    """Per-PE processor state executing the ordered op list."""

    __slots__ = (
        "ops",
        "op_idx",
        "progress",
        "in_queues",
        "done_cycle",
        "received",
        "sent",
        "wake_at",
        "active",
    )

    def __init__(self, program: Optional[PEProgram]) -> None:
        self.ops = list(program.ops) if program is not None else []
        self.op_idx = 0
        self.progress = 0
        #: color -> deque of the cycles its wavelets reach the processor.
        self.in_queues: Dict[int, deque] = {}
        self.done_cycle: Optional[int] = None
        self.received = 0
        self.sent = 0
        self.wake_at: Optional[int] = None
        self.active = False

    @property
    def done(self) -> bool:
        return self.op_idx >= len(self.ops)

    def queue(self, color: int) -> deque:
        q = self.in_queues.get(color)
        if q is None:
            q = deque()
            self.in_queues[color] = q
        return q


class FabricSimulator:
    """Executes one schedule; see :func:`simulate` for the one-call API."""

    def __init__(
        self,
        schedule: Schedule,
        params: MachineParams = CS2,
        fifo_capacity: int = 4,
        clock_offsets: Dict[int, int] | None = None,
        max_cycles: int = 50_000_000,
        tracer=None,
    ) -> None:
        if fifo_capacity < 1:
            raise ValueError("fifo_capacity must be >= 1")
        self.schedule = schedule
        self.grid = schedule.grid
        self.params = params
        self.fifo_capacity = fifo_capacity
        self.max_cycles = max_cycles
        self.clock_offsets = clock_offsets or {}
        self.tracer = tracer

        size = self.grid.size
        self.routers = [_Router(schedule.programs.get(pe)) for pe in range(size)]
        self.procs = [_Processor(schedule.programs.get(pe))
                      for pe in range(size)]

        # Event machinery.
        self._active_routers: List[int] = []
        self._active_procs: List[int] = []
        self._delivery: set[int] = set()
        self._stage_waiters: Dict[Tuple[int, int], int] = {}
        self._timed: List[Tuple[int, int, int]] = []  # (cycle, kind, pe)
        self._timer_seq = 0
        # Per-processor pending ramp entries: (entry_cycle, color, ctrl).
        self._ramp_pending: List[deque] = [deque() for _ in range(size)]
        self.energy = 0
        self.link_loads = np.zeros((size, 5), dtype=np.int64)
        self.clock_samples: Dict[str, Dict[int, int]] = {}
        self._accept_guard: Dict[Tuple[int, int], int] = {}

        for pe in range(size):
            if not self.procs[pe].done:
                self._wake_proc(pe)

    # -- wake helpers ----------------------------------------------------------

    def _wake_router(self, pe: int) -> None:
        router = self.routers[pe]
        if not router.active:
            router.active = True
            self._active_routers.append(pe)

    def _wake_proc(self, pe: int) -> None:
        proc = self.procs[pe]
        if not proc.active and not proc.done:
            proc.active = True
            self._active_procs.append(pe)

    def _schedule_timer(self, cycle: int, pe: int, kind: int) -> None:
        self._timer_seq += 1
        heapq.heappush(self._timed, (cycle, self._timer_seq, kind * 1_000_000_000 + pe))

    # -- main loop -------------------------------------------------------------

    def run(self) -> SimResult:
        if not _obs.enabled():
            return self._run()
        with _obs.span(
            "sim.run", backend="reference", schedule=self.schedule.name
        ) as sp:
            result = self._run()
            sp.add(cycles=result.cycles)
            _obs.counter_sample(
                "sim.cycles", {"stepped": result.cycles, "strided": 0}
            )
            METRICS.inc("sim.cycles.stepped", result.cycles)
        return result

    def _run(self) -> SimResult:
        cycle = 0
        last_activity = -1  # a schedule with no work at all runs 0 cycles
        while True:
            if cycle > self.max_cycles:
                raise SimulationError(
                    f"exceeded max_cycles={self.max_cycles} "
                    f"(schedule {self.schedule.name!r})"
                )
            # 0. timed events due now.
            while self._timed and self._timed[0][0] <= cycle:
                _, _, packed = heapq.heappop(self._timed)
                kind, pe = divmod(packed, 1_000_000_000)
                if kind == 0:  # processor wake (recv maturity / delay / gate)
                    self._wake_proc(pe)
                elif kind == 1:  # ramp entry into router fifo
                    self._drain_ramp_pending(pe, cycle)

            progressed = False

            # 1. deliver staged outputs across links.
            if self._delivery:
                progressed |= self._deliver(cycle)

            # 2. route.
            if self._active_routers:
                progressed |= self._route(cycle)

            # 3. processors.
            if self._active_procs:
                progressed |= self._step_procs(cycle)

            if progressed:
                last_activity = cycle

            if (
                not self._active_routers
                and not self._active_procs
                and not self._delivery
            ):
                if self._timed:
                    cycle = max(cycle + 1, self._timed[0][0])
                    continue
                break
            cycle += 1

        self._check_finished(last_activity)
        size = self.grid.size
        return SimResult(
            cycles=last_activity + 1,
            energy=self.energy,
            buffers={},
            received=np.array([p.received for p in self.procs], dtype=np.int64),
            sent=np.array([p.sent for p in self.procs], dtype=np.int64),
            link_loads=self.link_loads,
            clock_samples=self.clock_samples,
            completion=np.array(
                [
                    p.done_cycle if p.done_cycle is not None else -1
                    for p in self.procs
                ],
                dtype=np.int64,
            ),
        )

    def _check_finished(self, last_activity: int) -> None:
        stuck_procs = [
            pe for pe, p in enumerate(self.procs) if not p.done
        ]
        leftover = [
            pe
            for pe, r in enumerate(self.routers)
            if r.has_input() or r.has_staged()
        ]
        leftover += [
            pe
            for pe, q in enumerate(self._ramp_pending)
            if q
        ]
        if stuck_procs or leftover:
            details = []
            for pe in stuck_procs[:8]:
                p = self.procs[pe]
                op = p.ops[p.op_idx]
                details.append(
                    f"PE {pe} ({self.grid.coords(pe)}): stuck at op "
                    f"{p.op_idx} {type(op).__name__} progress={p.progress}"
                )
            for pe in leftover[:8]:
                details.append(f"PE {pe}: undelivered wavelets in network")
            raise DeadlockError(
                f"schedule {self.schedule.name!r} deadlocked at cycle "
                f"{last_activity}:\n  " + "\n  ".join(details)
            )

    # -- phases ------------------------------------------------------------------

    def _deliver(self, cycle: int) -> bool:
        """Move staged wavelets across links: one per link per cycle.

        Per-color virtual channels: a color whose downstream queue is full
        registers a waiter (re-armed when the queue pops, see ``_route``)
        and must not block other colors staged on the same link.  A router
        stays in the delivery sweep only while it has colors that could
        move next cycle; fully-blocked ports rely on waiter wakeups,
        keeping the sweep cost proportional to actual movements.
        """
        progressed = False
        for pe in list(self._delivery):
            router = self.routers[pe]
            retry = False  # some port may deliver again next cycle
            any_staged = False
            for port in _LINK_PORTS:
                slots = router.staged[port]
                if not slots:
                    continue
                nbr = self.grid.neighbor(pe, port)
                if nbr is None:
                    raise SimulationError(
                        f"PE {pe} staged a wavelet off the grid edge "
                        f"({PORT_NAMES[port]})"
                    )
                in_port = opposite_port(port)
                neighbor = self.routers[nbr]
                delivered = False
                for color in sorted(slots):
                    if delivered:
                        # Link already used this cycle; remaining colors
                        # retry next cycle.
                        retry = True
                        break
                    if neighbor.backlog(in_port, color) < self.fifo_capacity:
                        neighbor.push(in_port, color, slots.pop(color))
                        self.energy += 1
                        self.link_loads[pe, port] += 1
                        if self.tracer is not None:
                            self.tracer.record(cycle, "link", pe, color, port)
                        self._wake_router(nbr)
                        self._wake_router(pe)
                        progressed = True
                        delivered = True
                    else:
                        self._stage_waiters[(nbr, in_port, color)] = pe
                any_staged = any_staged or bool(slots)
            if not any_staged:
                self._delivery.discard(pe)
            elif not retry:
                # Everything left is blocked on downstream queues; waiters
                # will re-add this router when space frees up.
                self._delivery.discard(pe)
        return progressed

    def _route(self, cycle: int) -> bool:
        progressed = False
        current = self._active_routers
        self._active_routers = []
        self._accept_guard.clear()
        for pe in current:
            router = self.routers[pe]
            router.active = False
            made = False
            for port in range(5):
                queues = router.fifos[port]
                if not queues:
                    continue
                # One wavelet per input port per cycle; a stalled color
                # must not block other colors on the same link, so scan
                # the port's color queues for the first routable head.
                for color in sorted(queues):
                    q = queues[color]
                    if not q:
                        continue
                    rule = router.active_rule(color)
                    if rule is None:
                        raise SimulationError(
                            f"PE {pe}: wavelet of color {color} arrived on "
                            f"{PORT_NAMES[port]} but no active rule exists "
                            f"(schedule {self.schedule.name!r})"
                        )
                    if rule[0] != port:
                        continue  # stalls awaiting rule advance
                    guard_key = (pe, color)
                    prev = self._accept_guard.get(guard_key)
                    if prev is not None and prev != port:
                        # A rule advanced mid-cycle and the successor
                        # stream is already waiting.  The hardware starts
                        # the new stream next cycle; accepting both in one
                        # cycle would be the undefined same-color collision.
                        continue
                    # All forward ports must have a free staging slot for
                    # this color (multicast is all-or-nothing: one crossbar
                    # pass duplicates the wavelet to every target).
                    targets = rule[1]
                    free = True
                    for out in targets:
                        if out != Port.RAMP and color in router.staged[out]:
                            free = False
                            break
                    if not free:
                        continue
                    is_ctrl = q.popleft()
                    self._accept_guard[guard_key] = port
                    for out in targets:
                        if out == Port.RAMP:
                            if is_ctrl:
                                continue  # routers absorb control wavelets
                            self.procs[pe].queue(color).append(
                                cycle + self.params.ramp_latency
                            )
                            self._schedule_timer(
                                cycle + self.params.ramp_latency, pe, 0
                            )
                            if self.tracer is not None:
                                self.tracer.record(
                                    cycle, "ramp_up", pe, color, Port.RAMP
                                )
                        else:
                            router.staged[out][color] = is_ctrl
                            self._delivery.add(pe)
                    # Backpressure bookkeeping: this pop freed FIFO space.
                    if port == Port.RAMP:
                        # The processor's send gate may have reopened.
                        self._wake_proc(pe)
                    else:
                        waiter = self._stage_waiters.pop((pe, port, color), None)
                        if waiter is not None:
                            self._delivery.add(waiter)
                    # Rule advancement: a control wavelet advances
                    # unconditionally; otherwise the count ticks down.
                    if is_ctrl:
                        router.rule_idx[color] += 1
                    elif rule[2] is not None:
                        rule[2] -= 1
                        if rule[2] == 0:
                            router.rule_idx[color] += 1
                    made = True
                    break  # one wavelet per port per cycle
            if made:
                progressed = True
                self._wake_router(pe)  # retry next cycle while backlogged
            else:
                # Sleeps; woken by arrival, staging drain, or ramp entry.
                pass
        return progressed

    def _drain_ramp_pending(self, pe: int, cycle: int) -> None:
        pending = self._ramp_pending[pe]
        router = self.routers[pe]
        moved = False
        while pending and pending[0][0] <= cycle:
            _, color, ctrl = pending.popleft()
            router.push(Port.RAMP, color, ctrl)
            moved = True
        if moved:
            self._wake_router(pe)
            self._wake_proc(pe)  # send gate may have opened
        if pending:
            self._schedule_timer(pending[0][0], pe, 1)

    def _emit(self, pe: int, color: int, cycle: int, ctrl: bool = False) -> None:
        """Processor send: wavelet enters the router after 1 + T_R cycles
        (a control wavelet is not counted as sent)."""
        entry = cycle + 1 + self.params.ramp_latency
        pending = self._ramp_pending[pe]
        if not pending:
            self._schedule_timer(entry, pe, 1)
        pending.append((entry, color, ctrl))
        if ctrl:
            return
        self.procs[pe].sent += 1
        if self.tracer is not None:
            self.tracer.record(cycle, "ramp_down", pe, color, Port.RAMP)

    def _send_gate_open(self, pe: int) -> bool:
        router = self.routers[pe]
        queued = sum(len(q) for q in router.fifos[Port.RAMP].values())
        return queued + len(self._ramp_pending[pe]) < self.fifo_capacity

    def _step_procs(self, cycle: int) -> bool:
        progressed = False
        current = self._active_procs
        self._active_procs = []
        for pe in current:
            proc = self.procs[pe]
            proc.active = False
            if proc.done:
                continue
            if proc.wake_at is not None:
                if cycle < proc.wake_at:
                    self._schedule_timer(proc.wake_at, pe, 0)
                    continue
                proc.wake_at = None
            if self._step_one(pe, proc, cycle):
                progressed = True
                if not proc.done:
                    self._wake_proc(pe)
            # Blocked processors sleep; wakes come from ramp maturity
            # timers, send-gate drains, or their own Delay timers.
        return progressed

    def _advance_op(self, proc: _Processor, cycle: int, pe: int = -1) -> None:
        if self.tracer is not None:
            self.tracer.record(
                cycle, "op_done", pe,
                detail=type(proc.ops[proc.op_idx]).__name__,
            )
        proc.op_idx += 1
        proc.progress = 0
        if proc.done:
            proc.done_cycle = cycle

    def _ready(self, pe: int, proc: _Processor, color: int, cycle: int) -> bool:
        """Whether a wavelet of ``color`` has reached the processor; if one
        is still on the ramp, wake the processor when it arrives."""
        queue = proc.in_queues.get(color)
        if not queue:
            return False
        if queue[0] > cycle:
            self._schedule_timer(queue[0], pe, 0)
            return False
        return True

    def _consume(self, pe: int, proc: _Processor, color: int, cycle: int) -> bool:
        """Take one arrived wavelet of ``color``, if there is one."""
        if not self._ready(pe, proc, color, cycle):
            return False
        proc.in_queues[color].popleft()
        proc.received += 1
        if self.tracer is not None:
            self.tracer.record(cycle, "consume", pe, color)
        return True

    def _step_one(self, pe: int, proc: _Processor, cycle: int) -> bool:
        op = proc.ops[proc.op_idx]
        if isinstance(op, Send):
            if not self._send_gate_open(pe):
                return False
            self._emit(pe, op.color, cycle)
            proc.progress += 1
            if proc.progress >= op.length:
                self._advance_op(proc, cycle, pe)
            return True
        if isinstance(op, Recv):
            if not self._consume(pe, proc, op.color, cycle):
                return False
            proc.progress += 1
            if proc.progress >= op.total_wavelets:
                self._advance_op(proc, cycle, pe)
            return True
        if isinstance(op, RecvReduceSend):
            if not self._ready(pe, proc, op.in_color, cycle):
                return False
            if not self._send_gate_open(pe):
                return False
            self._consume(pe, proc, op.in_color, cycle)
            self._emit(pe, op.out_color, cycle)
            proc.progress += 1
            if proc.progress >= op.length:
                self._advance_op(proc, cycle, pe)
            return True
        if isinstance(op, SendRecv):
            # progress packs both directions: low half sent, high half
            # received; the op needs a second counter, stored on the side.
            sent, recvd = divmod(proc.progress, op.length + 1)
            moved = False
            if sent < op.length and self._send_gate_open(pe):
                self._emit(pe, op.send_color, cycle)
                sent += 1
                moved = True
            if recvd < op.length and self._consume(pe, proc, op.recv_color,
                                                   cycle):
                recvd += 1
                moved = True
            proc.progress = sent * (op.length + 1) + recvd
            if sent >= op.length and recvd >= op.length:
                self._advance_op(proc, cycle, pe)
            return moved
        if isinstance(op, SendCtrl):
            if not self._send_gate_open(pe):
                return False
            self._emit(pe, op.color, cycle, ctrl=True)
            self._advance_op(proc, cycle, pe)
            return True
        if isinstance(op, Delay):
            if op.cycles == 0:
                self._advance_op(proc, cycle, pe)
                return True
            proc.wake_at = cycle + op.cycles
            self._advance_op(proc, cycle, pe)
            # The delay occupies [cycle, cycle + op.cycles); the next op may
            # start at wake_at.  done_cycle for a trailing Delay is the wake.
            if proc.done:
                proc.done_cycle = cycle + op.cycles
                proc.wake_at = None
            else:
                self._schedule_timer(proc.wake_at, pe, 0)
            return True
        if isinstance(op, SampleClock):
            local = cycle + self.clock_offsets.get(pe, 0)
            self.clock_samples.setdefault(op.tag, {})[pe] = local
            self._advance_op(proc, cycle, pe)
            return True
        raise SimulationError(f"unknown op {op!r} on PE {pe}")


# One-time-per-reason fallback reporting: every fallback of a
# ``backend="vectorized"`` run increments a labeled counter (when
# telemetry records) and warns once per distinct reason.  Tests (or
# embedding applications) can install a hook to capture every event.
_FALLBACK_STATE: Dict[str, object] = {"hook": None, "warned": set()}

#: Every reason a ``backend="vectorized"`` simulation runs on the
#: reference instead, in the order :func:`simulate` checks them, each
#: decided from the arguments before a cycle runs: a tracer (it needs the
#: reference's per-event hooks) and ``ramp_latency < 1`` (it needs the
#: reference's event order).
FALLBACKS = ("tracer", "ramp_latency")


def set_fallback_hook(hook: Optional[Callable[[Schedule, str], None]]):
    """Install ``hook(schedule, reason)`` for backend fallbacks.

    The hook replaces the once-per-reason log warning (it is called on
    *every* fallback, with a reason from :data:`FALLBACKS`); pass
    ``None`` to restore the default.  Returns the previous hook.
    """
    previous = _FALLBACK_STATE["hook"]
    _FALLBACK_STATE["hook"] = hook
    return previous


def _note_fallback(schedule: Schedule, reason: str) -> None:
    if _obs.enabled():
        METRICS.inc("sim.fallback", reason=reason)
        _obs.instant("sim.fallback", schedule=schedule.name, reason=reason)
    hook = _FALLBACK_STATE["hook"]
    if hook is not None:
        hook(schedule, reason)
    elif reason not in _FALLBACK_STATE["warned"]:
        _FALLBACK_STATE["warned"].add(reason)
        logger.warning(
            "vectorized backend refused schedule %r: %s; falling back to "
            "the reference simulator (logged once per reason)",
            schedule.name, reason,
        )


def resolve_backend(backend: str | None = None) -> str:
    """Resolve the simulator backend: explicit arg > ``REPRO_SIM_BACKEND``
    env var > default ``vectorized``."""
    if backend is None:
        from ..core import config as _config

        backend = _config.env_str("REPRO_SIM_BACKEND", "vectorized")
    if backend not in SIM_BACKENDS:
        raise ValueError(
            f"unknown simulator backend {backend!r} (expected one of {SIM_BACKENDS})"
        )
    return backend


def simulate(
    schedule: Schedule,
    inputs: Dict[int, np.ndarray] | None = None,
    params: MachineParams = CS2,
    backend: str | None = None,
    combine: np.ufunc = np.add,
    tracer=None,
    **kwargs,
) -> SimResult:
    """Simulate ``schedule`` on the selected backend.

    ``backend`` may be ``"vectorized"`` (default), ``"reference"``, or
    ``None`` to consult the ``REPRO_SIM_BACKEND`` environment variable.
    Both backends are timing-only: the vectorized array stepper
    (:mod:`repro.fabric.vectorized`) or the reference
    :class:`FabricSimulator` runs the clock, and once it is released the
    clock-free value pass (:func:`repro.fabric.values.final_buffers`)
    fills ``buffers`` from ``inputs``, combining with the binary ufunc
    ``combine``.  A vectorized run that hits one of :data:`FALLBACKS`
    goes to the reference instead.  Before either engine is built,
    :func:`repro.fabric.values.check` raises ``TypeError`` for an
    unknown op type and ``ValueError`` for a combine that is not a
    binary ufunc, a ``SendRecv`` whose ranges overlap or an op past its
    buffer.  Both backends produce bit-identical :class:`SimResult`\\ s
    (up to the ``backend`` tag).
    """
    backend = resolve_backend(backend)
    values.check(schedule, combine)
    if backend == "vectorized" and (tracer is not None
                                    or params.ramp_latency < 1):
        _note_fallback(schedule, "tracer" if tracer is not None
                       else "ramp_latency")
        backend = "reference"
    if backend == "vectorized":
        from .vectorized import VectorizedSimulator

        engine = VectorizedSimulator(schedule, params=params, **kwargs)
    else:
        engine = FabricSimulator(schedule, params=params, tracer=tracer,
                                 **kwargs)
    result = engine.run()
    del engine
    result.buffers = values.final_buffers(schedule, inputs, combine)
    result.backend = backend
    return result
