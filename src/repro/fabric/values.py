"""Clock-free value pass: a schedule's final buffers without a simulation.

A schedule is a Kahn process network.  Every router color of every PE
and every processor is a deterministic process that reads its input
channels in an order fixed by the schedule alone:

* one FIFO channel per ``(PE, port, color)`` feeds each router, and one
  per ``(PE, color)`` feeds each processor from its ramp;
* a router walks its counted rules, reading only the active rule's
  accept port and copying each wavelet to every forward target; a
  control wavelet advances the rule it passes;
* a processor runs its ops in program order, each as whole-slice numpy
  ops with the same combine ufunc as the vectorized backend.

Kahn's theorem makes the values on every channel independent of when
they move, so running the processes in any order that respects the
channels reproduces the simulator's buffers bit for bit.  The cycle
simulator is still what says *when*: :mod:`repro.core.api` simulates
one point of a plan and gives the plan's other points the timing of
that run plus buffers from this pass.

Processes run from a ready list: one is revisited only after a channel
it reads receives data.  Static routers (one unbounded rule, no control
wavelets in the schedule) are wires, and pushes go straight through
them to the process at the end.

The pass refuses with a :class:`ValuesRefused` carrying one of
:data:`REFUSALS` where the values could depend on timing or where it
cannot finish:

* ``sendrecv_overlap`` — a :class:`~repro.fabric.ir.SendRecv` whose
  send and receive ranges overlap (what is sent depends on how far the
  receive got);
* ``unsupported_combine`` — a combine callable with no ufunc mapping;
* ``no_progress`` — no process can move yet a processor is unfinished
  or a wavelet is left in a channel (a schedule the simulator would
  report as deadlocked or misrouted).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..obs import spans as _obs
from ..obs.metrics import METRICS
from .geometry import Port, opposite_port
from .ir import (
    K_SENDCTRL,
    Delay,
    Recv,
    RecvReduceSend,
    SampleClock,
    Schedule,
    Send,
    SendCtrl,
    SendRecv,
    lower_arrays,
)
from .vectorized import UnsupportedSchedule, combine_ufunc

__all__ = ["REFUSALS", "ValuesRefused", "final_buffers"]

#: Every reason the value pass may refuse a schedule.
REFUSALS = ("sendrecv_overlap", "unsupported_combine", "no_progress")

#: A control wavelet in a channel (never reaches a processor).
_CTRL = None


class ValuesRefused(Exception):
    """The value pass cannot give this schedule's buffers; ``reason`` is
    one of :data:`REFUSALS`."""

    def __init__(self, reason: str, detail: str = "") -> None:
        assert reason in REFUSALS, reason
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


class _Channel:
    """A FIFO of wavelet segments (float64 arrays, or ``_CTRL``)."""

    __slots__ = ("segs", "size", "reader")

    def __init__(self) -> None:
        self.segs: Deque = deque()
        #: data wavelets queued (control wavelets count zero).
        self.size = 0
        #: the process reading this channel, if any.
        self.reader = None


#: Where a push lands: the channels at the end of any wires in the way
#: (``None`` for a wavelet forwarded off the grid).
_Targets = Tuple[Optional[_Channel], ...]


def _push(targets: _Targets, seg, ready: Deque) -> None:
    for target in targets:
        if target is None:
            raise ValuesRefused("no_progress", "wavelet forwarded off the grid")
        target.segs.append(seg)
        if seg is not _CTRL:
            target.size += len(seg)
        reader = target.reader
        if reader is not None and not reader.queued:
            reader.queued = True
            ready.append(reader)


def _take(channel: _Channel, n: int) -> np.ndarray:
    """Pop the next ``n`` data wavelets (``n <= channel.size``)."""
    segs = channel.segs
    channel.size -= n
    parts: List[np.ndarray] = []
    while n:
        head = segs[0]
        if len(head) <= n:
            parts.append(segs.popleft())
            n -= len(head)
        else:
            parts.append(head[:n])
            segs[0] = head[n:]
            n = 0
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class _Router:
    """One color of one PE's router: a walk over its counted rules."""

    __slots__ = ("rules", "idx", "rem", "queued")

    def __init__(self, rules) -> None:
        #: (accept channel, data targets, control targets, count) per rule.
        self.rules = rules
        self.idx = 0
        self.rem = rules[0][3]
        self.queued = True

    def run(self, ready: Deque) -> None:
        rules, idx = self.rules, self.idx
        while idx < len(rules):
            channel, targets, ctrl_targets, _ = rules[idx]
            segs = channel.segs
            if not segs:
                break
            head = segs[0]
            if head is _CTRL:
                segs.popleft()
                _push(ctrl_targets, _CTRL, ready)
                idx += 1
                self.rem = rules[idx][3] if idx < len(rules) else None
                continue
            rem = self.rem
            if rem is not None and rem < len(head):
                seg = head[:rem]
                segs[0] = head[rem:]
            else:
                seg = segs.popleft()
            channel.size -= len(seg)
            _push(targets, seg, ready)
            if rem is not None:
                rem -= len(seg)
                self.rem = rem
                if rem == 0:
                    idx += 1
                    self.rem = rules[idx][3] if idx < len(rules) else None
        self.idx = idx


#: Processor step codes; Delay and SampleClock move no values and have
#: no step.
_SEND, _RECV, _RRS, _SENDRECV, _CTRL_SEND = range(5)


class _Processor:
    """One PE's processor: its ops in program order, as slices."""

    __slots__ = ("steps", "op", "progress", "sent", "buf", "ufunc", "queued")

    def __init__(self, steps, buf: np.ndarray, ufunc) -> None:
        #: (code, input channel, output targets, op) per value-moving op.
        self.steps = steps
        self.op = 0
        #: wavelets the current op has received so far.
        self.progress = 0
        #: the current SendRecv's send side has gone out (whole, at once).
        self.sent = False
        self.buf = buf
        self.ufunc = ufunc
        self.queued = True

    def run(self, ready: Deque) -> None:
        steps, buf = self.steps, self.buf
        while self.op < len(steps):
            code, inq, outq, op = steps[self.op]
            if code == _SENDRECV:
                if not self.sent:
                    lo = op.send_offset
                    _push(outq, buf[lo:lo + op.length].copy(), ready)
                    self.sent = True
                if not self._recv(inq, op.length, op.recv_offset, op.length,
                                  op.combine):
                    return
                self.sent = False
            elif code == _RECV:
                if not self._recv(inq, op.length * op.messages, op.offset,
                                  op.length, op.combine):
                    return
            elif code == _RRS:
                n = min(inq.size, op.length - self.progress)
                if not n:
                    return
                part = buf[op.offset + self.progress:][:n]
                self.ufunc(part, _take(inq, n), out=part)
                _push(outq, part.copy(), ready)
                self.progress += n
                if self.progress < op.length:
                    return
            elif code == _SEND:
                lo = op.offset
                _push(outq, buf[lo:lo + op.length].copy(), ready)
            else:
                _push(outq, _CTRL, ready)
            self.op += 1
            self.progress = 0

    def _recv(self, channel: _Channel, total: int, offset: int, length: int,
              combine: bool) -> bool:
        """Take what has arrived; True once all ``total`` wavelets have.
        Wavelet ``j`` lands at ``offset + j % length``."""
        n = min(channel.size, total - self.progress)
        if not n:
            return False
        vals = _take(channel, n)
        if n == total == length:    # the common case: one whole message
            part = self.buf[offset:offset + n]
            if combine:
                self.ufunc(part, vals, out=part)
            else:
                part[:] = vals
            return True
        at = 0
        while at < n:
            slot = (self.progress + at) % length
            m = min(n - at, length - slot)
            part = self.buf[offset + slot:offset + slot + m]
            got = vals if m == n else vals[at:at + m]
            if combine:
                self.ufunc(part, got, out=part)
            else:
                part[:] = got
            at += m
        self.progress += n
        return self.progress == total


def _step(op) -> Tuple[Optional[int], Optional[int], Optional[int]]:
    """``(step code, color received, color sent)`` of a processor op."""
    kind = type(op)
    if kind is SendRecv:
        return _SENDRECV, op.recv_color, op.send_color
    if kind is Recv:
        return _RECV, op.color, None
    if kind is RecvReduceSend:
        return _RRS, op.in_color, op.out_color
    if kind is Send:
        return _SEND, None, op.color
    if kind is SendCtrl:
        return _CTRL_SEND, None, op.color
    if kind is Delay or kind is SampleClock:
        return None, None, None
    raise TypeError(f"unknown op {op!r}")


def _network(schedule: Schedule, buffers: Dict[int, np.ndarray], ufunc):
    """The schedule's processes and channels, wired for one pass."""
    grid = schedule.grid
    channels: Dict[tuple, _Channel] = {}

    def channel(key: tuple) -> _Channel:
        found = channels.get(key)
        if found is None:
            found = channels[key] = _Channel()
        return found

    def forward_key(pe: int, out: int, color: int) -> Optional[tuple]:
        if out == Port.RAMP:
            return ("p", pe, color)
        nbr = grid.neighbor(pe, out)
        return None if nbr is None else ("r", nbr, opposite_port(out), color)

    # Wires are only sound while no control wavelet can advance a rule.
    has_ctrl = K_SENDCTRL in lower_arrays(schedule).kinds_present
    #: router input key -> forward keys, for routers that are plain wires.
    wires: Dict[tuple, List[Optional[tuple]]] = {}
    #: (pe, color, rules) of the routers that are processes.
    routed: List[tuple] = []
    for pe, prog in schedule.programs.items():
        for color, rule_list in prog.router.items():
            if not has_ctrl and len(rule_list) == 1 and rule_list[0].count is None:
                rule = rule_list[0]
                wires[("r", pe, rule.accept, color)] = [
                    forward_key(pe, out, color) for out in rule.forward]
            elif rule_list:
                routed.append((pe, color, rule_list))

    resolved: Dict[Optional[tuple], _Targets] = {}

    def ends(key: Optional[tuple], seen: frozenset = frozenset()) -> _Targets:
        """The channels a push into ``key`` lands in."""
        found = resolved.get(key)
        if found is not None:
            return found
        if key in wires and key not in seen:
            found = tuple(end for nxt in wires[key]
                          for end in ends(nxt, seen | {key}))
        else:
            found = (None if key is None else channel(key),)
        resolved[key] = found
        return found

    def targets(pe: int, color: int, ports) -> _Targets:
        return tuple(end for out in ports
                     for end in ends(forward_key(pe, out, color)))

    processes: List[object] = []
    for pe, color, rule_list in routed:
        wired: Dict[tuple, tuple] = {}
        rules = []
        for rule in rule_list:
            io = wired.get((rule.accept, rule.forward))
            if io is None:
                links = [out for out in rule.forward if out != Port.RAMP]
                io = wired[rule.accept, rule.forward] = (
                    channel(("r", pe, rule.accept, color)),
                    targets(pe, color, rule.forward),
                    targets(pe, color, links),
                )
            rules.append((*io, rule.count))
        router = _Router(rules)
        for channel_in, _, _ in wired.values():
            channel_in.reader = router
        processes.append(router)
    for pe, prog in schedule.programs.items():
        ported: Dict[tuple, tuple] = {}
        steps = []
        for op in prog.ops:
            code, recv, send = _step(op)
            if code is None:
                continue
            if code == _SENDRECV and _overlaps(op):
                raise ValuesRefused(
                    "sendrecv_overlap",
                    f"PE {pe}: send [{op.send_offset}, +{op.length}) "
                    f"overlaps receive [{op.recv_offset}, +{op.length})")
            io = ported.get((recv, send))
            if io is None:
                io = ported[recv, send] = (
                    None if recv is None else channel(("p", pe, recv)),
                    () if send is None else ends(("r", pe, Port.RAMP, send)),
                )
            steps.append((code, *io, op))
        if steps:
            proc = _Processor(steps, buffers[pe], ufunc)
            for inq, _ in ported.values():
                if inq is not None:
                    inq.reader = proc
            processes.append(proc)
    return processes, channels


def _overlaps(op: SendRecv) -> bool:
    return (op.send_offset < op.recv_offset + op.length
            and op.recv_offset < op.send_offset + op.length)


def _run(schedule: Schedule, inputs: Dict[int, np.ndarray],
         combine: Optional[Callable[[float, float], float]]
         ) -> Dict[int, np.ndarray]:
    try:
        ufunc = np.add if combine is None else combine_ufunc(combine)
    except UnsupportedSchedule as exc:
        raise ValuesRefused("unsupported_combine", str(exc)) from None
    size = max(schedule.buffer_size, 1)
    buffers = {pe: np.zeros(size) for pe in schedule.programs}
    for pe, vec in (inputs or {}).items():
        vec = np.asarray(vec, dtype=np.float64)
        if len(vec) > size:
            raise ValueError(f"input for PE {pe} longer than buffer "
                             f"({len(vec)} > {size})")
        if pe in buffers:
            buffers[pe][:len(vec)] = vec
    processes, channels = _network(schedule, buffers, ufunc)
    ready = deque(processes)
    while ready:
        process = ready.popleft()
        process.queued = False
        process.run(ready)
    stuck = [p for p in processes
             if isinstance(p, _Processor) and p.op < len(p.steps)]
    if stuck or any(c.segs for c in channels.values()):
        raise ValuesRefused(
            "no_progress",
            f"{len(stuck)} processor(s) unfinished in {schedule.name!r}")
    return buffers


def final_buffers(
    schedule: Schedule,
    inputs: Optional[Dict[int, np.ndarray]] = None,
    combine: Optional[Callable[[float, float], float]] = None,
) -> Dict[int, np.ndarray]:
    """The per-PE buffers a simulation of ``schedule`` ends with.

    Keys and shapes match :attr:`SimResult.buffers
    <repro.fabric.simulator.SimResult.buffers>`; ``combine`` is the
    simulator's (``None`` adds).  Raises :class:`ValuesRefused` when the
    pass cannot answer (see the module docstring).  When telemetry
    records, the pass is a ``fabric.values`` span and counts
    ``fabric.values.points`` or ``fabric.values.refused{reason}``.
    """
    if not _obs.enabled():
        return _run(schedule, inputs, combine)
    with _obs.span("fabric.values", schedule=schedule.name):
        try:
            buffers = _run(schedule, inputs, combine)
        except ValuesRefused as exc:
            METRICS.inc("fabric.values.refused", reason=exc.reason)
            raise
    METRICS.inc("fabric.values.points")
    return buffers
