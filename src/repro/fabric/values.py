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
  ops with the combine, a binary ufunc.

Kahn's theorem makes the values on every channel independent of when
they move, so running the processes in any order that respects the
channels gives the buffers any timing of the schedule would.  This pass
is the one value engine: both simulator backends are timing-only, and
:func:`~repro.fabric.simulator.simulate` runs this pass after either;
:mod:`repro.core.api` runs it alone for a plan's repeated points, with
the timing of the plan's first run.

Processes run from a ready list: one is revisited only after a channel
it reads receives data.  Static routers (one unbounded rule, no control
wavelets in the schedule) are wires, and pushes go straight through
them to the process at the end.

:func:`check` rejects, from the schedule alone, what has no defined
values: an op type the lowering does not know (``TypeError``), a
combine that is not a binary ufunc, a :class:`~repro.fabric.ir.SendRecv`
whose send and receive ranges overlap (what is sent would depend on how
far the receive got), and an op that reads or writes past its PE's
buffer (``ValueError``).  The pass raises :class:`ValuesRefused` when no
process can move yet a processor is unfinished or a wavelet is left in a
router channel: a schedule the simulator reports as deadlocked or
misrouted.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from ..obs import spans as _obs
from ..obs.metrics import METRICS
from .geometry import Port, opposite_port
from .ir import (
    K_SEND,
    K_SENDCTRL,
    K_SENDRECV,
    Recv,
    RecvReduceSend,
    Schedule,
    Send,
    SendCtrl,
    SendRecv,
    lower_arrays,
)

__all__ = ["ValuesRefused", "check", "final_buffers"]


def check(schedule: Schedule, combine: np.ufunc = np.add) -> None:
    """Raise unless the pass can give ``schedule``'s buffers under
    ``combine``: ``TypeError`` for an op type that
    :func:`~repro.fabric.ir.lower_arrays` does not know, ``ValueError``
    for a combine that is not a binary ufunc, an overlapping ``SendRecv``
    or an op past its buffer (see the module docstring)."""
    arr = lower_arrays(schedule)
    if not (isinstance(combine, np.ufunc) and combine.nin == 2
            and combine.nout == 1):
        raise ValueError(f"combine must be a binary numpy ufunc, "
                         f"got {combine!r}")
    kind, off, off2, length = arr.op_kind, arr.op_off, arr.op_off2, arr.op_len
    size = max(schedule.buffer_size, 1)
    moves = (kind >= K_SEND) & (kind <= K_SENDRECV)
    for bad, what in (
        ((kind == K_SENDRECV) & (off < off2 + length) & (off2 < off + length),
         "a SendRecv whose send and receive ranges overlap"),
        (moves & (np.maximum(off, off2) + length > size),
         f"an op past its {size}-wavelet buffer"),
    ):
        if bad.any():
            pe, op = np.argwhere(bad)[0]
            raise ValueError(f"schedule {schedule.name!r}: PE {pe} op {op} "
                             f"is {what}")


#: A control wavelet in a channel (never reaches a processor).
_CTRL = None


class ValuesRefused(Exception):
    """The pass cannot finish: the schedule deadlocks or misroutes."""


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
            raise ValuesRefused("wavelet forwarded off the grid")
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
    """``(step code, color received, color sent)`` of a processor op,
    dispatched like :func:`~repro.fabric.ir.lower_arrays` (subclasses
    run as their base op)."""
    if isinstance(op, SendRecv):
        return _SENDRECV, op.recv_color, op.send_color
    if isinstance(op, Recv):
        return _RECV, op.color, None
    if isinstance(op, RecvReduceSend):
        return _RRS, op.in_color, op.out_color
    if isinstance(op, Send):
        return _SEND, None, op.color
    if isinstance(op, SendCtrl):
        return _CTRL_SEND, None, op.color
    return None, None, None     # Delay, SampleClock (check() knows the rest)


def _ends(root: Optional[tuple], wires, resolved, channel) -> _Targets:
    """The channels a push into ``root`` lands in: through ``wires``
    (input key -> forward keys) to the first key that is not a wire,
    memoized in ``resolved``.  A wire that leads back onto the path being
    resolved ends there.  The walk keeps its own stack, since a row of
    wires is as deep as the grid is long."""
    on_path = set()
    stack = [(root, False)]
    while stack:
        key, expanded = stack.pop()
        if key in resolved:
            continue
        if expanded:
            resolved[key] = tuple(end for nxt in wires[key]
                                  for end in resolved[nxt])
        elif key in wires and key not in on_path:
            on_path.add(key)
            stack.append((key, True))
            stack.extend((nxt, False) for nxt in wires[key])
        else:
            resolved[key] = (None if key is None else channel(key),)
    return resolved[root]


def _network(schedule: Schedule, buffers: Dict[int, np.ndarray],
             ufunc: np.ufunc):
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

    def ends(key: Optional[tuple]) -> _Targets:
        return _ends(key, wires, resolved, channel)

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


def _run(schedule: Schedule, inputs: Optional[Dict[int, np.ndarray]],
         combine: np.ufunc) -> Dict[int, np.ndarray]:
    check(schedule, combine)
    size = max(schedule.buffer_size, 1)
    buffers = {pe: np.zeros(size) for pe in schedule.programs}
    for pe, vec in (inputs or {}).items():
        vec = np.asarray(vec, dtype=np.float64)
        if len(vec) > size:
            raise ValueError(f"input for PE {pe} longer than buffer "
                             f"({len(vec)} > {size})")
        if pe in buffers:
            buffers[pe][:len(vec)] = vec
    processes, channels = _network(schedule, buffers, combine)
    try:
        ready = deque(processes)
        while ready:
            process = ready.popleft()
            process.queued = False
            process.run(ready)
        stuck = [p for p in processes
                 if isinstance(p, _Processor) and p.op < len(p.steps)]
        # Wavelets left in a processor's ramp channel were never asked
        # for, which the simulator does not count as an error either.
        if stuck or any(channel.segs for key, channel in channels.items()
                        if key[0] == "r"):
            raise ValuesRefused(
                f"{len(stuck)} processor(s) unfinished in {schedule.name!r}")
    finally:
        # A channel and its reader refer to each other.  Unlinking them
        # lets reference counting free the processes, and the per-PE
        # buffers they hold, as soon as the pass returns instead of at
        # the next cyclic collection.
        for c in channels.values():
            c.reader = None
    return buffers


def final_buffers(
    schedule: Schedule,
    inputs: Optional[Dict[int, np.ndarray]] = None,
    combine: np.ufunc = np.add,
) -> Dict[int, np.ndarray]:
    """The per-PE buffers a simulation of ``schedule`` ends with.

    Keys and shapes match :attr:`SimResult.buffers
    <repro.fabric.simulator.SimResult.buffers>`; ``combine`` is the
    binary ufunc a combining receive applies.  Raises what
    :func:`check` raises, and :class:`ValuesRefused` when the pass
    cannot finish.  When telemetry records, the pass is a
    ``fabric.values`` span and counts ``fabric.values.points`` or
    ``fabric.values.refused``.
    """
    if not _obs.enabled():
        return _run(schedule, inputs, combine)
    with _obs.span("fabric.values", schedule=schedule.name):
        try:
            buffers = _run(schedule, inputs, combine)
        except ValuesRefused:
            METRICS.inc("fabric.values.refused")
            raise
    METRICS.inc("fabric.values.points")
    return buffers
