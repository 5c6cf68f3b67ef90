"""Vectorized array-phase backend for the fabric simulator: timing only.

Represents the whole grid as flat ndarrays — router FIFO occupancies and
link staging slots over the ``[pe, port, lane]`` space, rule cursors and
processor in-queues over ``[pe, lane]``, op counters and ramp queues per
PE — and advances *all* PEs per cycle in four phase updates — drain ->
deliver -> route -> step-procs — instead of the reference simulator's
per-object dispatch.  Its timing (cycles, energy, ramp counts, link
loads, completion, clock samples) is bit-identical to
:class:`~repro.fabric.simulator.FabricSimulator`, the timing oracle.

Like the reference, the stepper is timing-only: it moves wavelet counts
and arrival times, never payloads, because when a wavelet moves does not
depend on what it carries.  Its :class:`~repro.fabric.simulator.SimResult`
has empty ``buffers``; :func:`~repro.fabric.simulator.simulate` fills
them from the clock-free value pass
(:func:`~repro.fabric.values.final_buffers`), and decides beforehand
which runs go to the reference instead (``simulator.FALLBACKS``).

Each phase starts from one active index list (the occupied staging slots,
the non-empty FIFOs, the PEs with pending ramp entries, the PEs per op
kind) and works through 1-D gathers on static index maps that
:func:`~repro.fabric.ir.lower_arrays` builds once per schedule (the
destination FIFO of every staged slot, the (pe, color) of every FIFO,
every link id).  A stepped cycle therefore costs a fixed number of numpy
calls — roughly a hundred when every phase has work — nearly whatever the
grid size: at 1x64 that call count, not the PE count, sets the host time
per cycle.

On top of the per-cycle core sits a *stride* fast path: when two
consecutive cycles perform structurally identical actions (same accepts,
deliveries, drains and processor steps, same rule indices, constant
queue lengths, no control wavelets in flight), the steady state is
provably periodic with period one, and a whole window of ``K`` cycles is
applied as a few counter updates.  ``K`` is bounded so the window ends
strictly before any structural change (rule exhaustion, op completion,
message wrap, timer wake, queue maturity).  On strided 2D grids this
turns the long streaming phases of the collectives — the vast majority
of simulated cycles — into O(1) cycles of work, which is where the
10-100x points/sec over the reference comes from.  The 1D pipelines of
the paper's figs 11-12 are mostly wavefronts, and where a cycle does
repeat, the window usually ends within a few cycles; so at 1x64 almost
every cycle is stepped and the two backends are within a small factor
of each other.  ``REPRO_SIM_STRIDE=0`` disables the stride path
(per-cycle core only), for debugging.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np

from ..model.params import CS2, MachineParams
from ..obs import spans as _obs
from ..obs.metrics import METRICS
from .geometry import PORT_NAMES
from .ir import (
    K_DELAY,
    K_RECV,
    K_RRS,
    K_SAMPLE,
    K_SEND,
    K_SENDCTRL,
    K_SENDRECV,
    Schedule,
    lower_arrays,
)
from .simulator import DeadlockError, SimResult, SimulationError

__all__ = ["VectorizedSimulator", "stride_enabled"]


def stride_enabled() -> bool:
    from ..core import config as _config

    return _config.env_flag("REPRO_SIM_STRIDE", True)


#: minimum profitable stride window; shorter windows run per-cycle.
_MIN_STRIDE = 4

#: phase wall-time slots when telemetry records (index into _phase_secs).
_PHASE_NAMES = ("drain", "deliver", "route", "procs", "stride")

#: signature row per PE: route[5] | del[4] | drain | proc.
_SIG_W = 11


def _ragged(starts: np.ndarray, lens: np.ndarray):
    """Row and in-row offset of every element of ``len(lens)`` runs."""
    rows = np.repeat(np.arange(len(lens)), lens)
    firsts = np.cumsum(lens) - lens
    j = np.arange(len(rows)) - firsts[rows]
    return rows, j, starts[rows] + j


class VectorizedSimulator:
    """Array-phase timing of one schedule (see module docstring).

    Covers what :func:`~repro.fabric.simulator.simulate` sends it: no
    tracer, ``ramp_latency >= 1``, and the op types of
    :func:`~repro.fabric.ir.lower_arrays`.
    """

    def __init__(
        self,
        schedule: Schedule,
        params: MachineParams = CS2,
        fifo_capacity: int = 4,
        clock_offsets: Dict[int, int] | None = None,
        max_cycles: int = 50_000_000,
    ) -> None:
        if fifo_capacity < 1:
            raise ValueError("fifo_capacity must be >= 1")
        arr = lower_arrays(schedule)

        self.schedule = schedule
        self.grid = schedule.grid
        self.params = params
        self.cap = cap = fifo_capacity
        self.max_cycles = max_cycles
        self.clock_offsets = clock_offsets or {}
        self.arr = arr

        P = arr.n_pes
        C = arr.n_colors or 1
        NF = P * 5 * C  # slots of the [pe, port, lane] space
        NQ = P * C      # (pe, lane) pairs
        self.P, self.C = P, C
        self.TR = params.ramp_latency
        self.aP = np.arange(P)
        self._ctrl = K_SENDCTRL in arr.kinds_present

        # Static maps over the flat [pe, port, lane] space.
        self.f_pc, self.f_link, self.s_dst = arr.f_pc, arr.f_link, arr.s_dst
        self.f_port = self.f_link % 5
        self.f_lane = np.arange(NF) % C
        self.sig_route_at = self.f_link // 5 * _SIG_W + self.f_port
        self.sig_del_at = self.sig_route_at + 4
        pcs = np.arange(NQ)
        #: staged slot of each link port 1..4 of every (pe, lane): [NQ, 4].
        self.pc_out = (
            (pcs // C * 5)[:, None] + np.arange(1, 5)[None, :]
        ) * C + (pcs % C)[:, None]
        #: only a rule that forwards off the grid can stage off it.
        self._edge_check = bool(
            (arr.r_fwd[:, :, :, 1:5] & (arr.nbr[:, None, None, 1:5] < 0)).any()
        )

        # Router FIFO lengths per [pe, port, lane] (per-color virtual
        # channels, ``cap`` entries each) and staged output slots.  Only
        # control flags ride with a wavelet: in a ring of ``cap`` flags
        # per FIFO (head and tail are flat positions) and one per staged
        # slot, kept when the schedule sends control wavelets at all.
        self.flen = np.zeros(NF, dtype=np.int64)
        self._flen_ramp = self.flen.reshape(P, 5 * C)[:, :C]
        self.socc = np.zeros(NF, dtype=bool)
        if self._ctrl:
            self.fctrl = np.zeros(NF * cap, dtype=bool)
            self.fhead = np.arange(NF, dtype=np.int64) * cap
            self.ftail = self.fhead.copy()
            self.ring_next = np.arange(1, NF * cap + 1, dtype=np.int64)
            self.ring_next[cap - 1 :: cap] -= cap
            self.sctrl = np.zeros(NF, dtype=bool)

        # Router rule tables as rows ``pc * R + j``: each (pe, lane) has
        # its rules, then blank rows (accept -1, no forward, count 0) from
        # the first past its last, so advancing is a step to the next row.
        # The cursors: the active row, the remaining count (-1 =
        # unbounded, 0 = n/a), and the active rule's accept port and
        # forward set (refreshed on advancement).
        R = arr.r_accept.shape[2] + 1
        live = np.arange(R)[None, :] < arr.r_n.reshape(NQ, 1)
        pad = ((0, 0), (0, 1))
        self.r_acc = np.pad(arr.r_accept.reshape(NQ, -1).astype(np.int64),
                            pad, constant_values=-1).reshape(-1)
        self.r_cnt = np.where(
            live, np.pad(arr.r_count.reshape(NQ, -1), pad), 0
        ).reshape(-1)
        fwd = np.pad(arr.r_fwd.reshape(NQ, -1, 5), ((0, 0), (0, 1), (0, 0)))
        self.r_fout = np.ascontiguousarray(fwd[..., 1:5]).reshape(-1, 4)
        self.r_framp = fwd[..., 0].reshape(-1)
        self.r_row = pcs * R
        self.r_rem = self.r_cnt[self.r_row]
        self.acc_cur = self.r_acc[self.r_row]
        self.fwd_out = self.r_fout[self.r_row]
        self.fwd_ramp = self.r_framp[self.r_row]

        # Processor state; ``ox`` is each PE's current op as a flat index
        # into the op tables, ``kind`` its kind (0 once the program is done).
        O = arr.op_kind.shape[1]
        self.O = O
        op_pe = np.repeat(self.aP, O)
        self.op_kind = arr.op_kind.reshape(-1).astype(np.int64)
        self.op_len = arr.op_len.reshape(-1)
        self.op_total = arr.op_total.reshape(-1)
        self.op_lane1 = arr.op_c1.reshape(-1).astype(np.int64)
        self.op_lane2 = arr.op_c2.reshape(-1).astype(np.int64)
        kinds = self.op_kind
        #: (pe, lane) in-queue each op consumes from, -1 for none.
        self.op_q = np.where(
            (kinds == K_RECV) | (kinds == K_RRS) | (kinds == K_SENDRECV),
            op_pe * C + np.where(kinds == K_SENDRECV, self.op_lane2, self.op_lane1),
            -1,
        )
        self.n_ops = arr.n_ops.astype(np.int64)
        self.op_i = np.zeros(P, dtype=np.int64)
        self.obase = self.aP * O
        self.ox = self.obase.copy()
        self.kind = np.where(self.n_ops > 0, self.op_kind[self.ox], 0)
        self.prog = np.zeros(P, dtype=np.int64)
        self.wake = np.full(P, -1, dtype=np.int64)
        self.donec = np.full(P, -1, dtype=np.int64)
        # SendCtrl emits per PE: every other pending entry is a data send.
        self.ctrl_sent = np.zeros(P, dtype=np.int64)

        # Processor in-queues per (pe, lane): rings of Q ready times with
        # absolute head/tail counters (slot = counter % Q), grown on demand.
        self.Q = 32
        self.qready = np.zeros(NQ * self.Q, dtype=np.int64)
        self.qhead = np.zeros(NQ, dtype=np.int64)
        self.qtail = np.zeros(NQ, dtype=np.int64)
        self._qfill = 0  # upper bound on the longest in-queue

        # Pending ramp-entry queue per pe (send -> router fifo, delayed by
        # 1 + T_R): lane and entry time of each.  Sized exactly: a PE
        # never emits more than emit_total.
        PQ = max(1, int(arr.emit_total.max()) if P else 1)
        self.pbase = self.aP * PQ
        self.pcol = np.zeros(P * PQ, dtype=np.int64)
        self.ptime = np.zeros(P * PQ, dtype=np.int64)
        if self._ctrl:
            self.pctrl = np.zeros(P * PQ, dtype=bool)
        self.phead = np.zeros(P, dtype=np.int64)
        self.ptail = np.zeros(P, dtype=np.int64)

        self.energy = 0
        self.link_loads = np.zeros(P * 5, dtype=np.int64)  # [pe, port]
        self.clock_samples: Dict[str, Dict[int, int]] = {}
        self.ctrl_inflight = 0

        # Scalar occupancy counters for cheap phase early-exits.
        self.pend_total = 0
        self.staged_total = 0
        self.fifo_total = 0
        self._n_sleep = 0

        # Stride bookkeeping.  Action signatures live in a double buffer
        # (one row per PE: route[5] | del[4] | drain | proc); each cycle
        # resets the current half, the phases fill it, and the detector
        # compares the two halves.  Queue-length constancy is NOT part of
        # the signature — the apply-time balance check enforces it, which
        # is what makes the window sound.
        self.stride = stride_enabled()
        self.stride_windows = 0
        self.stride_cycles = 0
        self.stepped_cycles = 0
        self.jumped_cycles = 0
        self.sigbuf = np.full((2, P * _SIG_W), -1, dtype=np.int16)
        self._sig_blank = np.full(P * _SIG_W, -1, dtype=np.int16)
        self._sig_blank[_SIG_W - 1 :: _SIG_W] = 0
        self._sig_views = [self._views(half) for half in (0, 1)]
        self._flip = 0
        self._sig_valid = False
        self._prev_counts = None
        self._multi_drain = False
        self._cool = 0
        self._n_drain = 0
        self._n_del = 0
        self._n_route = 0
        self._n_proc = 0
        self._gate = None  # per-PE ramp room, computed once per _procs
        self._point_sigs()

        # Telemetry: decided once at construction so the per-cycle loop
        # never re-checks (see :meth:`_phases`).
        self._obs = _obs.enabled()
        self._phase_secs = [0.0] * len(_PHASE_NAMES)

    def _phases(self):
        """The four phase methods and the stride detector, in
        :data:`_PHASE_NAMES` order; when telemetry records, each wrapped
        to add its wall time to its slot.  The wrappers live only in the
        run loop, so the simulator holds no reference to itself."""
        phases = (self._drain, self._deliver, self._route, self._procs,
                  self._maybe_stride)
        if not self._obs:
            return phases
        secs = self._phase_secs

        def timed(fn, index):
            def run(*args):
                t0 = time.perf_counter()
                try:
                    return fn(*args)
                finally:
                    secs[index] += time.perf_counter() - t0
            return run
        return tuple(timed(fn, i) for i, fn in enumerate(phases))

    def _views(self, half: int):
        row = self.sigbuf[half]
        grid = row.reshape(self.P, _SIG_W)
        return row, grid[:, 0:5], grid[:, 5:9], grid[:, 9], grid[:, 10]

    def _point_sigs(self) -> None:
        """Point the signature views at this cycle's half and clear it."""
        (self.sig, self.sig_route, self.sig_del, self.sig_drain,
         self.sig_proc) = self._sig_views[self._flip]
        self.sig[:] = self._sig_blank

    # -- helpers ---------------------------------------------------------------

    def _grow_q(self, need: int) -> None:
        """Grow the in-queue rings to hold at least ``need`` entries."""
        old = newQ = self.Q
        while newQ < need:
            newQ *= 2
        if newQ == old:
            return
        # Ring slot s of queue i holds counter head + (s - head) % old,
        # live while below the tail.
        head = self.qhead[:, None]
        ctr = head + (np.arange(old)[None, :] - head) % old
        live = ctr < self.qtail[:, None]
        qi, slot = np.nonzero(live)
        nqready = np.zeros(len(self.qhead) * newQ, dtype=np.int64)
        nqready[qi * newQ + ctr[live] % newQ] = self.qready[qi * old + slot]
        self.qready, self.Q = nqready, newQ

    def _push_ctrl(self, f, ctrl) -> None:
        """Append a wavelet's control flag to each FIFO in ``f``
        (distinct, not full)."""
        pos = self.ftail[f]
        self.fctrl[pos] = ctrl
        self.ftail[f] = self.ring_next[pos]

    def _push_queue(self, q, ready: int) -> None:
        """Append one entry to each (distinct) in-queue in ``q``."""
        self._qfill += 1
        if self._qfill > self.Q:
            self._qfill = int((self.qtail - self.qhead).max()) + 1
            self._grow_q(self._qfill)
        t = self.qtail[q]
        self.qready[q * self.Q + t % self.Q] = ready
        self.qtail[q] = t + 1

    def _append_pending(self, idx, lanes, cycle: int, ctrl=False) -> None:
        t = self.ptail[idx]
        slot = self.pbase[idx] + t
        self.pcol[slot] = lanes
        self.ptime[slot] = cycle + 1 + self.TR
        if self._ctrl:
            self.pctrl[slot] = ctrl
        self.ptail[idx] = t + 1
        self.pend_total += len(idx)

    def _advance_rules(self, pc) -> None:
        """Activate the next rule for the (pe, lane) pairs given."""
        row = self.r_row[pc] + 1
        self.r_row[pc] = row
        self.acc_cur[pc] = self.r_acc[row]
        self.fwd_out[pc] = self.r_fout[row]
        self.fwd_ramp[pc] = self.r_framp[row]
        self.r_rem[pc] = self.r_cnt[row]

    def _advance_ops(self, idx, cycle: int) -> None:
        if len(idx) == 0:
            return
        oi = self.op_i[idx] + 1
        self.op_i[idx] = oi
        self.prog[idx] = 0
        ox = self.obase[idx] + np.minimum(oi, self.O - 1)
        self.ox[idx] = ox
        done = oi >= self.n_ops[idx]
        self.kind[idx] = np.where(done, 0, self.op_kind[ox])
        if np.count_nonzero(done):
            self.donec[idx[done]] = cycle

    def _queue_heads(self, q, cycle: int):
        """Head counter of each in-queue in ``q`` and whether it is ready."""
        hd = self.qhead[q]
        ready = (hd < self.qtail[q]) & (self.qready[q * self.Q + hd % self.Q] <= cycle)
        return hd, ready

    # -- phases ----------------------------------------------------------------

    def _drain(self, cycle: int) -> None:
        """Phase 0: mature pending ramp entries into fifo[RAMP]."""
        self._n_drain = 0
        self._multi_drain = False
        if self.pend_total == 0:
            return
        idx = (self.phead < self.ptail).nonzero()[0]
        first = True
        while len(idx):
            slot = self.pbase[idx] + self.phead[idx]
            times = self.ptime[slot]
            due = times <= cycle
            n = np.count_nonzero(due)
            if not n:
                return
            if n < len(idx):
                idx, slot, times = idx[due], slot[due], times[due]
            lanes = self.pcol[slot]
            f = idx * (5 * self.C) + lanes
            if self._ctrl:
                self._push_ctrl(f, self.pctrl[slot])
            self.flen[f] += 1
            self.phead[idx] += 1
            self.pend_total -= n
            self.fifo_total += n
            self._n_drain += n
            if first:
                self.sig_drain[idx] = lanes
                first = False
            else:
                # >1 drain per pe this cycle (post-jump backlog): the
                # stride signature cannot express it.
                self._multi_drain = True
            # A PE's pending times strictly increase, so only a head that
            # was overdue can leave a successor due this same cycle.
            late = times < cycle
            if not np.count_nonzero(late):
                return
            idx = idx[late]
            idx = idx[self.phead[idx] < self.ptail[idx]]

    def _deliver(self, cycle: int) -> bool:
        """Phase 1: staged wavelets cross links, one per link per cycle."""
        self._n_del = 0
        if self.staged_total == 0:
            return False
        s = self.socc.nonzero()[0]
        dst = self.s_dst[s]
        if self._edge_check:
            off = dst < 0
            if off.any():
                pe, port = divmod(int(self.f_link[s[off][0]]), 5)
                raise SimulationError(
                    f"PE {pe} staged a wavelet off the grid edge "
                    f"({PORT_NAMES[port]})"
                )
        fl = self.flen[dst]
        ok = fl < self.cap
        n = np.count_nonzero(ok)
        if not n:
            return False
        if n < len(s):
            s, dst, fl = s[ok], dst[ok], fl[ok]
        if self.C > 1 and n > 1:
            # One wavelet per link: the lowest eligible lane wins.
            link = self.f_link[s]
            first = np.empty(n, dtype=bool)
            first[0] = True
            np.not_equal(link[1:], link[:-1], out=first[1:])
            n = np.count_nonzero(first)
            if n < len(s):
                s, dst, fl = s[first], dst[first], fl[first]
        self.socc[s] = False
        if self._ctrl:
            self._push_ctrl(dst, self.sctrl[s])
        self.flen[dst] = fl + 1
        self.energy += n
        self.link_loads[self.f_link[s]] += 1
        self.sig[self.sig_del_at[s]] = self.f_lane[s]
        self.staged_total -= n
        self.fifo_total += n
        self._n_del = n
        return True

    def _route(self, cycle: int) -> bool:
        """Phase 2: routers accept one wavelet per input port."""
        self._n_route = 0
        if self.fifo_total == 0:
            return False
        f = self.flen.nonzero()[0]
        pc = self.f_pc[f]
        acc = self.acc_cur[pc]
        cand = acc == self.f_port[f]
        n = np.count_nonzero(cand)
        bad = None
        if n < len(f):
            unruled = acc < 0
            if np.count_nonzero(unruled):
                bad = f[unruled]
            f, pc = f[cand], pc[cand]
        if n:
            # A candidate waits while any slot its rule forwards to is full.
            busy = self.fwd_out[pc] & self.socc[self.pc_out[pc]]
            free = busy.view(np.uint32)[:, 0] == 0
            n = np.count_nonzero(free)
            if n < len(f):
                f, pc = f[free], pc[free]
        if bad is not None:
            self._raise_unrouted(bad, f)
        if not n:
            return False
        if self.C > 1 and n > 1:
            # One accept per input port: the lowest eligible lane wins.
            # (A (pe, lane) accepts on its one rule port only, so two
            # ports of a PE never pick the same lane.)
            link = self.f_link[f]
            first = np.empty(n, dtype=bool)
            first[0] = True
            np.not_equal(link[1:], link[:-1], out=first[1:])
            n = np.count_nonzero(first)
            if n < len(f):
                f, pc = f[first], pc[first]
        self.flen[f] -= 1
        self.fifo_total -= n
        self._n_route = n
        ctrl = None
        if self._ctrl:
            head = self.fhead[f]
            ctrl = self.fctrl[head]
            self.fhead[f] = self.ring_next[head]
        fwd = self.fwd_out[pc]
        rows, outs = fwd.nonzero()
        if len(rows):
            s = self.pc_out[pc[rows], outs]
            self.socc[s] = True
            if ctrl is not None:
                self.sctrl[s] = ctrl[rows]
            self.staged_total += len(rows)
        ramp = self.fwd_ramp[pc]
        if ctrl is not None:
            ramp = ramp & ~ctrl
        n_ramp = np.count_nonzero(ramp)
        if n_ramp:
            self._push_queue(pc[ramp] if n_ramp < n else pc, cycle + self.TR)
        # Rule advancement: ctrl unconditionally, else counted down.
        rem = self.r_rem[pc]
        if ctrl is None:
            self.r_rem[pc] = rem - (rem > 0)
            adv = rem == 1
        else:
            if ctrl.any():
                # control wavelets: one fifo entry became N staged copies
                # (absorbed at the ramp); track the in-flight population
                # for the stride eligibility check.
                self.ctrl_inflight += int(fwd[ctrl].sum()) - int(ctrl.sum())
            dec = (rem > 0) & ~ctrl
            self.r_rem[pc] = rem - dec
            adv = ctrl | (dec & (rem == 1))
        if np.count_nonzero(adv):
            self._advance_rules(pc[adv])
        self.sig[self.sig_route_at[f]] = self.f_lane[f]
        return True

    def _raise_unrouted(self, bad, elig) -> None:
        """Raise for a head with no active rule that its port reaches first.

        A port scans its lanes in ascending order; a no-rule lane raises
        unless an eligible lane comes before it on the same port.
        """
        first_elig: Dict[int, int] = {}
        for f in elig.tolist():
            first_elig.setdefault(f // self.C, f)
        for f in bad.tolist():
            link = f // self.C
            if f < first_elig.get(link, f + 1):
                pe, port = divmod(link, 5)
                raise SimulationError(
                    f"PE {pe}: wavelet of color "
                    f"{self.arr.colors[f % self.C]} arrived on "
                    f"{PORT_NAMES[port]} but no active rule exists "
                    f"(schedule {self.schedule.name!r})"
                )

    def _procs(self, cycle: int) -> bool:
        """Phase 3: each runnable processor steps its current op once."""
        self._n_proc = 0
        kind = self.kind
        if self._n_sleep:
            wake = self.wake
            expired = (wake >= 0) & (wake <= cycle)
            n_exp = np.count_nonzero(expired)
            if n_exp:
                wake[expired] = -1
                self._n_sleep -= n_exp
            if self._n_sleep:
                kind = np.where(wake > cycle, 0, kind)
        counts = np.bincount(kind, minlength=8).tolist()
        if counts[0] == self.P:
            return False
        # Every PE steps the op it held when the phase began.
        groups = [(step, (kind == k).nonzero()[0])
                  for k, step in self._STEPS if counts[k]]
        self._gate = None
        for step, idx in groups:
            self._n_proc += step(self, idx, cycle)
        return self._n_proc > 0

    def _ramp_free(self):
        """Per PE: may it emit this cycle (ramp FIFOs + pending < cap)?"""
        if self._gate is None:
            ramp = self._flen_ramp
            used = ramp[:, 0] if self.C == 1 else ramp.sum(1)
            self._gate = (used + self.ptail - self.phead) < self.cap
        return self._gate

    def _step_send(self, idx, cycle: int) -> int:
        idx = idx[self._ramp_free()[idx]]
        if not len(idx):
            return 0
        ox = self.ox[idx]
        self._append_pending(idx, self.op_lane1[ox], cycle)
        pr = self.prog[idx] + 1
        self.prog[idx] = pr
        fin = pr >= self.op_len[ox]
        if np.count_nonzero(fin):
            self._advance_ops(idx[fin], cycle)
        self.sig_proc[idx] = K_SEND
        return len(idx)

    def _step_recv(self, idx, cycle: int) -> int:
        ox = self.ox[idx]
        q = self.op_q[ox]
        hd, ready = self._queue_heads(q, cycle)
        n = np.count_nonzero(ready)
        if not n:
            return 0
        if n < len(idx):
            idx, ox, q, hd = idx[ready], ox[ready], q[ready], hd[ready]
        self.qhead[q] = hd + 1
        pr = self.prog[idx] + 1
        self.prog[idx] = pr
        fin = pr >= self.op_total[ox]
        if np.count_nonzero(fin):
            self._advance_ops(idx[fin], cycle)
        self.sig_proc[idx] = K_RECV
        return n

    def _step_rrs(self, idx, cycle: int) -> int:
        ox = self.ox[idx]
        q = self.op_q[ox]
        hd, ready = self._queue_heads(q, cycle)
        ready &= self._ramp_free()[idx]
        n = np.count_nonzero(ready)
        if not n:
            return 0
        if n < len(idx):
            idx, ox, q, hd = idx[ready], ox[ready], q[ready], hd[ready]
        self.qhead[q] = hd + 1
        self._append_pending(idx, self.op_lane2[ox], cycle)
        pr = self.prog[idx] + 1
        self.prog[idx] = pr
        fin = pr >= self.op_len[ox]
        if np.count_nonzero(fin):
            self._advance_ops(idx[fin], cycle)
        self.sig_proc[idx] = K_RRS
        return n

    def _step_sendrecv(self, idx, cycle: int) -> int:
        ox = self.ox[idx]
        L = self.op_len[ox]
        sent, recvd = np.divmod(self.prog[idx], L + 1)
        send_m = (sent < L) & self._ramp_free()[idx]
        q = self.op_q[ox]
        hd, ready = self._queue_heads(q, cycle)
        recv_m = (recvd < L) & ready
        if send_m.any():
            self._append_pending(idx[send_m], self.op_lane1[ox[send_m]], cycle)
            sent = sent + send_m
        if recv_m.any():
            self.qhead[q[recv_m]] = hd[recv_m] + 1
            recvd = recvd + recv_m
        self.prog[idx] = sent * (L + 1) + recvd
        fin = (sent >= L) & (recvd >= L)
        self._advance_ops(idx[fin], cycle)
        moved = send_m | recv_m
        n = np.count_nonzero(moved)
        if n:
            self.sig_proc[idx] = (K_SENDRECV + 16 * send_m + 32 * recv_m) * moved
        return n

    def _step_sendctrl(self, idx, cycle: int) -> int:
        idx = idx[self._ramp_free()[idx]]
        if not len(idx):
            return 0
        self._append_pending(idx, self.op_lane1[self.ox[idx]], cycle, True)
        self.ctrl_inflight += len(idx)
        self.ctrl_sent[idx] += 1
        self._advance_ops(idx, cycle)
        self.sig_proc[idx] = K_SENDCTRL
        return len(idx)

    def _step_delay(self, idx, cycle: int) -> int:
        cyc = self.op_len[self.ox[idx]]
        nz = cyc > 0
        self.wake[idx[nz]] = cycle + cyc[nz]
        self._n_sleep += int(nz.sum())
        self._advance_ops(idx, cycle)
        if nz.any():
            idz = idx[nz]
            nd = self.op_i[idz] >= self.n_ops[idz]
            # A trailing Delay completes at the wake, not at issue.
            if nd.any():
                self.donec[idz[nd]] = cycle + cyc[nz][nd]
                self.wake[idz[nd]] = -1
                self._n_sleep -= int(nd.sum())
        self.sig_proc[idx] = K_DELAY
        return len(idx)

    def _step_sample(self, idx, cycle: int) -> int:
        for pe, tag_id in zip(idx.tolist(), self.op_len[self.ox[idx]].tolist()):
            local = cycle + self.clock_offsets.get(pe, 0)
            self.clock_samples.setdefault(self.arr.tags[tag_id], {})[pe] = local
        self._advance_ops(idx, cycle)
        self.sig_proc[idx] = K_SAMPLE
        return len(idx)

    #: processor step per op kind, in the order the kinds run each cycle.
    _STEPS = (
        (K_SEND, _step_send), (K_RECV, _step_recv), (K_RRS, _step_rrs),
        (K_SENDRECV, _step_sendrecv), (K_SENDCTRL, _step_sendctrl),
        (K_DELAY, _step_delay), (K_SAMPLE, _step_sample),
    )

    # -- idle fast-forward ------------------------------------------------------

    def _next_event(self, cycle: int) -> Optional[int]:
        """Earliest strictly-future obligation (= the reference's heap)."""
        times = []
        if self.pend_total:
            idx = (self.phead < self.ptail).nonzero()[0]
            times.append(self.ptime[self.pbase[idx] + self.phead[idx]])
        q = (self.qtail > self.qhead).nonzero()[0]
        if len(q):
            times.append(self.qready[q * self.Q + self.qhead[q] % self.Q])
        if self._n_sleep:
            times.append(self.wake)
        best = None
        for t in times:
            fut = t[t > cycle]
            if len(fut):
                m = int(fut.min())
                best = m if best is None else min(best, m)
        return best

    # -- main loop --------------------------------------------------------------

    def run(self) -> SimResult:
        if not self._obs:
            return self._run()
        with _obs.span(
            "sim.run", backend="vectorized", schedule=self.schedule.name
        ) as sp:
            result = self._run()
            strided = int(self.stride_cycles)
            stepped = self.stepped_cycles
            jumped = self.jumped_cycles
            sp.add(cycles=result.cycles, stride_windows=self.stride_windows,
                   stride_cycles=strided)
            METRICS.inc("sim.cycles.strided", strided)
            METRICS.inc("sim.cycles.stepped", stepped)
            METRICS.inc("sim.cycles.jumped", jumped)
            _obs.counter_sample(
                "sim.cycles",
                {"stepped": stepped, "strided": strided, "jumped": jumped},
            )
            _obs.counter_sample("sim.phase.ms", {
                name: secs * 1e3
                for name, secs in zip(_PHASE_NAMES, self._phase_secs)
            })
            for name, secs in zip(_PHASE_NAMES, self._phase_secs):
                METRICS.inc("sim.phase.seconds", secs, phase=name)
        return result

    def _run(self) -> SimResult:
        cycle = 0
        last_activity = -1
        # Every cycle up to the last activity is stepped, strided or
        # jumped over by an idle fast-forward; count the first and last.
        steps = jumped = 0
        drain, deliver, route, procs, maybe_stride = self._phases()
        while True:
            if cycle > self.max_cycles:
                raise SimulationError(
                    f"exceeded max_cycles={self.max_cycles} "
                    f"(schedule {self.schedule.name!r})"
                )
            self._point_sigs()
            drain(cycle)
            progressed = deliver(cycle)
            progressed |= route(cycle)
            progressed |= procs(cycle)
            steps += 1
            if progressed:
                last_activity = cycle
                self.stepped_cycles, self.jumped_cycles = steps, jumped
                if self.stride:
                    k = maybe_stride(cycle)
                    if k:
                        cycle += k
                        last_activity = cycle
                cycle += 1
                continue
            self._sig_valid = False
            ne = self._next_event(cycle)
            if ne is None:
                break
            if ne > cycle + 1:
                jumped += ne - cycle - 1
                cycle = ne
            else:
                cycle += 1

        self._check_finished(last_activity)
        P = self.P
        return SimResult(
            cycles=last_activity + 1,
            energy=int(self.energy),
            buffers={},     # timing only: simulate() adds the values
            received=self.qhead.reshape(P, self.C).sum(1),
            sent=self.ptail - self.ctrl_sent,
            link_loads=self.link_loads.reshape(P, 5),
            clock_samples=self.clock_samples,
            completion=self.donec.copy(),
        )

    def _check_finished(self, last_activity: int) -> None:
        stuck = [int(pe) for pe in np.nonzero(self.op_i < self.n_ops)[0]]
        router_left = (
            self.flen.reshape(self.P, -1).any(-1)
            | self.socc.reshape(self.P, -1).any(-1)
        )
        leftover = [int(pe) for pe in np.nonzero(router_left)[0]]
        leftover += [int(pe) for pe in np.nonzero(self.phead < self.ptail)[0]]
        if stuck or leftover:
            details = []
            for pe in stuck[:8]:
                op = self.schedule.programs[pe].ops[int(self.op_i[pe])]
                details.append(
                    f"PE {pe} ({self.grid.coords(pe)}): stuck at op "
                    f"{int(self.op_i[pe])} {type(op).__name__} "
                    f"progress={int(self.prog[pe])}"
                )
            for pe in leftover[:8]:
                details.append(f"PE {pe}: undelivered wavelets in network")
            raise DeadlockError(
                f"schedule {self.schedule.name!r} deadlocked at cycle "
                f"{last_activity}:\n  " + "\n  ".join(details)
            )

    # -- stride fast path -------------------------------------------------------

    def _maybe_stride(self, cycle: int) -> int:
        """Detect a period-1 steady state and bulk-apply K cycles.

        Called after the phases of ``cycle`` completed with progress.
        Returns the number of cycles applied in bulk (0 = none).
        """
        counts = (self._n_drain, self._n_del, self._n_route, self._n_proc)
        prev_ok = self._sig_valid and counts == self._prev_counts
        self._prev_counts = counts
        self._sig_valid = True
        self._flip ^= 1  # next cycle fills the other sig buffer
        if (
            not prev_ok
            or self.ctrl_inflight != 0
            or self._multi_drain
            or cycle < self._cool
        ):
            return 0
        if self.sigbuf[0].tobytes() != self.sigbuf[1].tobytes():
            return 0
        k = self._stride_window(cycle)
        if k >= _MIN_STRIDE and self._stride_apply(cycle, k):
            self.stride_windows += 1
            self.stride_cycles += k
            self._qfill = int((self.qtail - self.qhead).max())
            if self._obs:
                METRICS.observe("sim.stride.window_cycles", k)
            self._sig_valid = False
            return k
        # Same signature will keep matching while the window stays too
        # short; don't re-derive it every cycle.
        self._cool = cycle + 4
        return 0

    def _stride_window(self, t: int) -> int:
        """Upper bound K such that cycles t+1..t+K repeat cycle t exactly.

        A result below ``_MIN_STRIDE`` means no window.
        """
        K = self.max_cycles - t
        if K <= 0:
            return 0
        C, TR = self.C, self.TR
        sig_route, sig_proc = self.sig_route, self.sig_proc

        # Rule exhaustion: an accepting (pe, lane) pair with a finite
        # remaining count switches rules after r_rem more accepts.
        rpes, rports = np.nonzero(sig_route >= 0)
        if len(rpes):
            rem = self.r_rem[rpes * C + sig_route[rpes, rports]]
            rem = rem[rem > 0]
            if len(rem):
                K = min(K, int(rem.min()))
                if K < _MIN_STRIDE:
                    return 0

        # Op completion / message-wrap bounds for acting processors.
        act = (sig_proc > 0).nonzero()[0]
        if len(act):
            kind = self.kind[act]
            # A PE that acted and finished its program, or whose op is a
            # Delay/SendCtrl/SampleClock, cannot repeat the action.
            if not ((kind >= K_SEND) & (kind <= K_SENDRECV)).all():
                return 0
            ox = self.ox[act]
            pr = self.prog[act]
            ln = self.op_len[ox]
            span = ln - pr  # Send / RecvReduceSend
            recv = kind == K_RECV
            if recv.any():
                span[recv] = np.minimum(
                    self.op_total[ox] - pr, ln - pr % ln
                )[recv]
            sr = kind == K_SENDRECV
            if sr.any():
                L = ln[sr]
                sent, recvd = np.divmod(pr[sr], L + 1)
                code = sig_proc[act][sr]
                big = np.iinfo(np.int64).max
                span[sr] = np.minimum(
                    np.where(code & 16, L - sent, big),
                    np.where(code & 32, L - recvd, big),
                )
            K = min(K, int(span.min()))
            if K < _MIN_STRIDE:
                return 0

        # Sleepers must not wake inside the window.
        wk = self.wake[self.wake > t]
        if len(wk):
            K = min(K, int(wk.min()) - t - 1)

        # Idle pending queues mature into a drain at their head time.
        pend = self.phead < self.ptail
        draining = self.sig_drain >= 0
        idle = (pend & ~draining).nonzero()[0]
        if len(idle):
            heads = self.ptime[self.pbase[idle] + self.phead[idle]]
            K = min(K, int((heads - t).min()) - 1)

        # Active pending queues: existing entries must stay mature under
        # the 1-pop-per-cycle schedule, and refills must keep pace.
        busy = (pend & draining).nonzero()[0]
        if len(busy):
            L = self.ptail[busy] - self.phead[busy]
            rows, j, slot = _ragged(self.pbase[busy] + self.phead[busy], L)
            late = self.ptime[slot] - j > t + 1
            if late.any():
                K = min(K, int(j[late].min()))
            acting = sig_proc[busy] > 0
            short = acting & (1 + TR > L)
            if short.any():
                K = min(K, int(L[short].min()))
            # Lanes must be uniform (the window refills a queue on one
            # lane) and the refilling emit must use that same lane:
            # RecvReduceSend emits on its out lane, every other op on its
            # first lane.
            lanes = self.pcol[slot]
            head_lane = lanes[np.cumsum(L) - L]
            if (lanes != head_lane[rows]).any():
                return 0
            if acting.any():
                ox = self.ox[busy[acting]]
                emit = np.where(self.op_kind[ox] == K_RRS,
                                self.op_lane2[ox], self.op_lane1[ox])
                if (emit != head_lane[acting]).any():
                    return 0
            if K < _MIN_STRIDE:
                return 0

        # Processor in-queues: consumers must stay fed and mature;
        # blocked consumers must stay blocked.
        pes = ((self.kind >= K_RECV) & (self.kind <= K_SENDRECV)).nonzero()[0]
        if len(pes):
            q = self.op_q[self.ox[pes]]
            h = self.qhead[q]
            L = self.qtail[q] - h
            code = sig_proc[pes]
            consuming = (code > 0) & (
                (self.kind[pes] != K_SENDRECV) | ((code & 32) != 0)
            )
            # Does this cycle's route phase push into the queue?
            lane = q % C
            pushing = (sig_route[pes] == lane[:, None]).any(1) & self.fwd_ramp[q]
            fed = consuming & (L > 0)
            if fed.any():
                rows, j, ctr = _ragged(h[fed], L[fed])
                ready = self.qready[q[fed][rows] * self.Q + ctr % self.Q]
                late = ready - j > t + 1
                if late.any():
                    K = min(K, int(j[late].min()))
            drained = consuming & (~pushing | (TR > L))
            if drained.any():
                K = min(K, int(L[drained].min()))
            waiting = ~consuming & (L > 0)
            if waiting.any():
                # A mature head with a non-consuming proc is blocked on
                # something structural (gate), which is constant.
                ready = self.qready[q[waiting] * self.Q + h[waiting] % self.Q]
                ready = ready[ready > t]
                if len(ready):
                    K = min(K, int(ready.min()) - t - 1)
            if (~consuming & (L == 0) & pushing).any():
                K = min(K, TR)
        return K

    def _stride_apply(self, t: int, K: int) -> bool:
        """Apply K repeats of this cycle's actions as bulk array ops.

        Each FIFO, staged slot and pending queue must have as many
        producers as consumers (else the constant-length snapshots would
        have diverged), and no queue may have more than one of either;
        the in-queues may legitimately grow or drain.  Keys of the push
        and pop counts: FIFOs, then staged slots, then pending queues,
        then in-queues.
        """
        C, NF, TR = self.C, len(self.flen), self.TR
        p_key, q_key = 2 * NF, 2 * NF + self.P
        pushes, pops = [], []
        # drain: pending -> fifo[RAMP]
        pes = (self.sig_drain >= 0).nonzero()[0]
        pops.append(p_key + pes)
        pushes.append(pes * 5 * C + self.sig_drain[pes])
        # deliver: staged -> neighbour fifo
        pes, p4 = np.nonzero(self.sig_del >= 0)
        del_slots = (pes * 5 + p4 + 1) * C + self.sig_del[pes, p4]
        pops.append(NF + del_slots)
        pushes.append(self.s_dst[del_slots])
        # accept: fifo -> staged slots and/or the in-queue
        rpes, rports = np.nonzero(self.sig_route >= 0)
        lanes = self.sig_route[rpes, rports]
        rpc = rpes * C + lanes
        pops.append((rpes * 5 + rports) * C + lanes)
        pushes.append(NF + self.pc_out[rpc][self.fwd_out[rpc]])
        pushes.append(q_key + rpc[self.fwd_ramp[rpc]])
        # processors: emit into the pending queue, take from the in-queue
        act = (self.sig_proc > 0).nonzero()[0]
        kind, code = self.kind[act], self.sig_proc[act]
        sr = kind == K_SENDRECV
        emits = (kind == K_SEND) | (kind == K_RRS) | (sr & ((code & 16) != 0))
        takes = (kind == K_RECV) | (kind == K_RRS) | (sr & ((code & 32) != 0))
        pushes.append(p_key + act[emits])
        pops.append(q_key + self.op_q[self.ox[act[takes]]])
        n = q_key + len(self.qhead)
        push = np.bincount(np.concatenate(pushes), minlength=n)
        pop = np.bincount(np.concatenate(pops), minlength=n)
        if not (push.max() <= 1 and pop.max() <= 1
                and np.array_equal(push[:q_key], pop[:q_key])):
            return False

        # Balanced FIFOs and staged slots end the window as they began:
        # same lengths, and (no control wavelet in flight) all data.
        # A balanced pending queue takes K emits and drains K entries.
        times = t + 2 + TR + np.arange(K)
        for pe in pop[p_key:q_key].nonzero()[0].tolist():
            b = int(self.pbase[pe])
            h, tl = b + int(self.phead[pe]), b + int(self.ptail[pe])
            self.pcol[tl : tl + K] = self.pcol[h if tl > h else h - 1]
            self.ptime[tl : tl + K] = times
            self.phead[pe] += K
            self.ptail[pe] += K
        # An in-queue gains K entries per push, the m-th maturing at
        # t + 1 + m + TR, and loses K per pop.
        qpush, qpop = push[q_key:], pop[q_key:]
        for i in (qpush + qpop).nonzero()[0].tolist():
            h, tl = int(self.qhead[i]), int(self.qtail[i])
            nh, nt = h + int(qpop[i]) * K, tl + int(qpush[i]) * K
            if nt - nh + 1 > self.Q:
                self._grow_q(nt - nh + 1)
            if nt > tl:
                ctr = np.arange(max(tl, nh), nt)
                self.qready[i * self.Q + ctr % self.Q] = ctr - tl + t + 1 + TR
            self.qhead[i] = nh
            self.qtail[i] = nt

        # -- counters, rules, op state -----------------------------------------
        self.energy += len(del_slots) * K
        if len(del_slots):
            self.link_loads[self.f_link[del_slots]] += K

        if len(rpc):
            rem = self.r_rem[rpc]
            fin = rem > 0
            new_rem = np.where(fin, rem - K, rem)
            self.r_rem[rpc] = new_rem
            adv = fin & (new_rem == 0)
            if adv.any():
                self._advance_rules(rpc[adv])

        end = t + K
        for pe in act.tolist():
            ox = int(self.ox[pe])
            if self.kind[pe] == K_SENDRECV:
                L = int(self.op_len[ox])
                sent, recvd = divmod(int(self.prog[pe]), L + 1)
                code = int(self.sig_proc[pe])
                if code & 16:
                    sent += K
                if code & 32:
                    recvd += K
                self.prog[pe] = sent * (L + 1) + recvd
                if sent >= L and recvd >= L:
                    self._advance_ops(np.array([pe]), end)
            else:
                self.prog[pe] += K
                if self.prog[pe] >= self.op_total[ox]:
                    self._advance_ops(np.array([pe]), end)
        return True
