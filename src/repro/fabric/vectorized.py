"""Vectorized array-phase backend for the fabric simulator.

Represents the whole grid as flat ndarrays — router FIFO rings and link
staging slots over the ``[pe, port, lane]`` space, rule cursors and
processor in-queues over ``[pe, lane]``, op counters and ramp queues per
PE — and advances *all* PEs per cycle in four phase updates — drain ->
deliver -> route -> step-procs — instead of the reference simulator's
per-object dispatch.  Semantics are bit-identical to
:class:`~repro.fabric.simulator.FabricSimulator`; the reference stays the
oracle and any program this backend does not cover raises
:class:`UnsupportedSchedule` so the selector can fall back.

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
applied as a few array slice operations (values propagate through an
explicit flow graph of the active queues).  ``K`` is bounded so the
window ends strictly before any structural change (rule exhaustion, op
completion, message wrap, timer wake, queue maturity).  On strided 2D
grids this turns the long streaming phases of the collectives — the vast
majority of simulated cycles — into O(1) cycles of work, which is where
the 10-100x points/sec over the reference comes from.  The 1D pipelines
of the paper's figs 11-12 are mostly wavefronts, and where a cycle does
repeat, the window usually ends within a few cycles; so at 1x64 almost
every cycle is stepped and the two backends are within a small factor
of each other.  ``REPRO_SIM_STRIDE=0`` disables the stride path
(per-cycle core only), for debugging.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

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

__all__ = [
    "UnsupportedSchedule",
    "VectorizedSimulator",
    "combine_ufunc",
    "register_combine",
    "stride_enabled",
]


class UnsupportedSchedule(Exception):
    """Raised when a program is outside the vectorized backend's coverage.

    The backend selector catches this and falls back to the reference
    simulator; it must be raised at construction time, never mid-run.
    """


#: combine callables the backend can vectorize bit-identically.  Keyed by
#: identity; ``None`` (the default "sum") is handled separately.  Python's
#: ``max``/``min`` agree with the numpy ufuncs on all finite floats.
_VECTOR_COMBINES: Dict[int, np.ufunc] = {
    id(max): np.maximum,
    id(min): np.minimum,
}
_COMBINE_KEEPALIVE = [max, min]


def register_combine(fn: Callable[[float, float], float], ufunc: np.ufunc) -> None:
    """Register a scalar combine callable as vectorizable via ``ufunc``.

    The caller asserts bit-identical results on all inputs the schedules
    produce; unknown callables simply fall back to the reference backend.
    """
    _VECTOR_COMBINES[id(fn)] = ufunc
    _COMBINE_KEEPALIVE.append(fn)


def combine_ufunc(combine: Callable[[float, float], float]) -> np.ufunc:
    """The ufunc registered for ``combine``; raises
    :class:`UnsupportedSchedule` when there is none."""
    ufunc = _VECTOR_COMBINES.get(id(combine))
    if ufunc is None:
        raise UnsupportedSchedule(f"combine {combine!r} not vectorizable")
    return ufunc


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
    """Array-phase execution of one schedule (see module docstring)."""

    def __init__(
        self,
        schedule: Schedule,
        inputs: Dict[int, np.ndarray] | None = None,
        params: MachineParams = CS2,
        combine: Callable[[float, float], float] | None = None,
        fifo_capacity: int = 4,
        clock_offsets: Dict[int, int] | None = None,
        max_cycles: int = 50_000_000,
        tracer=None,
    ) -> None:
        if fifo_capacity < 1:
            raise ValueError("fifo_capacity must be >= 1")
        if tracer is not None:
            raise UnsupportedSchedule("tracer attached (reference only)")
        if params.ramp_latency < 1:
            raise UnsupportedSchedule("ramp_latency < 1 needs the reference event order")
        self._combine_ufunc: Optional[np.ufunc] = (
            None if combine is None else combine_ufunc(combine)  # None: +=
        )
        try:
            arr = lower_arrays(schedule)
        except TypeError as exc:
            raise UnsupportedSchedule(str(exc)) from None

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

        # Router FIFO rings per [pe, port, lane] (per-color virtual
        # channels), ``cap`` entries each; head and tail are flat positions.
        self.fval = np.zeros(NF * cap, dtype=np.float64)
        self.fctrl = np.zeros(NF * cap, dtype=bool)
        self.flen = np.zeros(NF, dtype=np.int64)
        self.fhead = np.arange(NF, dtype=np.int64) * cap
        self.ftail = self.fhead.copy()
        self.ring_next = np.arange(1, NF * cap + 1, dtype=np.int64)
        self.ring_next[cap - 1 :: cap] -= cap
        self._flen_ramp = self.flen.reshape(P, 5 * C)[:, :C]
        # Staged output slots per [pe, port, lane].
        self.sval = np.zeros(NF, dtype=np.float64)
        self.sctrl = np.zeros(NF, dtype=bool)
        self.socc = np.zeros(NF, dtype=bool)

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
        B = max(schedule.buffer_size, 1)
        O = arr.op_kind.shape[1]
        self.O = O
        self.buf = np.zeros((P, B), dtype=np.float64)
        self.buf1 = self.buf.reshape(-1)
        if inputs:
            for pe, vec in inputs.items():
                vec = np.asarray(vec, dtype=np.float64)
                if len(vec) > B:
                    raise ValueError(
                        f"input for PE {pe} longer than buffer "
                        f"({len(vec)} > {B})"
                    )
                self.buf[pe, : len(vec)] = vec
        op_pe = np.repeat(self.aP, O)
        self.op_kind = arr.op_kind.reshape(-1).astype(np.int64)
        self.op_len = arr.op_len.reshape(-1)
        self.op_total = arr.op_total.reshape(-1)
        self.op_comb = arr.op_combine.reshape(-1)
        self.op_lane1 = arr.op_c1.reshape(-1).astype(np.int64)
        self.op_lane2 = arr.op_c2.reshape(-1).astype(np.int64)
        self.op_buf = op_pe * B + arr.op_off.reshape(-1)
        self.op_buf2 = op_pe * B + arr.op_off2.reshape(-1)
        kinds = self.op_kind
        #: (pe, lane) in-queue each op consumes from, -1 for none.
        self.op_q = np.where(
            (kinds == K_RECV) | (kinds == K_RRS) | (kinds == K_SENDRECV),
            op_pe * C + np.where(kinds == K_SENDRECV, self.op_lane2, self.op_lane1),
            -1,
        )
        moves = (kinds >= K_SEND) & (kinds <= K_SENDRECV)
        reach = np.maximum(arr.op_off, arr.op_off2).reshape(-1) + self.op_len
        if (moves & (reach > B)).any():
            raise UnsupportedSchedule("an op reaches past its PE's buffer")
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

        # Processor in-queues per (pe, lane): rings of Q entries with
        # absolute head/tail counters (slot = counter % Q), grown on demand.
        self.Q = 32
        self.qval = np.zeros(NQ * self.Q, dtype=np.float64)
        self.qready = np.zeros(NQ * self.Q, dtype=np.int64)
        self.qhead = np.zeros(NQ, dtype=np.int64)
        self.qtail = np.zeros(NQ, dtype=np.int64)
        self._qfill = 0  # upper bound on the longest in-queue

        # Pending ramp-entry queue per pe (send -> router fifo, delayed by
        # 1 + T_R).  Sized exactly: a PE never emits more than emit_total.
        PQ = max(1, int(arr.emit_total.max()) if P else 1)
        self.pbase = self.aP * PQ
        self.pval = np.zeros(P * PQ, dtype=np.float64)
        self.pcol = np.zeros(P * PQ, dtype=np.int64)
        self.pctrl = np.zeros(P * PQ, dtype=bool)
        self.ptime = np.zeros(P * PQ, dtype=np.int64)
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
        # the signature — the apply-time flow-graph balance check enforces
        # it, which is what makes the window sound.
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
        # never re-checks.  When recording, the four phase methods (plus
        # the stride detector) are shadowed by timing wrappers on the
        # instance; when disabled the loop is untouched — zero cost.
        self._obs = _obs.enabled()
        self._phase_secs = [0.0] * len(_PHASE_NAMES)
        if self._obs:
            self._drain = self._timed_phase(self._drain, 0)
            self._deliver = self._timed_phase(self._deliver, 1)
            self._route = self._timed_phase(self._route, 2)
            self._procs = self._timed_phase(self._procs, 3)
            self._maybe_stride = self._timed_phase(self._maybe_stride, 4)

    def _timed_phase(self, fn, index: int):
        secs = self._phase_secs

        def timed(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                secs[index] += time.perf_counter() - t0
        return timed

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
        src = qi * old + slot
        dst = qi * newQ + ctr[live] % newQ
        nqval = np.zeros(len(self.qhead) * newQ, dtype=np.float64)
        nqready = np.zeros(len(self.qhead) * newQ, dtype=np.int64)
        nqval[dst] = self.qval[src]
        nqready[dst] = self.qready[src]
        self.qval, self.qready, self.Q = nqval, nqready, newQ

    def _push_fifo(self, f, vals, ctrl) -> None:
        """Append one wavelet to each FIFO in ``f`` (distinct, not full)."""
        pos = self.ftail[f]
        self.fval[pos] = vals
        if self._ctrl:
            self.fctrl[pos] = ctrl
        self.ftail[f] = self.ring_next[pos]

    def _push_queue(self, q, vals, ready: int) -> None:
        """Append one entry to each (distinct) in-queue in ``q``."""
        self._qfill += 1
        if self._qfill > self.Q:
            self._qfill = int((self.qtail - self.qhead).max()) + 1
            self._grow_q(self._qfill)
        t = self.qtail[q]
        pos = q * self.Q + t % self.Q
        self.qval[pos] = vals
        self.qready[pos] = ready
        self.qtail[q] = t + 1

    def _append_pending(self, idx, lanes, vals, cycle: int, ctrl=False) -> None:
        t = self.ptail[idx]
        slot = self.pbase[idx] + t
        self.pval[slot] = vals
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

    def _store(self, k, vals, combine) -> None:
        """Write (or combine, where ``combine``) ``vals`` into buffer slots ``k``."""
        n_cmb = np.count_nonzero(combine)
        if n_cmb < len(k):
            if n_cmb == 0:
                self.buf1[k] = vals
                return
            self.buf1[k[~combine]] = vals[~combine]
            k, vals = k[combine], vals[combine]
        if self._combine_ufunc is None:
            self.buf1[k] += vals
        else:
            self.buf1[k] = self._combine_ufunc(self.buf1[k], vals)

    def _queue_heads(self, q, cycle: int):
        """Head slot of each in-queue in ``q`` and whether it is ready."""
        hd = self.qhead[q]
        slot = q * self.Q + hd % self.Q
        ready = (hd < self.qtail[q]) & (self.qready[slot] <= cycle)
        return hd, slot, ready

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
            self._push_fifo(f, self.pval[slot],
                            self.pctrl[slot] if self._ctrl else None)
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
        self._push_fifo(dst, self.sval[s], self.sctrl[s] if self._ctrl else None)
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
        head = self.fhead[f]
        v = self.fval[head]
        self.fhead[f] = self.ring_next[head]
        self.flen[f] -= 1
        self.fifo_total -= n
        self._n_route = n
        ctrl = self.fctrl[head] if self._ctrl else None
        fwd = self.fwd_out[pc]
        rows, outs = fwd.nonzero()
        if len(rows):
            s = self.pc_out[pc[rows], outs]
            self.sval[s] = v[rows]
            self.socc[s] = True
            if ctrl is not None:
                self.sctrl[s] = ctrl[rows]
            self.staged_total += len(rows)
        ramp = self.fwd_ramp[pc]
        if ctrl is not None:
            ramp = ramp & ~ctrl
        n_ramp = np.count_nonzero(ramp)
        if n_ramp:
            if n_ramp < n:
                self._push_queue(pc[ramp], v[ramp], cycle + self.TR)
            else:
                self._push_queue(pc, v, cycle + self.TR)
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
        pr = self.prog[idx]
        self._append_pending(
            idx, self.op_lane1[ox], self.buf1[self.op_buf[ox] + pr], cycle
        )
        pr += 1
        self.prog[idx] = pr
        fin = pr >= self.op_len[ox]
        if np.count_nonzero(fin):
            self._advance_ops(idx[fin], cycle)
        self.sig_proc[idx] = K_SEND
        return len(idx)

    def _step_recv(self, idx, cycle: int) -> int:
        ox = self.ox[idx]
        q = self.op_q[ox]
        hd, slot, ready = self._queue_heads(q, cycle)
        n = np.count_nonzero(ready)
        if not n:
            return 0
        if n < len(idx):
            idx, ox, q, hd, slot = idx[ready], ox[ready], q[ready], hd[ready], slot[ready]
        self.qhead[q] = hd + 1
        pr = self.prog[idx]
        self._store(self.op_buf[ox] + pr % self.op_len[ox], self.qval[slot],
                    self.op_comb[ox])
        pr += 1
        self.prog[idx] = pr
        fin = pr >= self.op_total[ox]
        if np.count_nonzero(fin):
            self._advance_ops(idx[fin], cycle)
        self.sig_proc[idx] = K_RECV
        return n

    def _step_rrs(self, idx, cycle: int) -> int:
        ox = self.ox[idx]
        q = self.op_q[ox]
        hd, slot, ready = self._queue_heads(q, cycle)
        ready &= self._ramp_free()[idx]
        n = np.count_nonzero(ready)
        if not n:
            return 0
        if n < len(idx):
            idx, ox, q, hd, slot = idx[ready], ox[ready], q[ready], hd[ready], slot[ready]
        self.qhead[q] = hd + 1
        pr = self.prog[idx]
        k = self.op_buf[ox] + pr
        v = self.qval[slot]
        if self._combine_ufunc is None:
            out = self.buf1[k] + v
        else:
            out = self._combine_ufunc(self.buf1[k], v)
        self.buf1[k] = out
        self._append_pending(idx, self.op_lane2[ox], out, cycle)
        pr += 1
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
        # Send values are read before any same-cycle recv writes, exactly
        # like the reference's step order.
        sv = self.buf1[self.op_buf[ox] + np.minimum(sent, L - 1)]
        q = self.op_q[ox]
        hd, slot, ready = self._queue_heads(q, cycle)
        recv_m = (recvd < L) & ready
        if send_m.any():
            ids = idx[send_m]
            self._append_pending(ids, self.op_lane1[ox[send_m]], sv[send_m], cycle)
            sent = sent + send_m
        if recv_m.any():
            self.qhead[q[recv_m]] = hd[recv_m] + 1
            self._store(
                self.op_buf2[ox[recv_m]] + recvd[recv_m],
                self.qval[slot[recv_m]],
                self.op_comb[ox[recv_m]],
            )
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
        self._append_pending(idx, self.op_lane1[self.ox[idx]], 0.0, cycle, True)
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
        while True:
            if cycle > self.max_cycles:
                raise SimulationError(
                    f"exceeded max_cycles={self.max_cycles} "
                    f"(schedule {self.schedule.name!r})"
                )
            self._point_sigs()
            self._drain(cycle)
            progressed = self._deliver(cycle)
            progressed |= self._route(cycle)
            progressed |= self._procs(cycle)
            steps += 1
            if progressed:
                last_activity = cycle
                self.stepped_cycles, self.jumped_cycles = steps, jumped
                if self.stride:
                    k = self._maybe_stride(cycle)
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
            buffers={pe: self.buf[pe].copy() for pe in self.schedule.programs},
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
            # Lanes must be uniform (the flow graph carries one lane) and
            # the refilling emit must use that same lane: RecvReduceSend
            # emits on its out lane, every other op on its first lane.
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

    def _flow_balanced(self) -> bool:
        """Does this cycle's flow graph move every queue at matched rates?

        Each FIFO, staged slot and pending queue needs as many producers
        as consumers (else the constant-length snapshots would have
        diverged), and no queue may have more than one of either; the
        in-queues may legitimately grow or drain.  Keys: FIFOs, then
        staged slots, then pending queues, then in-queues.
        """
        C, NF = self.C, len(self.flen)
        p_key, q_key = 2 * NF, 2 * NF + self.P
        pushes, pops = [], []
        # drain: pending -> fifo[RAMP]
        pes = (self.sig_drain >= 0).nonzero()[0]
        pops.append(p_key + pes)
        pushes.append(pes * 5 * C + self.sig_drain[pes])
        # deliver: staged -> neighbour fifo
        pes, p4 = np.nonzero(self.sig_del >= 0)
        slots = (pes * 5 + p4 + 1) * C + self.sig_del[pes, p4]
        pops.append(NF + slots)
        pushes.append(self.s_dst[slots])
        # accept: fifo -> staged slots and/or the in-queue
        pes, ports = np.nonzero(self.sig_route >= 0)
        lanes = self.sig_route[pes, ports]
        pc = pes * C + lanes
        pops.append((pes * 5 + ports) * C + lanes)
        pushes.append(NF + self.pc_out[pc][self.fwd_out[pc]])
        pushes.append(q_key + pc[self.fwd_ramp[pc]])
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
        return bool(
            push.max() <= 1 and pop.max() <= 1
            and np.array_equal(push[:q_key], pop[:q_key])
        )

    def _stride_apply(self, t: int, K: int) -> bool:
        """Apply K repeats of this cycle's actions as bulk array ops."""
        nodes: List[dict] = []
        try:
            return self._stride_flow(t, K, nodes)
        finally:
            # Nodes, their queues and their closures refer to one another.
            # Clearing the nodes lets reference counting free the queues'
            # value arrays now instead of at the next cyclic collection.
            for node in nodes:
                node.clear()

    def _stride_flow(self, t: int, K: int, nodes: List[dict]) -> bool:
        """:meth:`_stride_apply`'s flow graph; appends its nodes to ``nodes``."""
        if not self._flow_balanced():
            return False
        TR, C, cap = self.TR, self.C, self.cap

        # Flow-graph queues: key -> dict with the value sequence array
        # seq[:L] = current contents, seq[L:L+K] filled by the producer.
        # Keys: ("f", fifo) / ("s", slot) over [pe, port, lane], ("p", pe)
        # and ("q", pe * C + lane).
        queues: Dict[tuple, dict] = {}

        def get_queue(key):
            q = queues.get(key)
            if q is not None:
                return q
            kind, i = key
            if kind == "f":
                L = int(self.flen[i])
                base = i * cap
                contents = self.fval[base + (self.fhead[i] - base + np.arange(L)) % cap]
            elif kind == "s":
                L = 1 if self.socc[i] else 0
                contents = self.sval[i : i + 1][:L]
            elif kind == "p":
                h = int(self.pbase[i] + self.phead[i])
                L = int(self.ptail[i] - self.phead[i])
                contents = self.pval[h : h + L]
            else:  # "q"
                h = int(self.qhead[i])
                L = int(self.qtail[i]) - h
                contents = self.qval[i * self.Q + (h + np.arange(L)) % self.Q]
            seq = np.empty(L + K, dtype=np.float64)
            seq[:L] = contents
            q = {"seq": seq, "L": L, "filled": 0, "producer": None,
                 "consumer": None, "pushes": 0, "pops": 0}
            queues[key] = q
            return q

        # Nodes: (process(lo, hi), in_queue or None).  Builders below
        # also validate stride-ineligible details and may abort.

        def add_node(fn, in_q, out_qs):
            node = {"fn": fn, "in": in_q, "outs": out_qs, "done": 0}
            nodes.append(node)
            if in_q is not None:
                in_q["consumer"] = node
                in_q["pops"] += 1
            for q in out_qs:
                q["producer"] = node
                q["pushes"] += 1
            return node

        def passthrough(node):
            def fn(lo, hi):
                seg = node["in"]["seq"][lo:hi]
                for q in node["outs"]:
                    q["seq"][q["L"] + lo : q["L"] + hi] = seg
                    q["filled"] = hi
            return fn

        # Drain nodes: pending -> fifo[RAMP].
        for pe in np.nonzero(self.sig_drain >= 0)[0].tolist():
            lane = int(self.sig_drain[pe])
            node = add_node(None, get_queue(("p", pe)),
                            [get_queue(("f", pe * 5 * C + lane))])
            node["fn"] = passthrough(node)

        # Deliver nodes: staged -> neighbor fifo.
        dpes, dp4 = np.nonzero(self.sig_del >= 0)
        del_slots = (dpes * 5 + dp4 + 1) * C + self.sig_del[dpes, dp4]
        for s in del_slots.tolist():
            node = add_node(None, get_queue(("s", s)),
                            [get_queue(("f", int(self.s_dst[s])))])
            node["fn"] = passthrough(node)

        # Accept nodes: fifo -> staged slots and/or the proc in-queue.
        rpes, rports = np.nonzero(self.sig_route >= 0)
        lanes = self.sig_route[rpes, rports]
        for pe, port, lane in zip(rpes.tolist(), rports.tolist(), lanes.tolist()):
            pc = pe * C + lane
            outs = [get_queue(("s", int(s)))
                    for s in self.pc_out[pc][self.fwd_out[pc]]]
            if self.fwd_ramp[pc]:
                outs.append(get_queue(("q", pc)))
            node = add_node(None, get_queue(("f", (pe * 5 + port) * C + lane)),
                            outs)
            node["fn"] = passthrough(node)

        # Processor nodes.
        buf = self.buf1
        for pe in np.nonzero(self.sig_proc > 0)[0].tolist():
            ox = int(self.ox[pe])
            kind = int(self.kind[pe])
            pr = int(self.prog[pe])
            if kind == K_SEND:
                off = int(self.op_buf[ox]) + pr
                outq = get_queue(("p", pe))
                vals = buf[off : off + K].copy()

                def send_fn(lo, hi, outq=outq, vals=vals):
                    outq["seq"][outq["L"] + lo : outq["L"] + hi] = vals[lo:hi]
                    outq["filled"] = hi
                add_node(send_fn, None, [outq])
            elif kind == K_RECV:
                ln = int(self.op_len[ox])
                k0 = int(self.op_buf[ox]) + pr % ln
                inq = get_queue(("q", int(self.op_q[ox])))
                cmb = bool(self.op_comb[ox])
                uf = self._combine_ufunc

                def recv_fn(lo, hi, k0=k0, inq=inq, cmb=cmb, uf=uf):
                    seg = inq["seq"][lo:hi]
                    dst = buf[k0 + lo : k0 + hi]
                    if not cmb:
                        dst[:] = seg
                    elif uf is None:
                        dst += seg
                    else:
                        uf(dst, seg, out=dst)
                add_node(recv_fn, inq, [])
            elif kind == K_RRS:
                k0 = int(self.op_buf[ox]) + pr
                inq = get_queue(("q", int(self.op_q[ox])))
                outq = get_queue(("p", pe))
                uf = self._combine_ufunc

                def rrs_fn(lo, hi, k0=k0, inq=inq, outq=outq, uf=uf):
                    seg = inq["seq"][lo:hi]
                    dst = buf[k0 + lo : k0 + hi]
                    if uf is None:
                        dst += seg
                    else:
                        uf(dst, seg, out=dst)
                    outq["seq"][outq["L"] + lo : outq["L"] + hi] = dst
                    outq["filled"] = hi
                add_node(rrs_fn, inq, [outq])
            elif kind == K_SENDRECV:
                L = int(self.op_len[ox])
                sent, recvd = divmod(pr, L + 1)
                code = int(self.sig_proc[pe])
                sending, recving = bool(code & 16), bool(code & 32)
                soff = int(self.op_buf[ox])
                roff = int(self.op_buf2[ox])
                if sending and recving:
                    # The seeded send values must not alias the recv
                    # writes; disjoint ranges or no stride.
                    s0, s1 = soff + sent, soff + sent + K
                    r0, r1 = roff + recvd, roff + recvd + K
                    if s0 < r1 and r0 < s1:
                        return False
                if sending:
                    outq = get_queue(("p", pe))
                    vals = buf[soff + sent : soff + sent + K].copy()

                    def sr_send(lo, hi, outq=outq, vals=vals):
                        outq["seq"][outq["L"] + lo : outq["L"] + hi] = vals[lo:hi]
                        outq["filled"] = hi
                    add_node(sr_send, None, [outq])
                if recving:
                    k0 = roff + recvd
                    inq = get_queue(("q", int(self.op_q[ox])))
                    cmb = bool(self.op_comb[ox])
                    uf = self._combine_ufunc

                    def sr_recv(lo, hi, k0=k0, inq=inq, cmb=cmb, uf=uf):
                        seg = inq["seq"][lo:hi]
                        dst = buf[k0 + lo : k0 + hi]
                        if not cmb:
                            dst[:] = seg
                        elif uf is None:
                            dst += seg
                        else:
                            uf(dst, seg, out=dst)
                    add_node(sr_recv, inq, [])
            else:
                return False

        # Propagate: each node consumes its input prefix as it becomes
        # available and extends its outputs; loops always cross at least
        # one occupied queue, so this converges.  Producers go before
        # their consumers (every node has at most one input), so outside
        # loops one round suffices.
        todo = []
        stack = [node for node in nodes
                 if node["in"] is None or node["in"]["producer"] is None]
        while stack:
            node = stack.pop()
            node["seen"] = True
            todo.append(node)
            stack.extend(q["consumer"] for q in node["outs"]
                         if q["consumer"] is not None)
        todo += [node for node in nodes if "seen" not in node]
        while todo:
            progress = False
            nxt = []
            for node in todo:
                inq = node["in"]
                avail = K if inq is None else min(K, inq["L"] + inq["filled"])
                if avail > node["done"]:
                    node["fn"](node["done"], avail)
                    node["done"] = avail
                    progress = True
                if node["done"] < K:
                    nxt.append(node)
            todo = nxt
            if todo and not progress:  # pragma: no cover - guarded by bounds
                raise SimulationError("stride propagation failed to converge")

        # -- write back final state -------------------------------------------
        for (kind, i), q in queues.items():
            if kind == "f":
                L = q["L"]
                base = i * cap
                self.fhead[i] = base
                self.ftail[i] = base + L % cap
                if L:
                    self.fval[base : base + L] = q["seq"][K : K + L]
            elif kind == "s":
                if q["L"]:
                    self.sval[i] = q["seq"][K]
            elif kind == "p":
                b = int(self.pbase[i])
                h, tl = b + int(self.phead[i]), b + int(self.ptail[i])
                L = tl - h
                lane = int(self.pcol[h]) if L else int(self.pcol[h - 1])
                self.pval[tl : tl + K] = q["seq"][L : L + K]
                self.pcol[tl : tl + K] = lane
                self.pctrl[tl : tl + K] = False
                self.ptime[tl : tl + K] = t + 2 + TR + np.arange(K)
                self.phead[i] += K
                self.ptail[i] += K
            else:  # "q"
                h, tl = int(self.qhead[i]), int(self.qtail[i])
                L = tl - h
                kpush = q["pushes"] * K
                kpop = q["pops"] * K
                Lf = L + kpush - kpop
                if Lf + 1 > self.Q:
                    self._grow_q(Lf + 1)
                Q = self.Q
                # Rebuild the live tail in place: entry j of the final
                # contents is concat(contents, pushed)[kpop + j].
                nh = h + kpop
                nt = tl + kpush
                if Lf:
                    src = kpop + np.arange(Lf)
                    ready = np.where(
                        src < L,
                        self.qready[i * Q + (h + np.minimum(src, max(L - 1, 0))) % Q],
                        t + (src - L) + 1 + TR,
                    )
                    pos = i * Q + (nh + np.arange(Lf)) % Q
                    self.qval[pos] = q["seq"][src]
                    self.qready[pos] = ready
                self.qhead[i] = nh
                self.qtail[i] = nt

        # -- counters, rules, op state -----------------------------------------
        self.energy += len(del_slots) * K
        if len(del_slots):
            self.link_loads[self.f_link[del_slots]] += K

        if len(rpes):
            pc = rpes * C + lanes
            rem = self.r_rem[pc]
            fin = rem > 0
            new_rem = np.where(fin, rem - K, rem)
            self.r_rem[pc] = new_rem
            adv = fin & (new_rem == 0)
            if adv.any():
                self._advance_rules(pc[adv])

        end = t + K
        for pe in np.nonzero(self.sig_proc > 0)[0].tolist():
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
