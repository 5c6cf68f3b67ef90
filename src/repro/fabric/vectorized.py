"""Vectorized array-phase backend for the fabric simulator.

Represents the whole grid as dense ndarrays indexed ``[pe, port, lane]``
(router FIFO rings, link staging slots, processor op counters, ramp
queues) and advances *all* PEs per cycle in a handful of vectorized phase
updates — drain -> deliver -> route -> step-procs — instead of the
reference simulator's per-object dispatch.  Semantics are bit-identical
to :class:`~repro.fabric.simulator.FabricSimulator`; the reference stays
the oracle and any program this backend does not cover raises
:class:`UnsupportedSchedule` so the selector can fall back.

On top of the per-cycle core sits a *stride* fast path: when two
consecutive cycles perform structurally identical actions (same accepts,
deliveries, drains and processor steps, same rule indices, constant
queue lengths, no control wavelets in flight), the steady state is
provably periodic with period one, and a whole window of ``K`` cycles is
applied as a few array slice operations (values propagate through an
explicit flow graph of the active queues).  ``K`` is bounded so the
window ends strictly before any structural change (rule exhaustion, op
completion, message wrap, timer wake, queue maturity).  This turns the
long streaming phases of the collectives — the vast majority of
simulated cycles — into O(1) cycles of work, which is where the
10-100x points/sec comes from.  ``REPRO_SIM_STRIDE=0`` disables the
stride path (per-cycle core only), for debugging.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

import numpy as np

from ..model.params import CS2, MachineParams
from ..obs import spans as _obs
from ..obs.metrics import METRICS
from .geometry import PORT_NAMES, Port
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


_LINK4 = np.arange(1, 5)
#: opposite port for link ports 1..4 (W<->E, N<->S), indexed by port-1.
_OPP4 = np.array([Port.EAST, Port.WEST, Port.SOUTH, Port.NORTH], dtype=np.int64)
_PORTS5 = np.arange(5, dtype=np.int16)

#: minimum profitable stride window; shorter windows run per-cycle.
_MIN_STRIDE = 4

#: phase wall-time slots when telemetry records (index into _phase_secs).
_PHASE_NAMES = ("drain", "deliver", "route", "procs", "stride")


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
        self.cap = fifo_capacity
        self.max_cycles = max_cycles
        self.clock_offsets = clock_offsets or {}
        self.arr = arr

        P = arr.n_pes
        C = arr.n_colors or 1
        cap = fifo_capacity
        self.P, self.C = P, C
        self.TR = params.ramp_latency
        self.aP = np.arange(P)
        self.nbr = arr.nbr.astype(np.int64)

        # Router FIFO rings per (pe, port, color): per-color virtual channels.
        self.fval = np.zeros((P, 5, C, cap), dtype=np.float64)
        self.fctrl = np.zeros((P, 5, C, cap), dtype=bool)
        self.flen = np.zeros((P, 5, C), dtype=np.int64)
        self.fhead = np.zeros((P, 5, C), dtype=np.int64)
        # Staged output slots per (pe, port, color).
        self.sval = np.zeros((P, 5, C), dtype=np.float64)
        self.sctrl = np.zeros((P, 5, C), dtype=bool)
        self.socc = np.zeros((P, 5, C), dtype=bool)
        # Router rule cursors: current rule index, remaining count (-1 =
        # unbounded, 0 = n/a), and the gathered accept/forward of the
        # active rule (refreshed on advancement only).
        has0 = arr.r_n > 0
        self.r_idx = np.zeros((P, C), dtype=np.int64)
        self.r_rem = np.where(has0, arr.r_count[:, :, 0], 0)
        self.acc_cur = np.where(has0, arr.r_accept[:, :, 0], -1).astype(np.int16)
        self.fwd_cur = arr.r_fwd[:, :, 0, :] & has0[:, :, None]

        # Processor state.
        self.op_i = np.zeros(P, dtype=np.int64)
        self.prog = np.zeros(P, dtype=np.int64)
        self.wake = np.full(P, -1, dtype=np.int64)
        self.donec = np.full(P, -1, dtype=np.int64)
        self.recv_ct = np.zeros(P, dtype=np.int64)
        self.sent_ct = np.zeros(P, dtype=np.int64)
        self.buf = np.zeros((P, max(schedule.buffer_size, 1)), dtype=np.float64)
        if inputs:
            for pe, vec in inputs.items():
                vec = np.asarray(vec, dtype=np.float64)
                if len(vec) > self.buf.shape[1]:
                    raise ValueError(
                        f"input for PE {pe} longer than buffer "
                        f"({len(vec)} > {self.buf.shape[1]})"
                    )
                self.buf[pe, : len(vec)] = vec

        # Processor in-queues per (pe, color): ring with absolute
        # head/tail counters (slot = counter % Q), grown on demand.
        self.Q = 32
        self.qval = np.zeros((P, C, self.Q), dtype=np.float64)
        self.qready = np.zeros((P, C, self.Q), dtype=np.int64)
        self.qhead = np.zeros((P, C), dtype=np.int64)
        self.qtail = np.zeros((P, C), dtype=np.int64)

        # Pending ramp-entry queue per pe (send -> router fifo, delayed by
        # 1 + T_R).  Sized exactly: a PE never emits more than emit_total.
        PQ = max(1, int(arr.emit_total.max()) if P else 1)
        self.PQ = PQ
        self.pval = np.zeros((P, PQ), dtype=np.float64)
        self.pcol = np.zeros((P, PQ), dtype=np.int16)
        self.pctrl = np.zeros((P, PQ), dtype=bool)
        self.ptime = np.zeros((P, PQ), dtype=np.int64)
        self.phead = np.zeros(P, dtype=np.int64)
        self.ptail = np.zeros(P, dtype=np.int64)

        self.energy = 0
        self.link_loads = np.zeros((P, 5), dtype=np.int64)
        self.clock_samples: Dict[str, Dict[int, int]] = {}
        self.ctrl_inflight = 0

        # Scalar occupancy counters for cheap phase early-exits.
        self.pend_total = 0
        self.staged_total = 0
        self.fifo_total = 0
        self._n_sleep = 0

        # Stride bookkeeping.  Action signatures live in a double buffer
        # (one row layout: route[5] | del[4] | drain | proc); each cycle
        # the phases fill the current half via the ``sig_*`` views and the
        # detector compares the two halves with a single array_equal.
        # Queue-length constancy is NOT part of the signature — the
        # apply-time flow-graph balance check enforces it, which is what
        # makes the window sound.
        self.stride = stride_enabled()
        self.stride_windows = 0
        self.stride_cycles = 0
        self.sigbuf = np.full((2, P, 11), -1, dtype=np.int16)
        self._flip = 0
        self._sig_valid = False
        self._prev_counts = None
        self._multi_drain = False
        self._cool = 0
        self._n_drain = 0
        self._n_del = 0
        self._n_route = 0
        self._n_proc = 0
        # Views into sigbuf[flip], re-pointed at the top of each cycle.
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

    def _point_sigs(self) -> None:
        cur = self.sigbuf[self._flip]
        self.sig_route = cur[:, 0:5]
        self.sig_del = cur[:, 5:9]
        self.sig_drain = cur[:, 9]
        self.sig_proc = cur[:, 10]

    # -- helpers ---------------------------------------------------------------

    def _grow_q(self, need: int) -> None:
        """Grow the in-queue rings to hold at least ``need`` entries."""
        newQ = self.Q
        while newQ < need:
            newQ *= 2
        if newQ == self.Q:
            return
        P, C = self.P, self.C
        nqval = np.zeros((P, C, newQ), dtype=np.float64)
        nqready = np.zeros((P, C, newQ), dtype=np.int64)
        for pe in range(P):
            for c in range(C):
                h, t = self.qhead[pe, c], self.qtail[pe, c]
                if t > h:
                    idx = np.arange(h, t)
                    nqval[pe, c, idx % newQ] = self.qval[pe, c, idx % self.Q]
                    nqready[pe, c, idx % newQ] = self.qready[pe, c, idx % self.Q]
        self.qval, self.qready, self.Q = nqval, nqready, newQ

    def _append_pending(self, idx, c, vals, ctrl: bool, cycle: int) -> None:
        t = self.ptail[idx]
        self.pval[idx, t] = vals
        self.pcol[idx, t] = c
        self.pctrl[idx, t] = ctrl
        self.ptime[idx, t] = cycle + 1 + self.TR
        self.ptail[idx] = t + 1
        self.pend_total += len(idx)

    def _advance_rules(self, ap, ac) -> None:
        """Activate the next rule for the (pe, color) pairs given."""
        ni = self.r_idx[ap, ac] + 1
        self.r_idx[ap, ac] = ni
        has = ni < self.arr.r_n[ap, ac]
        nic = np.minimum(ni, self.arr.r_accept.shape[2] - 1)
        self.acc_cur[ap, ac] = np.where(has, self.arr.r_accept[ap, ac, nic], -1)
        self.fwd_cur[ap, ac] = self.arr.r_fwd[ap, ac, nic] & has[:, None]
        self.r_rem[ap, ac] = np.where(has, self.arr.r_count[ap, ac, nic], 0)

    def _advance_ops(self, idx, cycle: int) -> None:
        if len(idx) == 0:
            return
        self.op_i[idx] += 1
        self.prog[idx] = 0
        nd = self.op_i[idx] >= self.arr.n_ops[idx]
        if nd.any():
            self.donec[idx[nd]] = cycle

    # -- phases ----------------------------------------------------------------

    def _drain(self, cycle: int) -> None:
        """Phase 0: mature pending ramp entries into fifo[RAMP]."""
        self.sig_drain.fill(-1)
        self._n_drain = 0
        self._multi_drain = False
        if self.pend_total == 0:
            return
        first = True
        while True:
            has = self.phead < self.ptail
            if not has.any():
                return
            h = np.where(has, self.phead, 0)
            due = has & (self.ptime[self.aP, h] <= cycle)
            if not due.any():
                return
            idx = np.nonzero(due)[0]
            hh = self.phead[idx]
            c = self.pcol[idx, hh].astype(np.int64)
            v = self.pval[idx, hh]
            ct = self.pctrl[idx, hh]
            fl = self.flen[idx, 0, c]
            pos = (self.fhead[idx, 0, c] + fl) % self.cap
            self.fval[idx, 0, c, pos] = v
            self.fctrl[idx, 0, c, pos] = ct
            self.flen[idx, 0, c] = fl + 1
            self.phead[idx] = hh + 1
            self.pend_total -= len(idx)
            self.fifo_total += len(idx)
            self._n_drain += len(idx)
            if first:
                self.sig_drain[idx] = c
                first = False
            else:
                # >1 drain per pe this cycle (post-jump backlog): the
                # stride signature cannot express it.
                self._multi_drain = True

    def _deliver(self, cycle: int) -> bool:
        """Phase 1: staged wavelets cross links, one per link per cycle."""
        self.sig_del.fill(-1)
        self._n_del = 0
        if self.staged_total == 0:
            return False
        occ4 = self.socc[:, 1:5, :]
        nbr4 = self.nbr[:, 1:5]
        edge = (nbr4 < 0)[:, :, None] & occ4
        if edge.any():
            pe, p4, _ = np.argwhere(edge)[0]
            raise SimulationError(
                f"PE {pe} staged a wavelet off the grid edge "
                f"({PORT_NAMES[p4 + 1]})"
            )
        nbr_safe = np.maximum(nbr4, 0)
        flen_n = self.flen[nbr_safe, _OPP4[None, :], :]  # [P,4,C]
        elig = occ4 & (flen_n < self.cap)
        any_p = elig.any(-1)
        if not any_p.any():
            return False
        csel = elig.argmax(-1)
        pes, p4 = np.nonzero(any_p)
        c = csel[pes, p4]
        port = p4 + 1
        v = self.sval[pes, port, c]
        ct = self.sctrl[pes, port, c]
        self.socc[pes, port, c] = False
        dst = self.nbr[pes, port]
        ip = _OPP4[p4]
        fl = self.flen[dst, ip, c]
        pos = (self.fhead[dst, ip, c] + fl) % self.cap
        self.fval[dst, ip, c, pos] = v
        self.fctrl[dst, ip, c, pos] = ct
        self.flen[dst, ip, c] = fl + 1
        self.energy += len(pes)
        self.link_loads[pes, port] += 1
        self.sig_del[pes, p4] = c
        self.staged_total -= len(pes)
        self.fifo_total += len(pes)
        self._n_del = len(pes)
        return True

    def _route(self, cycle: int) -> bool:
        """Phase 2: routers accept one wavelet per input port."""
        self.sig_route.fill(-1)
        self._n_route = 0
        if self.fifo_total == 0:
            return False
        heads = self.flen > 0  # [P,5,C]
        acc = self.acc_cur  # [P,C]
        cand = heads & (acc[:, None, :] == _PORTS5[None, :, None])
        blocked = (
            self.fwd_cur[:, :, 1:5] & self.socc.transpose(0, 2, 1)[:, :, 1:5]
        ).any(-1)  # [P,C]
        elig = cand & ~blocked[:, None, :]
        elig_any = elig.any(-1)
        bad = heads & (acc < 0)[:, None, :]
        if bad.any():
            bad_any = bad.any(-1)
            raise_mask = bad_any & (
                ~elig_any | (bad.argmax(-1) < elig.argmax(-1))
            )
            if raise_mask.any():
                pe, p = np.argwhere(raise_mask)[0]
                c = int(bad[pe, p].argmax())
                raise SimulationError(
                    f"PE {pe}: wavelet of color {self.arr.colors[c]} arrived "
                    f"on {PORT_NAMES[p]} but no active rule exists "
                    f"(schedule {self.schedule.name!r})"
                )
        if not elig_any.any():
            return False
        csel = elig.argmax(-1)
        pes, ports = np.nonzero(elig_any)
        c = csel[pes, ports]
        if len(pes) > 1:
            key = (pes * self.C + c).tolist()
            if len(set(key)) < len(key):
                # Two ports of one PE picked the same color: the reference
                # accepts only the lowest port (same-color accept guard)
                # and the later port falls through to its next candidate.
                pes, ports, c = self._route_guarded(heads, elig)
        h = self.fhead[pes, ports, c]
        v = self.fval[pes, ports, c, h]
        ct = self.fctrl[pes, ports, c, h]
        self.fhead[pes, ports, c] = (h + 1) % self.cap
        self.flen[pes, ports, c] -= 1
        self.fifo_total -= len(pes)
        self._n_route = len(pes)
        F = self.fwd_cur[pes, c]  # [n,5]
        si, so = np.nonzero(F[:, 1:5])
        if len(si):
            sp = so + 1
            self.sval[pes[si], sp, c[si]] = v[si]
            self.sctrl[pes[si], sp, c[si]] = ct[si]
            self.socc[pes[si], sp, c[si]] = True
            self.staged_total += len(si)
        ramp = F[:, 0] & ~ct
        if ramp.any():
            rp, rc = pes[ramp], c[ramp]
            if ((self.qtail[rp, rc] - self.qhead[rp, rc]) + 1 > self.Q).any():
                self._grow_q(
                    int((self.qtail - self.qhead).max()) + 1
                )
            pos = self.qtail[rp, rc] % self.Q
            self.qval[rp, rc, pos] = v[ramp]
            self.qready[rp, rc, pos] = cycle + self.TR
            self.qtail[rp, rc] += 1
        if ct.any():
            # control wavelets: one fifo entry became N staged copies
            # (absorbed at the ramp); track the in-flight population for
            # the stride eligibility check.
            self.ctrl_inflight += int((F[ct, 1:5].sum()) - ct.sum())
        # Rule advancement: ctrl unconditionally, else counted down.
        rem = self.r_rem[pes, c]
        dec = ~ct & (rem > 0)
        new_rem = np.where(dec, rem - 1, rem)
        self.r_rem[pes, c] = new_rem
        adv = ct | (dec & (new_rem == 0))
        if adv.any():
            self._advance_rules(pes[adv], c[adv])
        self.sig_route[pes, ports] = c
        return True

    def _route_guarded(self, heads, elig):
        """Port-ordered accepts under the same-color cross-port guard.

        Replicates the reference scan: ports in ascending order, colors in
        ascending order per port, skipping colors already accepted at this
        PE by an earlier port this cycle (the skipped port may then accept
        its next eligible color).  A no-rule color still raises if the
        scan reaches it before an accept.
        """
        mask = np.zeros((self.P, self.C), dtype=bool)
        bad = heads & (self.acc_cur < 0)[:, None, :]
        out_pes, out_ports, out_cs = [], [], []
        for port in range(5):
            ep = elig[:, port, :] & ~mask
            any_p = ep.any(-1)
            bp = bad[:, port, :]
            if bp.any():
                bad_any = bp.any(-1)
                rm = bad_any & (~any_p | (bp.argmax(-1) < ep.argmax(-1)))
                if rm.any():
                    pe = int(rm.argmax())
                    cc = int(bp[pe].argmax())
                    raise SimulationError(
                        f"PE {pe}: wavelet of color {self.arr.colors[cc]} "
                        f"arrived on {PORT_NAMES[port]} but no active rule "
                        f"exists (schedule {self.schedule.name!r})"
                    )
            if not any_p.any():
                continue
            cp = ep.argmax(-1)
            ps = np.nonzero(any_p)[0]
            cs = cp[ps]
            mask[ps, cs] = True
            out_pes.append(ps)
            out_ports.append(np.full(len(ps), port, dtype=np.int64))
            out_cs.append(cs)
        return (
            np.concatenate(out_pes),
            np.concatenate(out_ports),
            np.concatenate(out_cs),
        )

    def _procs(self, cycle: int) -> bool:
        """Phase 3: each runnable processor steps its current op once."""
        self.sig_proc.fill(0)
        self._n_proc = 0
        if self._n_sleep:
            expired = (self.wake >= 0) & (self.wake <= cycle)
            n_exp = int(expired.sum())
            if n_exp:
                self.wake[expired] = -1
                self._n_sleep -= n_exp
        done = self.op_i >= self.arr.n_ops
        if self._n_sleep:
            runnable = ~done & (self.wake <= cycle)
        else:
            runnable = ~done
        if not runnable.any():
            return False
        a = self.arr
        O = a.op_kind.shape[1]
        oi = np.minimum(self.op_i, O - 1)
        kind = np.where(runnable, a.op_kind[self.aP, oi], 0)
        gate = (
            self.flen[:, 0, :].sum(-1) + (self.ptail - self.phead)
        ) < self.cap
        progressed = False
        kp = a.kinds_present

        if K_SEND in kp:
            m = (kind == K_SEND) & gate
            if m.any():
                idx = np.nonzero(m)[0]
                o = oi[idx]
                c = a.op_c1[idx, o].astype(np.int64)
                pr = self.prog[idx]
                v = self.buf[idx, a.op_off[idx, o] + pr]
                self._append_pending(idx, c, v, False, cycle)
                self.sent_ct[idx] += 1
                pr = pr + 1
                self.prog[idx] = pr
                fin = pr >= a.op_len[idx, o]
                self._advance_ops(idx[fin], cycle)
                self.sig_proc[idx] = K_SEND
                self._n_proc += len(idx)
                progressed = True

        if K_RECV in kp:
            m = kind == K_RECV
            if m.any():
                idx0 = np.nonzero(m)[0]
                o = oi[idx0]
                c = a.op_c1[idx0, o].astype(np.int64)
                qlen = self.qtail[idx0, c] - self.qhead[idx0, c]
                hp = self.qhead[idx0, c] % self.Q
                rdy = (qlen > 0) & (self.qready[idx0, c, hp] <= cycle)
                if rdy.any():
                    idx = idx0[rdy]
                    o = o[rdy]
                    c = c[rdy]
                    hp = hp[rdy]
                    v = self.qval[idx, c, hp]
                    self.qhead[idx, c] += 1
                    ln = a.op_len[idx, o]
                    k = a.op_off[idx, o] + self.prog[idx] % ln
                    cmb = a.op_combine[idx, o]
                    if cmb.any():
                        ic, kc, vc = idx[cmb], k[cmb], v[cmb]
                        if self._combine_ufunc is None:
                            self.buf[ic, kc] += vc
                        else:
                            self.buf[ic, kc] = self._combine_ufunc(
                                self.buf[ic, kc], vc
                            )
                    st = ~cmb
                    if st.any():
                        self.buf[idx[st], k[st]] = v[st]
                    self.recv_ct[idx] += 1
                    self.prog[idx] += 1
                    fin = self.prog[idx] >= a.op_total[idx, o]
                    self._advance_ops(idx[fin], cycle)
                    self.sig_proc[idx] = K_RECV
                    self._n_proc += len(idx)
                    progressed = True

        if K_RRS in kp:
            m = kind == K_RRS
            if m.any():
                idx0 = np.nonzero(m)[0]
                o = oi[idx0]
                c = a.op_c1[idx0, o].astype(np.int64)
                qlen = self.qtail[idx0, c] - self.qhead[idx0, c]
                hp = self.qhead[idx0, c] % self.Q
                rdy = (
                    (qlen > 0)
                    & (self.qready[idx0, c, hp] <= cycle)
                    & gate[idx0]
                )
                if rdy.any():
                    idx = idx0[rdy]
                    o = o[rdy]
                    c = c[rdy]
                    hp = hp[rdy]
                    v = self.qval[idx, c, hp]
                    self.qhead[idx, c] += 1
                    k = a.op_off[idx, o] + self.prog[idx]
                    if self._combine_ufunc is None:
                        self.buf[idx, k] += v
                    else:
                        self.buf[idx, k] = self._combine_ufunc(self.buf[idx, k], v)
                    self.recv_ct[idx] += 1
                    c2 = a.op_c2[idx, o].astype(np.int64)
                    self._append_pending(idx, c2, self.buf[idx, k], False, cycle)
                    self.sent_ct[idx] += 1
                    self.prog[idx] += 1
                    fin = self.prog[idx] >= a.op_len[idx, o]
                    self._advance_ops(idx[fin], cycle)
                    self.sig_proc[idx] = K_RRS
                    self._n_proc += len(idx)
                    progressed = True

        if K_SENDRECV in kp:
            m = kind == K_SENDRECV
            if m.any():
                idx0 = np.nonzero(m)[0]
                o = oi[idx0]
                L = a.op_len[idx0, o]
                sent, recvd = np.divmod(self.prog[idx0], L + 1)
                send_m = (sent < L) & gate[idx0]
                # Send values are read before any same-cycle recv writes,
                # exactly like the reference's step order.
                sv = self.buf[idx0, a.op_off[idx0, o] + np.minimum(sent, L - 1)]
                c2 = a.op_c2[idx0, o].astype(np.int64)
                qlen = self.qtail[idx0, c2] - self.qhead[idx0, c2]
                hp = self.qhead[idx0, c2] % self.Q
                recv_m = (
                    (recvd < L)
                    & (qlen > 0)
                    & (self.qready[idx0, c2, hp] <= cycle)
                )
                if send_m.any():
                    ids = idx0[send_m]
                    c1 = a.op_c1[ids, o[send_m]].astype(np.int64)
                    self._append_pending(ids, c1, sv[send_m], False, cycle)
                    self.sent_ct[ids] += 1
                    sent = sent + send_m
                if recv_m.any():
                    idr = idx0[recv_m]
                    cr = c2[recv_m]
                    hpr = hp[recv_m]
                    v = self.qval[idr, cr, hpr]
                    self.qhead[idr, cr] += 1
                    k = a.op_off2[idr, o[recv_m]] + recvd[recv_m]
                    cmb = a.op_combine[idr, o[recv_m]]
                    if cmb.any():
                        ic, kc, vc = idr[cmb], k[cmb], v[cmb]
                        if self._combine_ufunc is None:
                            self.buf[ic, kc] += vc
                        else:
                            self.buf[ic, kc] = self._combine_ufunc(
                                self.buf[ic, kc], vc
                            )
                    st = ~cmb
                    if st.any():
                        self.buf[idr[st], k[st]] = v[st]
                    self.recv_ct[idr] += 1
                    recvd = recvd + recv_m
                self.prog[idx0] = sent * (L + 1) + recvd
                fin = (sent >= L) & (recvd >= L)
                self._advance_ops(idx0[fin], cycle)
                moved = send_m | recv_m
                if moved.any():
                    self.sig_proc[idx0] = (
                        (K_SENDRECV + 16 * send_m + 32 * recv_m) * moved
                    )
                    self._n_proc += int(moved.sum())
                    progressed = True

        if K_SENDCTRL in kp:
            m = (kind == K_SENDCTRL) & gate
            if m.any():
                idx = np.nonzero(m)[0]
                c = a.op_c1[idx, oi[idx]].astype(np.int64)
                self._append_pending(idx, c, 0.0, True, cycle)
                self.ctrl_inflight += len(idx)
                self._advance_ops(idx, cycle)
                self.sig_proc[idx] = K_SENDCTRL
                self._n_proc += len(idx)
                progressed = True

        if K_DELAY in kp:
            m = kind == K_DELAY
            if m.any():
                idx = np.nonzero(m)[0]
                cyc = a.op_len[idx, oi[idx]]
                nz = cyc > 0
                self.wake[idx[nz]] = cycle + cyc[nz]
                self._n_sleep += int(nz.sum())
                self._advance_ops(idx, cycle)
                if nz.any():
                    idz = idx[nz]
                    nd = self.op_i[idz] >= a.n_ops[idz]
                    # A trailing Delay completes at the wake, not at issue.
                    if nd.any():
                        self.donec[idz[nd]] = cycle + cyc[nz][nd]
                        self.wake[idz[nd]] = -1
                        self._n_sleep -= int(nd.sum())
                self.sig_proc[idx] = K_DELAY
                self._n_proc += len(idx)
                progressed = True

        if K_SAMPLE in kp:
            m = kind == K_SAMPLE
            if m.any():
                idx = np.nonzero(m)[0]
                for pe in idx:
                    tag = a.tags[int(a.op_len[pe, oi[pe]])]
                    local = cycle + self.clock_offsets.get(int(pe), 0)
                    self.clock_samples.setdefault(tag, {})[int(pe)] = local
                self._advance_ops(idx, cycle)
                self.sig_proc[idx] = K_SAMPLE
                self._n_proc += len(idx)
                progressed = True

        return progressed

    # -- idle fast-forward ------------------------------------------------------

    def _next_event(self, cycle: int) -> Optional[int]:
        """Earliest strictly-future obligation (= the reference's heap)."""
        best = None
        if self.pend_total:
            has = self.phead < self.ptail
            h = np.where(has, self.phead, 0)
            t = self.ptime[self.aP, h]
            fut = has & (t > cycle)
            if fut.any():
                best = int(t[fut].min())
        hasq = self.qtail > self.qhead
        if hasq.any():
            hp = np.where(hasq, self.qhead, 0) % self.Q
            t = self.qready[
                self.aP[:, None], np.arange(self.C)[None, :], hp
            ]
            fut = hasq & (t > cycle)
            if fut.any():
                m = int(t[fut].min())
                best = m if best is None else min(best, m)
        if self._n_sleep:
            wk = self.wake[self.wake > cycle]
            if len(wk):
                m = int(wk.min())
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
            stepped = max(int(result.cycles) - strided, 0)
            sp.add(cycles=result.cycles, stride_windows=self.stride_windows,
                   stride_cycles=strided)
            METRICS.inc("sim.cycles.strided", strided)
            METRICS.inc("sim.cycles.stepped", stepped)
            _obs.counter_sample(
                "sim.cycles", {"stepped": stepped, "strided": strided}
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
            if progressed:
                last_activity = cycle
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
            cycle = max(cycle + 1, ne)

        self._check_finished(last_activity)
        return SimResult(
            cycles=last_activity + 1,
            energy=int(self.energy),
            buffers={pe: self.buf[pe].copy() for pe in self.schedule.programs},
            received=self.recv_ct.copy(),
            sent=self.sent_ct.copy(),
            link_loads=self.link_loads,
            clock_samples=self.clock_samples,
            completion=self.donec.copy(),
        )

    def _check_finished(self, last_activity: int) -> None:
        stuck = [int(pe) for pe in np.nonzero(self.op_i < self.arr.n_ops)[0]]
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
        if not np.array_equal(self.sigbuf[0], self.sigbuf[1]):
            return 0
        k = self._stride_window(cycle)
        if k >= _MIN_STRIDE and self._stride_apply(cycle, k):
            self.stride_windows += 1
            self.stride_cycles += k
            if self._obs:
                METRICS.observe("sim.stride.window_cycles", k)
            self._sig_valid = False
            return k
        # Same signature will keep matching while the window stays too
        # short; don't re-derive it every cycle.
        self._cool = cycle + 4
        return 0

    def _stride_window(self, t: int) -> int:
        """Upper bound K such that cycles t+1..t+K repeat cycle t exactly."""
        a = self.arr
        K = self.max_cycles - t
        if K <= 0:
            return 0

        # Rule exhaustion: an accepting (pe, color) pair with a finite
        # remaining count switches rules after r_rem more accepts.
        rpes, rports = np.nonzero(self.sig_route >= 0)
        if len(rpes):
            rc = self.sig_route[rpes, rports].astype(np.int64)
            rem = self.r_rem[rpes, rc]
            fin = rem > 0
            if fin.any():
                K = min(K, int(rem[fin].min()))

        # Op completion / message-wrap bounds for acting processors.
        act = np.nonzero(self.sig_proc > 0)[0]
        O = a.op_kind.shape[1]
        for pe in act:
            if self.op_i[pe] >= a.n_ops[pe]:
                # Acted this cycle and finished its program: the action
                # cannot repeat, so this is not a steady state.
                return 0
            o = min(int(self.op_i[pe]), O - 1)
            kind = int(a.op_kind[pe, o])
            pr = int(self.prog[pe])
            if kind == K_SEND:
                K = min(K, int(a.op_len[pe, o]) - pr)
            elif kind == K_RECV:
                ln = int(a.op_len[pe, o])
                K = min(K, int(a.op_total[pe, o]) - pr, ln - pr % ln)
            elif kind == K_RRS:
                K = min(K, int(a.op_len[pe, o]) - pr)
            elif kind == K_SENDRECV:
                L = int(a.op_len[pe, o])
                sent, recvd = divmod(pr, L + 1)
                code = int(self.sig_proc[pe])
                if code & 16:
                    K = min(K, L - sent)
                if code & 32:
                    K = min(K, L - recvd)
            else:
                return 0  # Delay/SendCtrl/SampleClock never repeat
            if K < _MIN_STRIDE:
                return 0

        # Sleepers must not wake inside the window.
        wk = self.wake[self.wake > t]
        if len(wk):
            K = min(K, int(wk.min()) - t - 1)

        # Idle pending queues mature into a drain at their head time.
        pend_has = self.phead < self.ptail
        idle_pend = pend_has & (self.sig_drain < 0)
        if idle_pend.any():
            h = self.phead[idle_pend]
            K = min(K, int((self.ptime[np.nonzero(idle_pend)[0], h] - t).min()) - 1)

        # Active pending queues: existing entries must stay mature under
        # the 1-pop-per-cycle schedule, and refills must keep pace.
        act_pend = np.nonzero(pend_has & (self.sig_drain >= 0))[0]
        for pe in act_pend:
            h, tl = int(self.phead[pe]), int(self.ptail[pe])
            L = tl - h
            times = self.ptime[pe, h:tl]
            viol = np.nonzero(times - np.arange(L) > t + 1)[0]
            if len(viol):
                K = min(K, int(viol[0]))
            if self.sig_proc[pe] > 0 and 1 + self.TR > L:
                K = min(K, L)
            # Colors must be uniform (the flow graph carries one lane)
            # and the refilling emit must use that same lane.
            if (self.pcol[pe, h:tl] != self.pcol[pe, h]).any():
                return 0
            if self.sig_proc[pe] > 0:
                o = min(int(self.op_i[pe]), O - 1)
                kind = int(a.op_kind[pe, o])
                if kind == K_RRS:
                    emit_c = int(a.op_c2[pe, o])
                else:  # Send / SendRecv emit on c1
                    emit_c = int(a.op_c1[pe, o])
                if emit_c != int(self.pcol[pe, h]):
                    return 0
            if K < _MIN_STRIDE:
                return 0

        # Processor in-queues: consumers must stay fed and mature;
        # blocked consumers must stay blocked.
        done = self.op_i >= a.n_ops
        oi = np.minimum(self.op_i, O - 1)
        for pe in range(self.P):
            if done[pe]:
                continue
            o = int(oi[pe])
            kind = int(a.op_kind[pe, o])
            if kind == K_RECV or kind == K_RRS:
                c = int(a.op_c1[pe, o])
            elif kind == K_SENDRECV:
                c = int(a.op_c2[pe, o])
            else:
                continue
            h, tl = int(self.qhead[pe, c]), int(self.qtail[pe, c])
            L = tl - h
            consuming = self.sig_proc[pe] > 0 and (
                kind != K_SENDRECV or int(self.sig_proc[pe]) & 32
            )
            pushing = self._queue_push_active(pe, c)
            if consuming:
                n = min(L, K)
                if n > 0:
                    idxs = (h + np.arange(n)) % self.Q
                    viol = np.nonzero(
                        self.qready[pe, c, idxs] - np.arange(n) > t + 1
                    )[0]
                    if len(viol):
                        K = min(K, int(viol[0]))
                if pushing:
                    if self.TR > L:
                        K = min(K, L)
                else:
                    K = min(K, L)
            else:
                if L > 0:
                    ready = int(self.qready[pe, c, h % self.Q])
                    if ready > t:
                        K = min(K, ready - t - 1)
                    # A mature head with a non-consuming proc is blocked
                    # on something structural (gate), which is constant.
                elif pushing:
                    K = min(K, self.TR)
            if K < _MIN_STRIDE:
                return 0
        return K

    def _queue_push_active(self, pe: int, c: int) -> bool:
        """Does this cycle's route phase push into in-queue (pe, c)?"""
        for port in range(5):
            if self.sig_route[pe, port] == c and self.fwd_cur[pe, c, 0]:
                return True
        return False

    def _stride_apply(self, t: int, K: int) -> bool:
        """Apply K repeats of this cycle's actions as bulk array ops."""
        a = self.arr
        TR = self.TR
        O = a.op_kind.shape[1]

        # Flow-graph queues: key -> dict with the value sequence array
        # seq[:L] = current contents, seq[L:L+K] filled by the producer.
        queues: Dict[tuple, dict] = {}

        def get_queue(key):
            q = queues.get(key)
            if q is not None:
                return q
            kind = key[0]
            if kind == "f":
                _, pe, port, c = key
                L = int(self.flen[pe, port, c])
                idx = (self.fhead[pe, port, c] + np.arange(L)) % self.cap
                contents = self.fval[pe, port, c, idx]
            elif kind == "s":
                _, pe, port, c = key
                L = 1 if self.socc[pe, port, c] else 0
                contents = self.sval[pe, port, c : c + 1][:L]
            elif kind == "p":
                _, pe = key
                h, tl = int(self.phead[pe]), int(self.ptail[pe])
                L = tl - h
                contents = self.pval[pe, h:tl]
            else:  # "q"
                _, pe, c = key
                h, tl = int(self.qhead[pe, c]), int(self.qtail[pe, c])
                L = tl - h
                idx = (h + np.arange(L)) % self.Q
                contents = self.qval[pe, c, idx]
            seq = np.empty(L + K, dtype=np.float64)
            seq[:L] = contents
            q = {"seq": seq, "L": L, "filled": 0, "consumer": None,
                 "pushes": 0, "pops": 0}
            queues[key] = q
            return q

        # Nodes: (process(lo, hi), in_queue or None).  Builders below
        # also validate stride-ineligible details and may abort.
        nodes = []

        def add_node(fn, in_q, out_qs):
            node = {"fn": fn, "in": in_q, "outs": out_qs, "done": 0}
            nodes.append(node)
            if in_q is not None:
                in_q["consumer"] = node
                in_q["pops"] += 1
            for q in out_qs:
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
        for pe in np.nonzero(self.sig_drain >= 0)[0]:
            c = int(self.sig_drain[pe])
            node = add_node(None, get_queue(("p", int(pe))),
                            [get_queue(("f", int(pe), 0, c))])
            node["fn"] = passthrough(node)

        # Deliver nodes: staged -> neighbor fifo.
        dpes, dp4 = np.nonzero(self.sig_del >= 0)
        for pe, p4 in zip(dpes, dp4):
            c = int(self.sig_del[pe, p4])
            port = int(p4) + 1
            dst = int(self.nbr[pe, port])
            ip = int(_OPP4[p4])
            node = add_node(None, get_queue(("s", int(pe), port, c)),
                            [get_queue(("f", dst, ip, c))])
            node["fn"] = passthrough(node)

        # Accept nodes: fifo -> staged slots and/or the proc in-queue.
        rpes, rports = np.nonzero(self.sig_route >= 0)
        for pe, port in zip(rpes, rports):
            c = int(self.sig_route[pe, port])
            outs = []
            for out in (1, 2, 3, 4):
                if self.fwd_cur[pe, c, out]:
                    outs.append(get_queue(("s", int(pe), out, c)))
            if self.fwd_cur[pe, c, 0]:
                outs.append(get_queue(("q", int(pe), c)))
            node = add_node(None, get_queue(("f", int(pe), int(port), c)), outs)
            node["fn"] = passthrough(node)

        # Processor nodes.
        buf = self.buf
        for pe in np.nonzero(self.sig_proc > 0)[0]:
            pe = int(pe)
            o = min(int(self.op_i[pe]), O - 1)
            kind = int(a.op_kind[pe, o])
            pr = int(self.prog[pe])
            if kind == K_SEND:
                c = int(a.op_c1[pe, o])
                off = int(a.op_off[pe, o])
                outq = get_queue(("p", pe))
                vals = buf[pe, off + pr : off + pr + K].copy()

                def send_fn(lo, hi, outq=outq, vals=vals):
                    outq["seq"][outq["L"] + lo : outq["L"] + hi] = vals[lo:hi]
                    outq["filled"] = hi
                node = add_node(send_fn, None, [outq])
            elif kind == K_RECV:
                c = int(a.op_c1[pe, o])
                ln = int(a.op_len[pe, o])
                k0 = int(a.op_off[pe, o]) + pr % ln
                inq = get_queue(("q", pe, c))
                cmb = bool(a.op_combine[pe, o])
                uf = self._combine_ufunc

                def recv_fn(lo, hi, pe=pe, k0=k0, inq=inq, cmb=cmb, uf=uf):
                    seg = inq["seq"][lo:hi]
                    dst = buf[pe, k0 + lo : k0 + hi]
                    if not cmb:
                        dst[:] = seg
                    elif uf is None:
                        dst += seg
                    else:
                        uf(dst, seg, out=dst)
                node = add_node(recv_fn, inq, [])
            elif kind == K_RRS:
                c = int(a.op_c1[pe, o])
                k0 = int(a.op_off[pe, o]) + pr
                inq = get_queue(("q", pe, c))
                outq = get_queue(("p", pe))
                uf = self._combine_ufunc

                def rrs_fn(lo, hi, pe=pe, k0=k0, inq=inq, outq=outq, uf=uf):
                    seg = inq["seq"][lo:hi]
                    dst = buf[pe, k0 + lo : k0 + hi]
                    if uf is None:
                        dst += seg
                    else:
                        uf(dst, seg, out=dst)
                    outq["seq"][outq["L"] + lo : outq["L"] + hi] = dst
                    outq["filled"] = hi
                node = add_node(rrs_fn, inq, [outq])
            elif kind == K_SENDRECV:
                L = int(a.op_len[pe, o])
                sent, recvd = divmod(pr, L + 1)
                code = int(self.sig_proc[pe])
                sending, recving = bool(code & 16), bool(code & 32)
                soff = int(a.op_off[pe, o])
                roff = int(a.op_off2[pe, o])
                if sending and recving:
                    # The seeded send values must not alias the recv
                    # writes; disjoint ranges or no stride.
                    s0, s1 = soff + sent, soff + sent + K
                    r0, r1 = roff + recvd, roff + recvd + K
                    if s0 < r1 and r0 < s1:
                        return False
                if sending:
                    outq = get_queue(("p", pe))
                    vals = buf[pe, soff + sent : soff + sent + K].copy()

                    def sr_send(lo, hi, outq=outq, vals=vals):
                        outq["seq"][outq["L"] + lo : outq["L"] + hi] = vals[lo:hi]
                        outq["filled"] = hi
                    add_node(sr_send, None, [outq])
                if recving:
                    c2 = int(a.op_c2[pe, o])
                    k0 = roff + recvd
                    inq = get_queue(("q", pe, c2))
                    cmb = bool(a.op_combine[pe, o])
                    uf = self._combine_ufunc

                    def sr_recv(lo, hi, pe=pe, k0=k0, inq=inq, cmb=cmb, uf=uf):
                        seg = inq["seq"][lo:hi]
                        dst = buf[pe, k0 + lo : k0 + hi]
                        if not cmb:
                            dst[:] = seg
                        elif uf is None:
                            dst += seg
                        else:
                            uf(dst, seg, out=dst)
                    add_node(sr_recv, inq, [])
            else:
                return False

        # Structural sanity: every active queue needs matched rates
        # (otherwise the constant-length snapshots would have diverged,
        # except for in-queues which may legitimately grow or drain).
        for key, q in queues.items():
            if key[0] != "q" and q["pushes"] != q["pops"]:
                return False
            if q["pushes"] > 1 or q["pops"] > 1:
                return False

        # Propagate: each node consumes its input prefix as it becomes
        # available and extends its outputs; loops always cross at least
        # one occupied queue, so this converges in a few rounds.
        todo = nodes
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
        for key, q in queues.items():
            kind = key[0]
            if kind == "f":
                _, pe, port, c = key
                L = q["L"]
                self.fhead[pe, port, c] = 0
                if L:
                    self.fval[pe, port, c, :L] = q["seq"][K : K + L]
            elif kind == "s":
                _, pe, port, c = key
                if q["L"]:
                    self.sval[pe, port, c] = q["seq"][K]
            elif kind == "p":
                _, pe = key
                h, tl = int(self.phead[pe]), int(self.ptail[pe])
                L = tl - h
                c = int(self.pcol[pe, h]) if L else int(self.pcol[pe, h - 1])
                self.pval[pe, tl : tl + K] = q["seq"][L : L + K]
                self.pcol[pe, tl : tl + K] = c
                self.pctrl[pe, tl : tl + K] = False
                self.ptime[pe, tl : tl + K] = t + 2 + TR + np.arange(K)
                self.phead[pe] = h + K
                self.ptail[pe] = tl + K
            else:  # "q"
                _, pe, c = key
                h, tl = int(self.qhead[pe, c]), int(self.qtail[pe, c])
                L = tl - h
                kpush = q["pushes"] * K
                kpop = q["pops"] * K
                Lf = L + kpush - kpop
                if Lf + 1 > self.Q:
                    self._grow_q(Lf + 1)
                # Rebuild the live tail in place: entry j of the final
                # contents is concat(contents, pushed)[kpop + j].
                nh = h + kpop
                nt = tl + kpush
                if Lf:
                    j = np.arange(Lf)
                    src = kpop + j
                    vals = q["seq"][src]
                    ready = np.where(
                        src < L,
                        self.qready[pe, c, (h + np.minimum(src, L - 1 if L else 0)) % self.Q],
                        t + (src - L) + 1 + TR,
                    )
                    pos = (nh + j) % self.Q
                    self.qval[pe, c, pos] = vals
                    self.qready[pe, c, pos] = ready
                self.qhead[pe, c] = nh
                self.qtail[pe, c] = nt

        # -- counters, rules, op state -----------------------------------------
        dpes, dp4 = np.nonzero(self.sig_del >= 0)
        self.energy += len(dpes) * K
        if len(dpes):
            self.link_loads[dpes, dp4 + 1] += K

        rpes, rports = np.nonzero(self.sig_route >= 0)
        if len(rpes):
            rc = self.sig_route[rpes, rports].astype(np.int64)
            rem = self.r_rem[rpes, rc]
            fin = rem > 0
            new_rem = np.where(fin, rem - K, rem)
            self.r_rem[rpes, rc] = new_rem
            adv = fin & (new_rem == 0)
            if adv.any():
                self._advance_rules(rpes[adv], rc[adv])

        end = t + K
        for pe in np.nonzero(self.sig_proc > 0)[0]:
            pe = int(pe)
            o = min(int(self.op_i[pe]), O - 1)
            kind = int(a.op_kind[pe, o])
            if kind == K_SENDRECV:
                L = int(a.op_len[pe, o])
                sent, recvd = divmod(int(self.prog[pe]), L + 1)
                code = int(self.sig_proc[pe])
                if code & 16:
                    sent += K
                    self.sent_ct[pe] += K
                if code & 32:
                    recvd += K
                    self.recv_ct[pe] += K
                self.prog[pe] = sent * (L + 1) + recvd
                if sent >= L and recvd >= L:
                    self._advance_ops(np.array([pe]), end)
            else:
                self.prog[pe] += K
                if kind == K_SEND:
                    self.sent_ct[pe] += K
                elif kind == K_RECV:
                    self.recv_ct[pe] += K
                elif kind == K_RRS:
                    self.recv_ct[pe] += K
                    self.sent_ct[pe] += K
                if self.prog[pe] >= int(a.op_total[pe, o]):
                    self._advance_ops(np.array([pe]), end)
        return True
