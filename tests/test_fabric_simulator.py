"""Unit tests for the cycle simulator: timing constants, stalls, errors."""

import numpy as np
import pytest

from repro.fabric.geometry import Grid, Port
from repro.fabric.ir import (
    Delay,
    Recv,
    RecvReduceSend,
    RouterRule,
    SampleClock,
    Schedule,
    Send,
    SendRecv,
)
from repro.fabric.simulator import DeadlockError, SimulationError, simulate
from repro.model.params import CS2, MachineParams


def two_pe_message(b: int) -> Schedule:
    """PE 1 sends b wavelets west to PE 0."""
    g = Grid(1, 2)
    s = Schedule(grid=g, buffer_size=b, name="msg")
    p1 = s.program(1)
    p1.router[0] = [RouterRule(accept=Port.RAMP, forward=(Port.WEST,), count=b)]
    p1.ops.append(Send(color=0, length=b))
    p0 = s.program(0)
    p0.router[0] = [RouterRule(accept=Port.EAST, forward=(Port.RAMP,), count=b)]
    p0.ops.append(Recv(color=0, length=b, combine=False))
    return s


class TestTimingConstants:
    def test_single_wavelet_hop_cost(self):
        # emit at 0, enters router at 1+T_R, link at +1, ramp up T_R,
        # consumed: total 2 T_R + 3 cycles before consumption ends cycle.
        sim = simulate(two_pe_message(1), inputs={1: np.array([3.0])})
        assert sim.cycles == 2 * CS2.ramp_latency + 3

    def test_pipeline_streams_one_per_cycle(self):
        b = 64
        sim = simulate(two_pe_message(b), inputs={1: np.arange(b, dtype=float)})
        # b wavelets drain at 1/cycle behind the first: latency + (b-1).
        assert sim.cycles == 2 * CS2.ramp_latency + 3 + (b - 1)

    def test_ramp_latency_parameter_respected(self):
        slow = MachineParams(ramp_latency=7)
        sim = simulate(
            two_pe_message(1), inputs={1: np.array([1.0])}, params=slow
        )
        assert sim.cycles == 2 * 7 + 3

    def test_payload_delivered(self):
        vec = np.array([1.5, -2.5, 3.5])
        sim = simulate(two_pe_message(3), inputs={1: vec})
        assert np.allclose(sim.buffers[0][:3], vec)

    def test_energy_counts_link_hops_only(self):
        sim = simulate(two_pe_message(5), inputs={1: np.ones(5)})
        assert sim.energy == 5  # one hop per wavelet, ramp not counted

    def test_contention_counters(self):
        sim = simulate(two_pe_message(5), inputs={1: np.ones(5)})
        assert sim.received[0] == 5
        assert sim.sent[1] == 5
        assert sim.max_contention == 5

    def test_link_loads(self):
        sim = simulate(two_pe_message(4), inputs={1: np.ones(4)})
        assert sim.link_loads[1, Port.WEST] == 4
        assert sim.links_used == 1


class TestCombine:
    def test_recv_combine_accumulates(self):
        g = Grid(1, 2)
        s = Schedule(grid=g, buffer_size=2, name="acc")
        p1 = s.program(1)
        p1.router[0] = [RouterRule(accept=Port.RAMP, forward=(Port.WEST,), count=4)]
        p1.ops.append(Send(color=0, length=2))
        p1.ops.append(Send(color=0, length=2))
        p0 = s.program(0)
        p0.router[0] = [RouterRule(accept=Port.EAST, forward=(Port.RAMP,), count=4)]
        p0.ops.append(Recv(color=0, length=2, combine=True, messages=2))
        sim = simulate(s, inputs={0: np.zeros(2), 1: np.array([1.0, 10.0])})
        assert np.allclose(sim.buffers[0][:2], [2.0, 20.0])

    def test_custom_combine_op(self):
        sched = two_pe_message(3)
        sched.programs[0].ops[0] = Recv(color=0, length=3, combine=True)
        sim = simulate(
            sched,
            inputs={0: np.array([5.0, 0.0, 9.0]), 1: np.array([1.0, 2.0, 3.0])},
            combine=np.maximum,
        )
        assert np.allclose(sim.buffers[0][:3], [5.0, 2.0, 9.0])

    def test_recv_reduce_send_streams(self):
        # 2 -> 1 -> 0 streaming chain.
        g = Grid(1, 3)
        b = 4
        s = Schedule(grid=g, buffer_size=b, name="stream")
        p2 = s.program(2)
        p2.router[1] = [RouterRule(accept=Port.RAMP, forward=(Port.WEST,), count=b)]
        p2.ops.append(Send(color=1, length=b))
        p1 = s.program(1)
        p1.router[1] = [RouterRule(accept=Port.EAST, forward=(Port.RAMP,), count=b)]
        p1.router[0] = [RouterRule(accept=Port.RAMP, forward=(Port.WEST,), count=b)]
        p1.ops.append(RecvReduceSend(in_color=1, out_color=0, length=b))
        p0 = s.program(0)
        p0.router[0] = [RouterRule(accept=Port.EAST, forward=(Port.RAMP,), count=b)]
        p0.ops.append(Recv(color=0, length=b, combine=True))
        inputs = {
            0: np.full(b, 1.0),
            1: np.full(b, 2.0),
            2: np.full(b, 4.0),
        }
        sim = simulate(s, inputs=inputs)
        assert np.allclose(sim.buffers[0][:b], 7.0)
        # chain timing: B + (2 T_R + 2) * 2 hops (+1 for the final store)
        assert sim.cycles == pytest.approx(b + 6 * 2 + 1, abs=2)


class TestStallsAndRules:
    def test_counted_rule_advances(self):
        # PE 2 and PE 1 both send to PE 0; PE 0 accepts RAMP... make PE 0
        # accept EAST for b then nothing -> second stream needs rule 2.
        g = Grid(1, 3)
        b = 2
        s = Schedule(grid=g, buffer_size=2 * b, name="two-streams")
        p2 = s.program(2)
        p2.router[0] = [RouterRule(accept=Port.RAMP, forward=(Port.WEST,), count=b)]
        p2.ops.append(Send(color=0, length=b))
        p1 = s.program(1)
        p1.router[0] = [
            RouterRule(accept=Port.RAMP, forward=(Port.WEST,), count=b),
            RouterRule(accept=Port.EAST, forward=(Port.WEST,), count=b),
        ]
        p1.ops.append(Send(color=0, length=b))
        p0 = s.program(0)
        p0.router[0] = [RouterRule(accept=Port.EAST, forward=(Port.RAMP,), count=2 * b)]
        p0.ops.append(Recv(color=0, length=b, combine=True, messages=2))
        sim = simulate(
            s,
            inputs={0: np.zeros(b), 1: np.array([1.0, 2.0]), 2: np.array([10.0, 20.0])},
        )
        assert np.allclose(sim.buffers[0][:b], [11.0, 22.0])

    def test_missing_rule_raises(self):
        s = two_pe_message(1)
        del s.programs[0].router[0]
        with pytest.raises(SimulationError, match="no active rule"):
            simulate(s, inputs={1: np.array([1.0])})

    @staticmethod
    def _short_sender(buffer_size):
        # Receiver expects 2 wavelets but sender only sends 1.
        s = two_pe_message(1)
        s.buffer_size = buffer_size
        s.programs[0].ops[0] = Recv(color=0, length=2, combine=False)
        s.programs[0].router[0] = [
            RouterRule(accept=Port.EAST, forward=(Port.RAMP,), count=2)
        ]
        return s

    def test_deadlock_detected(self):
        with pytest.raises(DeadlockError):
            simulate(self._short_sender(2), inputs={1: np.array([1.0])})

    def test_recv_past_buffer_raises_first(self):
        # A 1-wavelet buffer under the length-2 Recv: no defined values.
        with pytest.raises(ValueError, match="past its 1-wavelet buffer"):
            simulate(self._short_sender(1), inputs={1: np.array([1.0])})

    def test_max_cycles_guard(self):
        s = two_pe_message(64)
        with pytest.raises(SimulationError, match="max_cycles"):
            simulate(s, inputs={1: np.zeros(64)}, max_cycles=10)

    def test_off_grid_staging_raises(self):
        g = Grid(1, 2)
        s = Schedule(grid=g, buffer_size=1, name="bad")
        p0 = s.program(0)
        p0.router[0] = [RouterRule(accept=Port.RAMP, forward=(Port.WEST,), count=1)]
        p0.ops.append(Send(color=0, length=1))
        with pytest.raises(SimulationError, match="grid edge"):
            simulate(s, inputs={0: np.array([1.0])})


class TestBackpressure:
    def test_small_fifo_still_correct(self):
        b = 32
        sim = simulate(
            two_pe_message(b), inputs={1: np.arange(b, dtype=float)}, fifo_capacity=1
        )
        assert np.allclose(sim.buffers[0][:b], np.arange(b))

    def test_fifo_capacity_validated(self):
        with pytest.raises(ValueError):
            simulate(two_pe_message(1), inputs={1: np.ones(1)}, fifo_capacity=0)


class TestDelayAndClock:
    def test_delay_shifts_completion(self):
        g = Grid(1, 1)
        s = Schedule(grid=g, buffer_size=1, name="delay")
        prog = s.program(0)
        prog.ops.append(Delay(cycles=100))
        prog.ops.append(SampleClock(tag="after"))
        sim = simulate(s)
        assert sim.clock_samples["after"][0] >= 100

    def test_clock_offsets_applied(self):
        g = Grid(1, 1)
        s = Schedule(grid=g, buffer_size=1, name="clock")
        s.program(0).ops.append(SampleClock(tag="t"))
        sim = simulate(s, clock_offsets={0: 500})
        assert sim.clock_samples["t"][0] == 500

    def test_zero_delay(self):
        g = Grid(1, 1)
        s = Schedule(grid=g, buffer_size=1, name="zd")
        s.program(0).ops.append(Delay(cycles=0))
        simulate(s)  # must terminate


def duplex(b: int, recv_offset: int) -> Schedule:
    """Two PEs swap-and-combine simultaneously: each sends ``[0, b)`` and
    adds what it receives into ``[recv_offset, recv_offset + b)``."""
    s = Schedule(grid=Grid(1, 2), buffer_size=recv_offset + b, name="duplex")
    for pe, out in ((0, Port.EAST), (1, Port.WEST)):
        prog = s.program(pe)
        prog.router[pe] = [RouterRule(accept=Port.RAMP, forward=(out,), count=b)]
        prog.router[1 - pe] = [
            RouterRule(accept=out, forward=(Port.RAMP,), count=b)
        ]
        prog.ops.append(SendRecv(send_color=pe, recv_color=1 - pe, length=b,
                                 recv_offset=recv_offset, combine=True))
    return s


class TestSendRecvDuplex:
    def test_bidirectional_exchange(self):
        b = 8
        a = np.arange(b, dtype=float)
        sim = simulate(duplex(b, b), inputs={0: np.tile(a, 2),
                                             1: np.tile(10 * a, 2)})
        assert np.allclose(sim.buffers[0][b:], 11 * a)
        assert np.allclose(sim.buffers[1][b:], 11 * a)
        # Full duplex: roughly b + latency, NOT 2b + latency.
        assert sim.cycles < b + 12

    def test_in_place_swap_raises(self):
        # Sending and receiving the same range: what goes out would depend
        # on how far the receive has got.
        with pytest.raises(ValueError, match="ranges overlap"):
            simulate(duplex(8, 0), inputs={0: np.ones(8), 1: np.ones(8)})


class TestDeterminism:
    def test_repeated_runs_identical(self):
        from repro.collectives import reduce_1d_schedule
        from repro.fabric import row_grid

        grid = row_grid(9)
        inputs = {pe: np.random.default_rng(pe).normal(size=16) for pe in range(9)}
        results = []
        for _ in range(3):
            sched = reduce_1d_schedule(grid, "two_phase", 16)
            sim = simulate(sched, inputs={k: v.copy() for k, v in inputs.items()})
            results.append((sim.cycles, sim.energy, tuple(sim.buffers[0][:16])))
        assert results[0] == results[1] == results[2]
