"""Unit tests for the schedule IR: rules, ops, validation, merging."""

import gc

import pytest

from repro.fabric.geometry import Grid, Port
from repro.fabric.ir import (
    Recv,
    RecvReduceSend,
    RouterRule,
    Schedule,
    Send,
    SendRecv,
    lower_arrays,
    merge_parallel,
    merge_phases,
    merge_sequential,
    stamp_parallel,
)


class TestRouterRule:
    def test_valid(self):
        r = RouterRule(accept=Port.EAST, forward=(Port.WEST, Port.RAMP), count=8)
        assert r.count == 8

    def test_rejects_empty_forward(self):
        with pytest.raises(ValueError):
            RouterRule(accept=Port.EAST, forward=(), count=1)

    def test_rejects_loopback(self):
        with pytest.raises(ValueError):
            RouterRule(accept=Port.EAST, forward=(Port.EAST,), count=1)

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            RouterRule(accept=Port.EAST, forward=(Port.WEST,), count=0)

    def test_rejects_bad_port(self):
        with pytest.raises(ValueError):
            RouterRule(accept=9, forward=(Port.WEST,))


class TestOps:
    def test_recv_totals(self):
        assert Recv(color=0, length=8, messages=3).total_wavelets == 24

    def test_send_totals(self):
        assert Send(color=0, length=5).total_wavelets == 5

    def test_stream_totals(self):
        assert RecvReduceSend(in_color=0, out_color=1, length=7).total_wavelets == 7

    def test_sendrecv_totals(self):
        op = SendRecv(send_color=0, recv_color=1, length=4)
        assert op.total_wavelets == 4

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            Recv(color=0, length=0)
        with pytest.raises(ValueError):
            Send(color=0, length=1, offset=-1)
        with pytest.raises(ValueError):
            RecvReduceSend(in_color=0, out_color=1, length=-3)
        with pytest.raises(ValueError):
            SendRecv(send_color=0, recv_color=1, length=0)

    def test_sendrecv_colors_are_used(self):
        s = Schedule(grid=Grid(1, 2), buffer_size=4)
        s.program(0).ops.append(SendRecv(send_color=7, recv_color=7, length=2))
        assert s.colors_used() == [7]
        assert s.stats()["colors"] == 1
        assert lower_arrays(s).colors == [7]


class TestScheduleValidation:
    def _sender_receiver(self) -> Schedule:
        g = Grid(1, 2)
        s = Schedule(grid=g, buffer_size=4)
        p1 = s.program(1)
        p1.router[0] = [RouterRule(accept=Port.RAMP, forward=(Port.WEST,), count=4)]
        p1.ops.append(Send(color=0, length=4))
        p0 = s.program(0)
        p0.router[0] = [RouterRule(accept=Port.EAST, forward=(Port.RAMP,), count=4)]
        p0.ops.append(Recv(color=0, length=4))
        return s

    def test_valid_schedule_passes(self):
        self._sender_receiver().validate()

    def test_detects_undersized_ramp_rule(self):
        s = self._sender_receiver()
        s.programs[1].router[0] = [
            RouterRule(accept=Port.RAMP, forward=(Port.WEST,), count=2)
        ]
        with pytest.raises(ValueError, match="RAMP-accepting"):
            s.validate()

    def test_detects_undersized_delivery_rule(self):
        s = self._sender_receiver()
        s.programs[0].router[0] = [
            RouterRule(accept=Port.EAST, forward=(Port.RAMP,), count=1)
        ]
        with pytest.raises(ValueError, match="RAMP-forwarding"):
            s.validate()

    def test_unbounded_rule_accepts_anything(self):
        s = self._sender_receiver()
        s.programs[1].router[0] = [
            RouterRule(accept=Port.RAMP, forward=(Port.WEST,), count=None)
        ]
        s.validate()

    def test_colors_used(self):
        assert self._sender_receiver().colors_used() == [0]

    def test_stats(self):
        stats = self._sender_receiver().stats()
        assert stats == {"pes": 2, "rules": 2, "ops": 2, "colors": 1}

    def test_program_out_of_range(self):
        s = Schedule(grid=Grid(1, 2))
        with pytest.raises(IndexError):
            s.program(5)


class TestMerging:
    def _mini(self, pe: int, color: int) -> Schedule:
        g = Grid(1, 4)
        s = Schedule(grid=g, buffer_size=2)
        prog = s.program(pe)
        prog.router[color] = [
            RouterRule(accept=Port.RAMP, forward=(Port.WEST,), count=2)
        ]
        prog.ops.append(Send(color=color, length=2))
        return s

    def test_parallel_disjoint(self):
        merged = merge_parallel([self._mini(1, 0), self._mini(2, 0)], "par")
        assert set(merged.programs) == {1, 2}

    def test_parallel_rejects_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            merge_parallel([self._mini(1, 0), self._mini(1, 1)], "par")

    def test_sequential_concatenates(self):
        merged = merge_sequential(self._mini(1, 0), self._mini(1, 1), "seq")
        prog = merged.programs[1]
        assert len(prog.ops) == 2
        assert sorted(prog.router) == [0, 1]

    def test_sequential_rejects_shared_colors(self):
        with pytest.raises(ValueError, match="share colors"):
            merge_sequential(self._mini(1, 0), self._mini(2, 0), "seq")

    def test_sequential_rejects_grid_mismatch(self):
        a = self._mini(1, 0)
        b = Schedule(grid=Grid(2, 4))
        with pytest.raises(ValueError, match="different grids"):
            merge_sequential(a, b, "seq")

    def test_merge_preserves_buffer_size(self):
        a = self._mini(1, 0)
        b = self._mini(2, 1)
        b.buffer_size = 64
        assert merge_parallel([a, b], "par").buffer_size == 64

    def test_phases_equal_pairwise_merges(self):
        a, b, c = self._mini(1, 0), self._mini(2, 1), self._mini(1, 2)
        one_pass = merge_phases((a, b, c), "abc")
        pairwise = merge_sequential(merge_sequential(a, b, "ab"), c, "abc")
        assert list(one_pass.programs) == list(pairwise.programs)
        assert one_pass.programs == pairwise.programs

    def test_phases_reject_shared_op_colors(self):
        # Color 0 is in the second phase's ops only, not in its rules.
        b = self._mini(2, 1)
        b.programs[2].ops.append(Send(color=0, length=2))
        with pytest.raises(ValueError, match="share colors"):
            merge_phases((self._mini(1, 0), b), "seq")

    def test_phases_give_each_pe_its_own_program(self):
        stamped = stamp_parallel(self._mini(0, 0), [0, 1], "rows")
        assert stamped.programs[0] is stamped.programs[1]
        merged = merge_phases((stamped,), "rows")
        merged.programs[0].ops.clear()
        merged.programs[0].router[0].clear()
        assert len(merged.programs[1].ops) == 1
        assert len(merged.programs[1].router[0]) == 1

    @pytest.mark.parametrize("enabled", [True, False])
    def test_phases_leave_the_collector_as_found(self, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            merge_phases((self._mini(1, 0), self._mini(2, 1)), "seq")
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_stamp_equals_parallel_merge_of_shifted_copies(self):
        row = self._mini(0, 0)
        row.program(1).ops.append(Send(color=1, length=2))
        stamped = stamp_parallel(row, [0, 2], "stamped")
        shifted = self._mini(2, 0)
        shifted.program(3).ops.append(Send(color=1, length=2))
        assert stamped.programs == merge_parallel([row, shifted], "par").programs

    def test_stamp_rejects_overlap_and_leaving_the_grid(self):
        with pytest.raises(ValueError, match="overlap"):
            stamp_parallel(self._mini(1, 0), [0, 0], "rows")
        with pytest.raises(IndexError):
            stamp_parallel(self._mini(1, 0), [0, 3], "rows")
