"""Integration tests for 1D and 2D AllReduce compositions (Sections 6, 7.4)."""

import numpy as np
import pytest

from helpers import expected_sum, pe_inputs
from repro.collectives import (
    allreduce_1d_schedule,
    allreduce_2d_schedule,
    xy_allreduce_schedule,
)
from repro.fabric import Grid, row_grid, simulate
from repro.core.registry import allreduce_1d_predict

TREE_PATTERNS = ["star", "chain", "tree", "two_phase", "autogen"]


class Test1DAllReduce:
    @pytest.mark.parametrize("pattern", TREE_PATTERNS + ["ring"])
    @pytest.mark.parametrize("p", [2, 4, 8, 13])
    def test_everyone_gets_the_sum(self, pattern, p):
        b = 2 * p if pattern == "ring" else 10
        grid = row_grid(p)
        inputs = pe_inputs(p, b, seed=p)
        sched = allreduce_1d_schedule(grid, pattern, b)
        sim = simulate(sched, inputs={k: v.copy() for k, v in inputs.items()})
        expected = expected_sum(inputs, b)
        for pe in range(p):
            assert np.allclose(sim.buffers[pe][:b], expected), (pattern, pe)

    def test_reduce_then_broadcast_cost_is_additive(self):
        p, b = 16, 64
        grid = row_grid(p)
        inputs = pe_inputs(p, b, seed=0)
        sim = simulate(
            allreduce_1d_schedule(grid, "chain", b),
            inputs={k: v.copy() for k, v in inputs.items()},
        )
        predicted = allreduce_1d_predict("chain", p, b)
        assert abs(sim.cycles - predicted) / predicted < 0.1

    def test_single_pe(self):
        grid = row_grid(1)
        sched = allreduce_1d_schedule(grid, "chain", 4)
        sim = simulate(sched, inputs={0: np.arange(4.0)})
        assert np.allclose(sim.buffers[0][:4], np.arange(4.0))

    def test_colors_within_budget(self):
        # 1D implementations use at most 3 colors (Section 8.2).
        for pattern in TREE_PATTERNS + ["ring"]:
            sched = allreduce_1d_schedule(row_grid(8), pattern, 16)
            assert len(sched.colors_used()) <= 3, pattern


class Test2DAllReduce:
    @pytest.mark.parametrize("pattern", TREE_PATTERNS + ["snake"])
    def test_everyone_gets_the_sum(self, pattern):
        m, n, b = 3, 4, 8
        grid = Grid(m, n)
        inputs = pe_inputs(grid.size, b, seed=9)
        sched = allreduce_2d_schedule(grid, pattern, b)
        sim = simulate(sched, inputs={k: v.copy() for k, v in inputs.items()})
        expected = expected_sum(inputs, b)
        for pe in range(grid.size):
            assert np.allclose(sim.buffers[pe][:b], expected), (pattern, pe)

    def test_colors_within_budget(self):
        # 2D implementations use at most 5 colors (Section 8.2).
        for pattern in TREE_PATTERNS + ["snake"]:
            sched = allreduce_2d_schedule(Grid(3, 3), pattern, 8)
            assert len(sched.colors_used()) <= 5, pattern

    def test_cost_close_to_model(self):
        m = n = 6
        b = 32
        grid = Grid(m, n)
        inputs = pe_inputs(grid.size, b, seed=10)
        sim = simulate(
            allreduce_2d_schedule(grid, "two_phase", b),
            inputs={k: v.copy() for k, v in inputs.items()},
        )
        from repro.core.registry import allreduce_2d_predict
        predicted = allreduce_2d_predict("two_phase", m, n, b)
        assert sim.cycles <= 1.3 * predicted + 30
        assert sim.cycles >= 0.7 * predicted


class TestXYAllReduce:
    @pytest.mark.parametrize("pattern", ["chain", "tree", "two_phase"])
    def test_everyone_gets_the_sum(self, pattern):
        m, n, b = 3, 4, 8
        grid = Grid(m, n)
        inputs = pe_inputs(grid.size, b, seed=11)
        sched = xy_allreduce_schedule(grid, pattern, b)
        sim = simulate(sched, inputs={k: v.copy() for k, v in inputs.items()})
        expected = expected_sum(inputs, b)
        for pe in range(grid.size):
            assert np.allclose(sim.buffers[pe][:b], expected), (pattern, pe)

    def test_ring_xy(self):
        m, n = 4, 4
        b = 16  # divisible by both dimensions
        grid = Grid(m, n)
        inputs = pe_inputs(grid.size, b, seed=12)
        sched = xy_allreduce_schedule(grid, "ring", b)
        sim = simulate(sched, inputs={k: v.copy() for k, v in inputs.items()})
        expected = expected_sum(inputs, b)
        for pe in range(grid.size):
            assert np.allclose(sim.buffers[pe][:b], expected)

    def test_reduce_broadcast_2d_beats_xy_composition(self):
        # §7.4: the X-Y AllReduce broadcasts twice, the 2D-reduce +
        # 2D-broadcast composition only once.
        m = n = 6
        b = 64
        grid = Grid(m, n)
        inputs = pe_inputs(grid.size, b, seed=13)
        xy = simulate(
            xy_allreduce_schedule(grid, "two_phase", b),
            inputs={k: v.copy() for k, v in inputs.items()},
        )
        rb = simulate(
            allreduce_2d_schedule(grid, "two_phase", b),
            inputs={k: v.copy() for k, v in inputs.items()},
        )
        assert rb.cycles < xy.cycles

    def test_rejects_shared_colors(self):
        with pytest.raises(ValueError, match="disjoint"):
            xy_allreduce_schedule(
                Grid(2, 2), "chain", 4, row_colors=(0, 1, 2), col_colors=(2, 3, 4)
            )
