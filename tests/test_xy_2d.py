"""Integration tests for 2D Reduce: X-Y composition and Snake (Section 7)."""

import dataclasses

import numpy as np
import pytest

from helpers import expected_sum, pe_inputs
from repro.collectives import (
    allreduce_2d_schedule,
    allreduce_lane_schedule,
    broadcast_2d_schedule,
    col_lane,
    reduce_tree_for,
    row_lane,
    schedule_tree_reduce,
    snake_reduce_schedule,
    xy_allreduce_schedule,
    xy_reduce_schedule,
)
from repro.fabric import Grid, simulate
from repro.fabric.ir import (
    ScheduleArrays,
    lower_arrays,
    merge_parallel,
    merge_sequential,
)
from repro.model import analytic
from repro.model.params import CS2

PATTERNS = ["star", "chain", "tree", "two_phase", "autogen"]


class TestXYReduce:
    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("shape", [(2, 2), (3, 5), (4, 4), (5, 3)])
    def test_sums_to_corner(self, pattern, shape):
        m, n = shape
        b = 8
        grid = Grid(m, n)
        inputs = pe_inputs(grid.size, b, seed=m * 10 + n)
        sched = xy_reduce_schedule(grid, pattern, b)
        sim = simulate(sched, inputs={k: v.copy() for k, v in inputs.items()})
        assert np.allclose(sim.buffers[0][:b], expected_sum(inputs, b))

    def test_single_row_grid(self):
        grid = Grid(1, 6)
        b = 4
        inputs = pe_inputs(6, b, seed=0)
        sched = xy_reduce_schedule(grid, "chain", b)
        sim = simulate(sched, inputs={k: v.copy() for k, v in inputs.items()})
        assert np.allclose(sim.buffers[0][:b], expected_sum(inputs, b))

    def test_single_column_grid(self):
        grid = Grid(6, 1)
        b = 4
        inputs = pe_inputs(6, b, seed=0)
        sched = xy_reduce_schedule(grid, "chain", b)
        sim = simulate(sched, inputs={k: v.copy() for k, v in inputs.items()})
        assert np.allclose(sim.buffers[0][:b], expected_sum(inputs, b))

    def test_rejects_shared_colors(self):
        with pytest.raises(ValueError, match="disjoint"):
            xy_reduce_schedule(
                Grid(2, 2), "chain", 4, row_colors=(0, 1), col_colors=(1, 2)
            )

    def test_row_phase_contention_isolated_per_row(self):
        # Each row root receives only its row's traffic plus one column
        # message stream.
        grid = Grid(4, 4)
        b = 4
        inputs = pe_inputs(16, b, seed=1)
        sched = xy_reduce_schedule(grid, "star", b)
        sim = simulate(sched, inputs={k: v.copy() for k, v in inputs.items()})
        # Row 3's root (PE 12) receives 3 row messages, sends 1 column msg.
        assert sim.received[12] == 3 * b

    def test_cycles_close_to_model(self):
        m = n = 8
        b = 32
        grid = Grid(m, n)
        inputs = pe_inputs(grid.size, b, seed=2)
        for pattern in ["chain", "tree", "two_phase"]:
            sched = xy_reduce_schedule(grid, pattern, b)
            sim = simulate(sched, inputs={k: v.copy() for k, v in inputs.items()})
            fn = analytic.REDUCE_1D_TIMES[pattern]
            predicted = float(fn(n, b)) + float(fn(m, b))
            # X-Y composition adds a phase handoff; the paper notes extra
            # register-load overhead here too (§8.7).
            assert sim.cycles <= 1.25 * predicted + 30, (pattern, sim.cycles, predicted)
            assert sim.cycles >= 0.70 * predicted, (pattern, sim.cycles, predicted)


class TestSnake:
    @pytest.mark.parametrize("shape", [(2, 2), (2, 5), (4, 4), (5, 2), (3, 3)])
    def test_sums_to_corner(self, shape):
        m, n = shape
        b = 8
        grid = Grid(m, n)
        inputs = pe_inputs(grid.size, b, seed=7)
        sched = snake_reduce_schedule(grid, b)
        sim = simulate(sched, inputs={k: v.copy() for k, v in inputs.items()})
        assert np.allclose(sim.buffers[0][:b], expected_sum(inputs, b))

    def test_matches_chain_timing(self):
        m, n, b = 4, 4, 64
        grid = Grid(m, n)
        inputs = pe_inputs(grid.size, b, seed=3)
        sim = simulate(
            snake_reduce_schedule(grid, b),
            inputs={k: v.copy() for k, v in inputs.items()},
        )
        predicted = analytic.snake_reduce_time(m, n, b)
        assert abs(sim.cycles - predicted) <= 5

    def test_energy_is_chain_energy(self):
        m, n, b = 3, 4, 8
        grid = Grid(m, n)
        inputs = pe_inputs(grid.size, b, seed=4)
        sim = simulate(
            snake_reduce_schedule(grid, b),
            inputs={k: v.copy() for k, v in inputs.items()},
        )
        assert sim.energy == b * (m * n - 1)

    def test_snake_wins_for_huge_b_on_small_grid(self):
        # Figure 13c: bandwidth-bound regime favours the snake.
        grid = Grid(4, 4)
        b = 2048
        inputs = pe_inputs(16, b, seed=5)
        snake = simulate(
            snake_reduce_schedule(grid, b),
            inputs={k: v.copy() for k, v in inputs.items()},
        )
        xy = simulate(
            xy_reduce_schedule(grid, "chain", b),
            inputs={k: v.copy() for k, v in inputs.items()},
        )
        assert snake.cycles < xy.cycles


# -- the per-row construction the stamped builders replaced -----------------


def reference_xy_reduce(grid, pattern, b, row_colors=(0, 1),
                        col_colors=(2, 3), params=CS2):
    """X-Y Reduce built row by row and merged with ``merge_parallel``."""
    if set(row_colors) & set(col_colors):
        raise ValueError("row and column phases must use disjoint colors")

    # Row phase: the same tree shape for every row.
    row_tree = reduce_tree_for(pattern, grid.cols, b, params)
    row_schedules = [
        schedule_tree_reduce(
            grid,
            row_tree,
            row_lane(grid, row),
            b,
            colors=row_colors,
            name=f"xy-row-{pattern}",
            validate=False,
        )
        for row in range(grid.rows)
    ]
    rows = merge_parallel(row_schedules, name=f"xy-rows-{pattern}")

    # Column phase along column 0.
    col_tree = reduce_tree_for(pattern, grid.rows, b, params)
    cols = schedule_tree_reduce(
        grid,
        col_tree,
        col_lane(grid, 0),
        b,
        colors=col_colors,
        name=f"xy-col-{pattern}",
        validate=False,
    )
    merged = merge_sequential(rows, cols, name=f"xy-reduce-{pattern}")
    merged.validate()
    return merged


def reference_xy_allreduce(grid, pattern, b, row_colors=(0, 1, 2),
                           col_colors=(3, 4, 5), params=CS2):
    """X-Y AllReduce with one lane AllReduce per row and per column."""
    if set(row_colors) & set(col_colors):
        raise ValueError("row and column phases must use disjoint colors")
    rows = merge_parallel(
        [
            allreduce_lane_schedule(
                grid, row_lane(grid, r), pattern, b,
                colors=row_colors, params=params,
                name=f"xy-allreduce-row{r}",
            )
            for r in range(grid.rows)
        ],
        name=f"xy-allreduce-rows-{pattern}",
    )
    cols = merge_parallel(
        [
            allreduce_lane_schedule(
                grid, col_lane(grid, c), pattern, b,
                colors=col_colors, params=params,
                name=f"xy-allreduce-col{c}",
            )
            for c in range(grid.cols)
        ],
        name=f"xy-allreduce-cols-{pattern}",
    )
    merged = merge_sequential(rows, cols, name=f"xy-allreduce-{pattern}")
    merged.validate()
    return merged


def reference_allreduce_2d(grid, pattern, b, bcast_color=4, params=CS2):
    """2D Reduce (validated) then the 2D broadcast, merged pairwise."""
    if pattern == "snake":
        reduce_phase = snake_reduce_schedule(grid, b, colors=(0, 1), params=params)
    else:
        reduce_phase = reference_xy_reduce(
            grid, pattern, b, row_colors=(0, 1), col_colors=(2, 3), params=params
        )
    bcast_phase = broadcast_2d_schedule(grid, b, color=bcast_color)
    merged = merge_sequential(
        reduce_phase, bcast_phase, name=f"allreduce-2d-{pattern}"
    )
    merged.validate()
    return merged


def assert_same_schedule(got, want):
    """Equal names, PE order, programs, rule lists, ops and dense arrays."""
    assert got.name == want.name
    assert got.buffer_size == want.buffer_size
    assert got.grid == want.grid
    assert list(got.programs) == list(want.programs)
    for pe, prog in want.programs.items():
        mine = got.programs[pe]
        assert list(mine.router.items()) == list(prog.router.items()), pe
        assert mine.ops == prog.ops, pe
    assert got.programs == want.programs
    lo_got, lo_want = lower_arrays(got), lower_arrays(want)
    for f in dataclasses.fields(ScheduleArrays):
        a, b = getattr(lo_got, f.name), getattr(lo_want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


EQUIV_PATTERNS = ["chain", "tree", "two_phase", "star", "autogen"]
EQUIV_GRIDS = [(1, 7), (7, 1), (3, 5), (8, 8), (16, 64)]
EQUIV_BS = [1, 64, 1024]


@pytest.mark.parametrize("b", EQUIV_BS)
@pytest.mark.parametrize("shape", EQUIV_GRIDS)
@pytest.mark.parametrize("pattern", EQUIV_PATTERNS)
class TestStampedEqualsPerRow:
    """Stamping row 0 builds exactly the schedule the per-row merge did."""

    def test_reduce(self, pattern, shape, b):
        grid = Grid(*shape)
        assert_same_schedule(
            xy_reduce_schedule(grid, pattern, b),
            reference_xy_reduce(grid, pattern, b),
        )

    def test_allreduce(self, pattern, shape, b):
        grid = Grid(*shape)
        assert_same_schedule(
            allreduce_2d_schedule(grid, pattern, b),
            reference_allreduce_2d(grid, pattern, b),
        )

    def test_xy_allreduce(self, pattern, shape, b):
        grid = Grid(*shape)
        assert_same_schedule(
            xy_allreduce_schedule(grid, pattern, b),
            reference_xy_allreduce(grid, pattern, b),
        )


@pytest.mark.parametrize("shape, b", [((4, 4), 64), ((2, 8), 16), ((8, 8), 64)])
def test_stamped_xy_ring_allreduce_equals_per_row(shape, b):
    grid = Grid(*shape)
    assert_same_schedule(
        xy_allreduce_schedule(grid, "ring", b),
        reference_xy_allreduce(grid, "ring", b),
    )


@pytest.mark.parametrize("shape", [(1, 7), (3, 5), (8, 8)])
def test_snake_allreduce_equals_pairwise_merge(shape):
    grid = Grid(*shape)
    assert_same_schedule(
        allreduce_2d_schedule(grid, "snake", 64),
        reference_allreduce_2d(grid, "snake", 64),
    )
