"""Property-based tests (hypothesis) on the core invariants.

These encode the paper's structural claims as properties over random
instances: lower bound below every algorithm, Auto-Gen dominance, DP
monotonicity, tree invariants, scheduler correctness on random trees, and
simulator determinism.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autogen.dp import autogen_tables, autogen_time
from repro.autogen.hybrid import autogen_hybrid_time, fixed_tree_candidates
from repro.autogen.tree import ReductionTree, autogen_tree
from repro.collectives.tree_schedule import schedule_tree_reduce
from repro.core.registry import allreduce_1d_predict
from repro.fabric import row_grid, simulate
from repro.model import analytic
from repro.model.lower_bound import energy_lower_bound_table, reduce_lower_bound_time
from repro.model.params import CS2

ps = st.integers(min_value=2, max_value=48)
bs = st.integers(min_value=1, max_value=4096)


@st.composite
def random_reduction_trees(draw, max_p: int = 14):
    """Uniform-ish random pre-order trees built by recursive splitting."""
    p = draw(st.integers(min_value=1, max_value=max_p))
    tree = ReductionTree(p=p)

    def build(base: int, size: int) -> None:
        remaining = size - 1
        cursor = base + 1
        while remaining > 0:
            block = draw(st.integers(min_value=1, max_value=remaining))
            tree.children[base].append(cursor)
            build(cursor, block)
            cursor += block
            remaining -= block

    build(0, p)
    tree.validate()
    return tree


class TestLowerBoundProperties:
    @given(p=ps, b=bs)
    def test_lower_bound_below_all_fixed_patterns(self, p, b):
        lb = reduce_lower_bound_time(p, b)
        for name, terms_fn in analytic.REDUCE_1D_TERMS.items():
            assert lb <= terms_fn(p, b).synthesize(CS2) + 1e-6

    @given(p=ps, b=bs)
    def test_lower_bound_below_autogen(self, p, b):
        assert reduce_lower_bound_time(p, b) <= autogen_hybrid_time(p, b) + 1e-6

    @given(p=ps)
    def test_energy_table_monotone_in_depth(self, p):
        table = energy_lower_bound_table(p)
        col = table[1:, p]
        assert np.all(np.diff(col) <= 1e-12)

    @given(p=ps, b=bs)
    def test_bound_monotone_in_b(self, p, b):
        assert reduce_lower_bound_time(p, b) <= reduce_lower_bound_time(p, b + 1) + 1e-9


class TestAutogenProperties:
    @given(p=st.integers(min_value=2, max_value=24), b=bs)
    def test_hybrid_dominates_fixed(self, p, b):
        hybrid = autogen_hybrid_time(p, b)
        for tree in fixed_tree_candidates(p).values():
            assert hybrid <= tree.model_time(b) + 1e-6

    @given(p=st.integers(min_value=2, max_value=20), b=st.integers(1, 512))
    def test_reconstruction_consistent(self, p, b):
        tree, sol = autogen_tree(p, b)
        tree.validate()
        assert tree.energy() == sol.energy
        assert tree.depth() <= sol.depth
        assert tree.contention() <= sol.contention
        assert tree.model_time(b) <= sol.time + 1e-9

    @given(p=st.integers(min_value=2, max_value=16))
    def test_dp_energy_above_lb_energy(self, p):
        auto = autogen_tables(p, d_max=p - 1, c_max=p - 1)
        lb = energy_lower_bound_table(p)
        for d in range(1, p):
            finite = auto[d, :, p][np.isfinite(auto[d, :, p])]
            if len(finite):
                assert finite.min() >= lb[d, p] - 1e-9

    @given(p=st.integers(min_value=2, max_value=16), b=st.integers(1, 256))
    def test_capped_equals_exact_for_small_p(self, p, b):
        assert autogen_time(p, b) == pytest.approx(
            autogen_time(p, b, d_max=p - 1, c_max=p - 1)
        )


class TestTreeProperties:
    @given(tree=random_reduction_trees())
    def test_energy_distance_identities(self, tree):
        # Energy equals sum of subtree boundary crossings; at least P-1,
        # at most the star energy.
        p = tree.p
        if p == 1:
            assert tree.energy() == 0
            return
        assert p - 1 <= tree.energy() <= p * (p - 1) / 2
        assert 1 <= tree.depth() <= p - 1
        assert 1 <= tree.contention() <= p - 1

    @given(tree=random_reduction_trees())
    def test_post_order_covers_all_edges(self, tree):
        msgs = tree.message_post_order()
        assert len(msgs) == tree.p - 1
        # Each message's source was fully resolved before it is sent:
        # its subtree's messages appear earlier in the order.
        seen = set()
        sizes = tree.subtree_sizes()
        for m in msgs:
            for inner in range(m.src, m.src + sizes[m.src]):
                if inner != m.src:
                    assert inner in seen
            seen.add(m.src)

    @given(tree=random_reduction_trees())
    def test_model_time_bounded_by_star_and_chain(self, tree):
        b = 16
        if tree.p == 1:
            return
        t = tree.model_time(b)
        worst = max(
            fixed_tree_candidates(tree.p)[name].model_time(b)
            for name in ("star", "chain")
        )
        assert t <= worst * 2 + 100  # generous sanity envelope
        assert t >= reduce_lower_bound_time(tree.p, b) - 1e-6


class TestSchedulerProperties:
    @given(tree=random_reduction_trees(max_p=10), b=st.integers(1, 24))
    @settings(max_examples=20)
    def test_any_tree_schedules_and_sums(self, tree, b):
        # Every valid pre-order tree must lower to a correct schedule.
        grid = row_grid(tree.p)
        lane = list(range(tree.p))
        sched = schedule_tree_reduce(grid, tree, lane, b)
        gen = np.random.default_rng(tree.p * 1000 + b)
        inputs = {pe: gen.normal(size=b) for pe in range(tree.p)}
        sim = simulate(sched, inputs={k: v.copy() for k, v in inputs.items()})
        expected = np.sum(list(inputs.values()), axis=0)
        assert np.allclose(sim.buffers[0][:b], expected)

    @given(tree=random_reduction_trees(max_p=8), b=st.integers(1, 16))
    @settings(max_examples=15)
    def test_energy_measured_equals_tree_energy(self, tree, b):
        if tree.p == 1:
            return
        grid = row_grid(tree.p)
        sched = schedule_tree_reduce(grid, tree, list(range(tree.p)), b)
        gen = np.random.default_rng(0)
        inputs = {pe: gen.normal(size=b) for pe in range(tree.p)}
        sim = simulate(sched, inputs=inputs)
        assert sim.energy == b * tree.energy()

    @given(tree=random_reduction_trees(max_p=8))
    @settings(max_examples=15)
    def test_simulation_deterministic(self, tree):
        b = 4
        grid = row_grid(tree.p)
        gen = np.random.default_rng(1)
        inputs = {pe: gen.normal(size=b) for pe in range(tree.p)}
        runs = []
        for _ in range(2):
            sched = schedule_tree_reduce(grid, tree, list(range(tree.p)), b)
            sim = simulate(sched, inputs={k: v.copy() for k, v in inputs.items()})
            runs.append((sim.cycles, sim.energy))
        assert runs[0] == runs[1]


class TestModelProperties:
    @given(p=ps, b=bs)
    def test_broadcast_never_beats_message(self, p, b):
        assert analytic.broadcast_1d_time(p, b) >= analytic.message_time(p, b) - 1e-9

    @given(p=ps, b=bs)
    def test_allreduce_at_least_reduce(self, p, b):
        for name in ("star", "chain", "tree", "two_phase"):
            ar = allreduce_1d_predict(name, p, b)
            r = analytic.REDUCE_1D_TIMES[name](p, b)
            assert ar >= r

    @given(m=st.integers(1, 32), n=st.integers(1, 32), b=bs)
    def test_2d_lower_bound_below_snake(self, m, n, b):
        if m * n < 2:
            return
        assert analytic.lower_bound_2d_time(m, n, b) <= analytic.snake_reduce_time(
            m, n, b
        ) + 1e-6

    @given(p=st.integers(2, 64), b=bs)
    def test_times_scale_monotonically(self, p, b):
        for name, fn in analytic.REDUCE_1D_TIMES.items():
            assert fn(p, b) <= fn(p, b + 16) + 1e-9
            assert fn(p, b) <= fn(p + 4, b) + 1e-9
