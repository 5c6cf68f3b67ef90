"""Unit tests for reduction trees: structure, invariants, reconstruction."""

import numpy as np
import pytest

from repro.autogen.tree import (
    Message,
    ReductionTree,
    autogen_tree,
    binomial_tree,
    chain_tree,
    star_tree,
    two_phase_tree,
)
from repro.collectives import build_schedule
from repro.fabric.geometry import Grid


class TestStructuralQueries:
    def test_star_shape(self):
        t = star_tree(8)
        assert t.children[0] == list(range(1, 8))
        assert t.depth() == 1
        assert t.contention() == 7
        assert t.energy() == 8 * 7 / 2  # Lemma 5.1 per-scalar energy

    def test_chain_shape(self):
        t = chain_tree(8)
        assert t.depth() == 7
        assert t.contention() == 1
        assert t.energy() == 7  # Lemma 5.2 per-scalar energy

    def test_binomial_shape_power_of_two(self):
        t = binomial_tree(8)
        assert t.depth() == 3
        assert t.contention() == 3
        # Lemma 5.3: energy B P/2 log P per scalar = 4 * 3.
        assert t.energy() == 12

    def test_binomial_non_power_of_two(self):
        for p in [3, 5, 6, 7, 11, 20]:
            t = binomial_tree(p)
            t.validate()
            assert t.depth() <= int(np.ceil(np.log2(p)))

    def test_two_phase_shape(self):
        t = two_phase_tree(16)
        assert t.depth() == 6  # (S-1) + (P/S - 1) with S=4
        assert t.contention() == 2

    def test_two_phase_group_one_is_chain(self):
        assert two_phase_tree(8, group_size=1).children == chain_tree(8).children

    def test_two_phase_group_p_is_chain(self):
        assert two_phase_tree(8, group_size=8).children == chain_tree(8).children

    def test_two_phase_non_square(self):
        for p in [5, 7, 12, 30, 100]:
            t = two_phase_tree(p)
            t.validate()
            assert t.contention() <= 2

    def test_parent_array(self):
        t = chain_tree(4)
        assert t.parent_array().tolist() == [-1, 0, 1, 2]

    def test_subtree_sizes(self):
        t = binomial_tree(8)
        sizes = t.subtree_sizes()
        assert sizes[0] == 8
        assert sizes[4] == 4

    def test_message_post_order_chain(self):
        msgs = chain_tree(4).message_post_order()
        assert [(m.src, m.dst) for m in msgs] == [(3, 2), (2, 1), (1, 0)]

    def test_message_post_order_star(self):
        msgs = star_tree(4).message_post_order()
        assert [(m.src, m.dst) for m in msgs] == [(1, 0), (2, 0), (3, 0)]

    def test_single_vertex(self):
        t = ReductionTree(p=1)
        t.validate()
        assert t.depth() == 0 and t.contention() == 0 and t.energy() == 0


class TestValidation:
    def test_rejects_non_preorder_children(self):
        t = ReductionTree(p=3)
        t.children[0] = [2, 1]  # wrong order
        with pytest.raises(ValueError):
            t.validate()

    def test_rejects_orphan(self):
        t = ReductionTree(p=3)
        t.children[0] = [1]  # vertex 2 unreachable
        with pytest.raises(ValueError):
            t.validate()

    def test_rejects_double_parent(self):
        t = ReductionTree(p=3)
        t.children[0] = [1]
        t.children[1] = [2]
        t.children[2] = []
        t.validate()  # fine
        t.children[0] = [1, 2]
        t.children[1] = [2]
        with pytest.raises(ValueError):
            t.validate()

    def test_rejects_out_of_range_child(self):
        t = ReductionTree(p=3)
        t.children[0] = [1, 5]
        with pytest.raises(ValueError):
            t.validate()

    def test_rejects_noncontiguous_subtree(self):
        t = ReductionTree(p=4)
        t.children[0] = [1, 3]
        t.children[1] = [2]
        # subtree of 1 is {1, 2}, so child 3 starts correctly... make a
        # genuinely non-contiguous case: 1's subtree claims {1}, then 3.
        t2 = ReductionTree(p=4)
        t2.children[0] = [1, 2]
        t2.children[2] = [3]
        t2.validate()  # contiguous
        t3 = ReductionTree(p=4)
        t3.children[0] = [1]
        t3.children[1] = [3]
        t3.children[3] = [2]
        with pytest.raises(ValueError):
            t3.validate()


class TestAutogenReconstruction:
    @pytest.mark.parametrize("p", [2, 3, 4, 7, 8, 16, 33])
    @pytest.mark.parametrize("b", [1, 8, 256])
    def test_tree_matches_dp_budgets(self, p, b):
        tree, sol = autogen_tree(p, b)
        tree.validate()
        assert tree.energy() == sol.energy
        assert tree.depth() <= sol.depth
        assert tree.contention() <= sol.contention
        # The reconstructed tree can only be as good or better than the
        # budgeted DP time under the same synthesis.
        assert tree.model_time(b) <= sol.time + 1e-9

    def test_scalar_large_p_prefers_shallow_trees(self):
        tree, _ = autogen_tree(64, 1)
        assert tree.depth() < 16

    def test_huge_b_prefers_chain_like(self):
        tree, _ = autogen_tree(16, 4096)
        assert tree.contention() <= 2

    def test_model_time_positive(self):
        tree, _ = autogen_tree(8, 16)
        assert tree.model_time(16) > 0
        with pytest.raises(ValueError):
            tree.model_time(0)

    def test_describe(self):
        tree, _ = autogen_tree(8, 16)
        s = tree.describe()
        assert "p=8" in s and "depth=" in s


def recursive_post_order(tree):
    """Reference traversal: post-order, children left to right."""
    order = []

    def visit(v):
        for c in tree.children[v]:
            visit(c)
            order.append(Message(src=c, dst=v))

    visit(0)
    return order


class TestDeepTrees:
    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 13, 16, 31, 64])
    def test_post_order_matches_recursive_reference(self, p):
        trees = [star_tree(p), chain_tree(p), binomial_tree(p), two_phase_tree(p)]
        trees += [autogen_tree(p, b)[0] for b in (1, 16, 256, 4096)]
        for tree in trees:
            assert tree.message_post_order() == recursive_post_order(tree)

    @pytest.mark.parametrize(
        "kind, rows, cols, algorithm",
        [
            ("reduce", 1, 2048, "chain"),
            ("allreduce", 1, 2048, "chain"),
            ("reduce", 64, 64, "snake"),
        ],
    )
    def test_build_schedule_past_recursion_limit(self, kind, rows, cols, algorithm):
        # Trees here are thousands of levels deep; no DP is involved.
        schedule = build_schedule(kind, Grid(rows, cols), algorithm, 256)
        assert schedule.grid.size == rows * cols
