"""Unit tests for the model-driven planner (Figures 8 and 10 regions)."""

import pytest

from repro.core import planner, registry
from repro.core.api import plan
from repro.core.registry import CollectiveSpec
from repro.fabric.geometry import Grid


class TestBestReduce1D:
    def test_tiny_vector_prefers_low_depth(self):
        # Scalars: star-like patterns win (Figure 1a / §5.7).
        choice = planner.best_reduce_1d(64, 1, include=registry.REDUCE_1D)
        assert choice.algorithm in {"star", "autogen"}

    def test_huge_vector_prefers_chain(self):
        choice = planner.best_reduce_1d(
            16, 10**6, include=("star", "chain", "tree", "two_phase")
        )
        assert choice.algorithm == "chain"

    def test_autogen_always_at_least_ties(self):
        # Auto-Gen dominates the fixed patterns under the model.
        for p in [4, 16, 64]:
            for b in [1, 64, 4096]:
                choice = planner.best_reduce_1d(p, b)
                auto = choice.candidates["autogen"]
                # Star's refined prediction may undercut the Eq-1 tree
                # cost at B == 1; everywhere else autogen leads.
                others = {
                    k: v
                    for k, v in choice.candidates.items()
                    if k not in ("autogen", "star")
                }
                assert auto <= min(others.values()) + 1e-9

    def test_candidates_sorted(self):
        choice = planner.best_reduce_1d(32, 256)
        values = list(choice.candidates.values())
        assert values == sorted(values)

    def test_speedup_over(self):
        choice = planner.best_reduce_1d(64, 256)
        assert choice.speedup_over("chain") >= 1.0
        with pytest.raises(KeyError):
            choice.speedup_over("nonexistent")


class TestBestAllReduce1D:
    def test_intermediate_sizes_prefer_two_phase_family(self):
        # Figure 8: around P ~ B the Two-Phase+Bcast region.
        choice = planner.best_allreduce_1d(
            256, 256, include=("star", "chain", "tree", "two_phase", "ring")
        )
        assert choice.algorithm == "two_phase"

    def test_huge_vector_small_p_prefers_ring(self):
        # Figure 8's ring region: bandwidth-dominated corner.
        choice = planner.best_allreduce_1d(
            4, 2**17, include=("star", "chain", "tree", "two_phase", "ring")
        )
        assert choice.algorithm == "ring"

    def test_small_vector_prefers_star(self):
        choice = planner.best_allreduce_1d(
            512, 1, include=("star", "chain", "tree", "two_phase", "ring")
        )
        assert choice.algorithm in {"star", "tree"}


class TestFeasibilityFiltering:
    """Regression: auto must never select a plan that cannot be built.

    The Ring's schedule requires ``B % P == 0``; the seed planner ranked
    it regardless, so ``algorithm="auto"`` could pick an unbuildable
    plan in the Ring's winning region (huge B, small P).
    """

    def test_infeasible_ring_dropped_from_ranking(self):
        # B = 2**17 + 1 at P = 4 is squarely in the Ring's region but
        # not divisible; the Ring must not appear among the candidates.
        choice = planner.best_allreduce_1d(
            4, 2**17 + 1, include=("star", "chain", "tree", "two_phase", "ring")
        )
        assert "ring" not in choice.candidates
        assert choice.algorithm != "ring"

    def test_feasible_ring_still_wins_its_region(self):
        choice = planner.best_allreduce_1d(
            4, 2**17, include=("star", "chain", "tree", "two_phase", "ring")
        )
        assert choice.algorithm == "ring"

    def test_auto_plan_is_buildable_at_indivisible_b(self):
        # End to end: auto planning at the indivisible point must yield
        # a schedule (the seed raised from the Ring builder here).
        p = plan(CollectiveSpec("allreduce", Grid(1, 4), 2**17 + 1))
        assert p.algorithm != "ring"
        assert p.schedule.stats()["pes"] == 4

    def test_entry_feasible_reflects_divisibility(self):
        entry = registry.get_entry("allreduce", 1, "ring")
        good = CollectiveSpec("allreduce", Grid(1, 8), 32, algorithm="ring")
        bad = CollectiveSpec("allreduce", Grid(1, 8), 30, algorithm="ring")
        assert entry.feasible(good)
        assert not entry.feasible(bad)
        assert "divisible" in entry.why_infeasible(bad)

    def test_rank_spec_rejects_unknown_names(self):
        spec = CollectiveSpec("reduce", Grid(1, 8), 32)
        with pytest.raises(ValueError, match="unknown"):
            planner.rank_spec(spec, include=("chain", "quantum"))

    def test_no_feasible_candidate_raises(self):
        spec = CollectiveSpec("allreduce", Grid(1, 8), 30)
        with pytest.raises(ValueError, match="no feasible"):
            planner.rank_spec(spec, include=("ring",))


class TestBest2D:
    def test_huge_b_small_grid_prefers_snake(self):
        # Figure 10 / 13c: bandwidth-bound small grids go to the snake.
        choice = planner.best_reduce_2d(
            4, 4, 8192, include=("star", "chain", "tree", "two_phase", "snake")
        )
        assert choice.algorithm == "snake"

    def test_large_grid_moderate_b(self):
        choice = planner.best_allreduce_2d(
            64, 64, 256, include=("star", "chain", "tree", "two_phase", "snake")
        )
        assert choice.algorithm in {"two_phase", "tree"}

    def test_scalar_prefers_low_depth(self):
        choice = planner.best_reduce_2d(
            32, 32, 1, include=("star", "chain", "tree", "two_phase", "snake")
        )
        assert choice.algorithm in {"star", "tree"}


class TestRankSpecDispatch:
    def test_dispatch_1d(self):
        c = planner.rank_spec(CollectiveSpec("reduce", Grid(1, 16), 64))
        assert c.algorithm in registry.REDUCE_1D

    def test_dispatch_2d(self):
        c = planner.rank_spec(CollectiveSpec("allreduce", Grid(8, 8), 64))
        assert c.algorithm in registry.ALLREDUCE_2D

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            planner.rank_spec(CollectiveSpec("reduce", Grid(1, 4), 8),
                              include=("nope",))
        with pytest.raises(ValueError):
            CollectiveSpec("scan", Grid(1, 4), 8)


class TestRegistry:
    def test_metadata_complete(self):
        for table in (
            registry.REDUCE_1D,
            registry.ALLREDUCE_1D,
            registry.REDUCE_2D,
            registry.ALLREDUCE_2D,
        ):
            for name, info in table.items():
                assert info.name == name
                assert info.origin in {"vendor", "prior", "paper", "classic"}
                assert info.description

    def test_vendor_baseline_is_chain(self):
        assert registry.REDUCE_1D["chain"].origin == "vendor"

    def test_predictors_positive(self):
        for name in registry.REDUCE_1D:
            assert registry.reduce_1d_predict(name, 8, 16) > 0
        for name in registry.ALLREDUCE_1D:
            assert registry.allreduce_1d_predict(name, 8, 16) > 0
        for name in registry.REDUCE_2D:
            assert registry.reduce_2d_predict(name, 4, 4, 16) > 0
        for name in registry.ALLREDUCE_2D:
            assert registry.allreduce_2d_predict(name, 4, 4, 16) > 0

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            registry.reduce_1d_predict("bogus", 8, 8)
