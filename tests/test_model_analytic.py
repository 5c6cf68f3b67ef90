"""Unit tests for the closed-form algorithm predictions (Lemmas 4.1-7.2)."""

import numpy as np
import pytest

from repro.core import registry
from repro.model import analytic
from repro.model.params import CS2

TR = CS2.ramp_latency  # 2
DC = CS2.depth_cycles  # 5


class TestMessageAndBroadcast:
    def test_message_formula(self):
        # T = B + P + 2 T_R  (Section 4.1)
        assert analytic.message_time(8, 16) == 16 + 8 + 2 * TR

    def test_broadcast_equals_message(self):
        # Lemma 4.1: multicast makes broadcast as cheap as a message.
        for p, b in [(4, 1), (32, 256), (512, 4096)]:
            assert analytic.broadcast_1d_time(p, b) == analytic.message_time(p, b)

    def test_single_pe_is_free(self):
        assert analytic.broadcast_1d_time(1, 100) == 0.0

    def test_terms_match_lemma(self):
        t = analytic.broadcast_1d_terms(8, 16)
        assert t.depth == 1
        assert t.distance == 7
        assert t.energy == 16 * 7
        assert t.contention == 16
        assert t.links == 7

    def test_single_pe_message_is_free(self):
        assert analytic.message_time(1, 100) == 0.0


class TestStar:
    def test_refined_formula(self):
        # T_Star = B(P-1) + 2 T_R + 1 (refined pipeline argument, §5.1)
        assert analytic.star_reduce_time(8, 16) == 16 * 7 + 2 * TR + 1

    def test_terms_match_lemma_51(self):
        t = analytic.star_reduce_terms(8, 16)
        assert t.depth == 1
        assert t.distance == 7
        assert t.energy == 16 * 8 * 7 / 2
        assert t.contention == 16 * 7

    def test_scalar_case_approaches_distance_bound(self):
        # For B = 1 the runtime approaches P - 1.
        assert analytic.star_reduce_time(512, 1) == 511 + 2 * TR + 1


class TestChain:
    def test_formula(self):
        # Lemma 5.2: T = B + (2 T_R + 2)(P - 1)
        assert analytic.chain_reduce_time(8, 16) == 16 + (2 * TR + 2) * 7

    def test_terms(self):
        t = analytic.chain_reduce_terms(8, 16)
        assert t.depth == 7
        assert t.contention == 16
        assert t.energy == 16 * 7

    def test_large_vectors_approach_contention_bound(self):
        # For B >> T_R * P the runtime approaches B.
        b = 10**6
        assert analytic.chain_reduce_time(16, b) / b < 1.01


class TestTree:
    def test_formula_power_of_two(self):
        p, b = 8, 16
        rounds = 3
        bw = b * p / 2 * rounds / (p - 1) + (p - 1)
        expected = max(b * rounds, bw) + DC * rounds
        assert analytic.tree_reduce_time(p, b) == pytest.approx(expected)

    def test_non_power_of_two_uses_ceil_log(self):
        t5 = analytic.tree_reduce_time(5, 4)
        t8 = analytic.tree_reduce_time(8, 4)
        assert t5 > 0
        # 5 PEs need ceil(log2 5) = 3 rounds, same as 8 PEs.
        assert analytic.tree_reduce_terms(5, 4).depth == 3
        assert t5 <= t8

    def test_contention_grows_with_log(self):
        t = analytic.tree_reduce_terms(64, 10)
        assert t.contention == 10 * 6


class TestTwoPhase:
    def test_group_size_is_sqrt(self):
        assert analytic.two_phase_group_size(16) == 4
        assert analytic.two_phase_group_size(512) == 23  # round(22.6)

    def test_perfect_square_matches_lemma_54(self):
        p, b = 16, 64
        t = analytic.two_phase_reduce_time(p, b)
        s = 4
        expected = max(2 * b, 2 * b - 2 * b / s + p) + (2 * s - 2) * DC
        assert t == pytest.approx(expected)

    def test_contention_is_twice_chain(self):
        terms = analytic.two_phase_reduce_terms(16, 8)
        assert terms.contention == 16  # 2B

    def test_depth_is_two_sqrt(self):
        terms = analytic.two_phase_reduce_terms(16, 8)
        assert terms.depth == 6  # (4-1) + (4-1)

    def test_general_p(self):
        # Non-square P still computes something sane and positive.
        for p in [5, 7, 12, 100, 300]:
            assert analytic.two_phase_reduce_time(p, 32) > 0

    def test_custom_group_size(self):
        t_s2 = analytic.two_phase_reduce_time(16, 64, group_size=2)
        t_s4 = analytic.two_phase_reduce_time(16, 64, group_size=4)
        t_s8 = analytic.two_phase_reduce_time(16, 64, group_size=8)
        # sqrt(P) should be no worse than the extremes for balanced B.
        assert t_s4 <= max(t_s2, t_s8)


class TestRing:
    def test_formula(self):
        # Lemma 6.1
        p, b = 8, 64
        expected = 2 * (p - 1) * b / p + 4 * p - 6 + 2 * (p - 1) * DC
        assert analytic.ring_allreduce_time(p, b) == pytest.approx(expected)

    def test_terms_links_are_bidirectional(self):
        assert analytic.ring_allreduce_terms(8, 64).links == 14

    def test_depth_dominates_at_scale(self):
        # The paper's point: ring is depth-bound on the WSE, so
        # Reduce-then-Broadcast beats it except for huge vectors.
        p, b = 512, 256
        chain_ar = registry.allreduce_1d_predict("chain", p, b)
        ring = analytic.ring_allreduce_time(p, b)
        assert chain_ar < ring


class TestAllReduce1D:
    def test_reduce_then_broadcast_sum(self):
        p, b = 16, 32
        r = analytic.chain_reduce_time(p, b)
        total = registry.allreduce_1d_predict("chain", p, b)
        assert total == r + analytic.broadcast_1d_time(p, b)

    def test_ring_route(self):
        assert registry.allreduce_1d_predict("ring", 8, 64) == (
            analytic.ring_allreduce_time(8, 64)
        )

    def test_butterfly_is_positive_and_finite(self):
        t = analytic.butterfly_allreduce_time(64, 256)
        assert np.isfinite(t) and t > 0

    def test_butterfly_is_equation_one_on_its_terms(self):
        for variant in ("recursive_doubling", "halving_doubling"):
            terms = analytic.butterfly_allreduce_terms(64, 256, variant)
            assert analytic.butterfly_allreduce_time(
                64, 256, variant=variant) == terms.synthesize()
        with pytest.raises(ValueError):
            analytic.butterfly_allreduce_terms(8, 8, "nope")

    def test_unknown_pattern_raises(self):
        with pytest.raises(ValueError):
            registry.allreduce_1d_predict("nope", 8, 8)


class Test2D:
    def test_broadcast_2d_formula(self):
        # Lemma 7.1: T = B + M + N - 2 + 2 T_R + 1
        assert analytic.broadcast_2d_time(4, 6, 16) == 16 + 4 + 6 - 2 + 2 * TR + 1

    def test_broadcast_2d_beats_flattened_row(self):
        # §7.1: sqrt(P) x sqrt(P) broadcast beats a P-length row broadcast.
        p = 256
        assert analytic.broadcast_2d_time(16, 16, 64) < analytic.broadcast_1d_time(p, 64)

    def test_snake_equals_chain_on_full_size(self):
        assert analytic.snake_reduce_time(8, 8, 32) == analytic.chain_reduce_time(64, 32)

    def test_xy_composition_adds(self):
        m, n, b = 4, 8, 16
        t = registry.reduce_2d_predict("chain", m, n, b)
        assert t == (
            analytic.chain_reduce_time(n, b) + analytic.chain_reduce_time(m, b)
        )

    def test_lower_bound_2d(self):
        # Lemma 7.2 (distance term is the corner root's eccentricity
        # M + N - 2, matching the 1D bound's P - 1 when M = 1).
        m, n, b = 8, 8, 64
        expected = max(b, b / 8 + m + n - 2) + DC
        assert analytic.lower_bound_2d_time(m, n, b) == pytest.approx(expected)

    def test_snake_is_2d_optimal_for_huge_b(self):
        # §7.5: for B >> P the snake approaches the 2D lower bound.
        m = n = 8
        b = 10**6
        snake = analytic.snake_reduce_time(m, n, b)
        lb = analytic.lower_bound_2d_time(m, n, b)
        assert snake / lb < 1.01


class TestValidationErrors:
    def test_rejects_zero_pes(self):
        with pytest.raises(ValueError):
            analytic.chain_reduce_time(0, 4)

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            analytic.star_reduce_time(4, 0)
