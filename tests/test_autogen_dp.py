"""Unit tests for the Auto-Gen energy DP (Section 5.5)."""

from functools import lru_cache

import numpy as np
import pytest

from repro.autogen.dp import (
    autogen_best_params,
    autogen_tables,
    autogen_time,
    autogen_time_curve,
    default_cap,
)
from repro.model.params import CS2


class TestTableAnchors:
    def test_star_energy_at_depth_one(self):
        # D=1 requires full contention and gives the star energy P(P-1)/2.
        table = autogen_tables(16, d_max=15, c_max=15)
        for p in range(2, 17):
            assert table[1, p - 1, p] == p * (p - 1) / 2

    def test_chain_energy_at_contention_one(self):
        # C=1 forces a path: energy P-1 at depth P-1.
        table = autogen_tables(16, d_max=15, c_max=15)
        for p in range(2, 17):
            assert table[p - 1, 1, p] == p - 1

    def test_depth_one_needs_full_contention(self):
        table = autogen_tables(8, d_max=7, c_max=7)
        # With D=1 and C < P-1 the reduce is infeasible.
        assert np.isinf(table[1, 3, 8])
        assert np.isfinite(table[1, 7, 8])

    def test_single_pe_free(self):
        table = autogen_tables(8, d_max=4, c_max=4)
        assert np.all(table[:, :, 1] == 0.0)

    def test_monotone_in_depth_and_contention(self):
        table = autogen_tables(12, d_max=11, c_max=11)
        for p in range(2, 13):
            # Replace inf (infeasible) by a huge finite sentinel so that
            # inf -> finite transitions count as decreases, not NaNs.
            grid = np.where(np.isinf(table[:, :, p]), 1e18, table[:, :, p])
            assert np.all(np.diff(grid, axis=0) <= 0)  # more depth helps
            assert np.all(np.diff(grid, axis=1) <= 0)  # more messages help

    def test_energy_never_below_lower_bound_dp(self):
        from repro.model.lower_bound import energy_lower_bound_table

        p_max = 16
        auto = autogen_tables(p_max, d_max=p_max - 1, c_max=p_max - 1)
        lb = energy_lower_bound_table(p_max)
        for p in range(2, p_max + 1):
            for d in range(1, p):
                best_at_d = np.nanmin(
                    np.where(np.isfinite(auto[d, :, p]), auto[d, :, p], np.nan)
                )
                # Auto-Gen restricted to depth d is a subset of the LB's
                # algorithm class at depth d.
                assert best_at_d >= lb[d, p] - 1e-9


class TestBestParams:
    def test_single_pe(self):
        sol = autogen_best_params(1, 64)
        assert sol.time == 0.0 and sol.depth == 0

    def test_two_pes(self):
        sol = autogen_best_params(2, 8)
        # One message of 8 wavelets over 1 hop: max(8, 8+1) + 5.
        assert sol.time == pytest.approx(14.0)
        assert sol.depth == 1 and sol.contention == 1

    def test_time_formula_consistency(self):
        sol = autogen_best_params(16, 32)
        bw = 32 * sol.energy / 15 + 15
        expected = max(32 * sol.contention, bw) + sol.depth * CS2.depth_cycles
        assert sol.time == pytest.approx(expected)

    def test_tie_break_prefers_shallow(self):
        # When several (D, C) achieve the optimum the smallest depth wins.
        sol = autogen_best_params(8, 4)
        table = autogen_tables(8)
        for d in range(1, sol.depth):
            for c in range(1, table.shape[1]):
                if np.isfinite(table[d, c, 8]):
                    t = max(
                        4 * c, 4 * table[d, c, 8] / 7 + 7
                    ) + d * CS2.depth_cycles
                    assert t > sol.time - 1e-9


class TestCaps:
    def test_default_cap_scales_with_sqrt(self):
        assert default_cap(16) == 15  # min(15, 4*3+20)
        assert default_cap(256) == min(255, 4 * 15 + 20)
        assert default_cap(1) == 1

    def test_capped_matches_exact_small(self):
        # For small P the default caps already cover the full range.
        for p in [2, 4, 8, 16]:
            for b in [1, 8, 256]:
                capped = autogen_time(p, b)
                exact = autogen_time(p, b, d_max=p - 1, c_max=p - 1)
                assert capped == pytest.approx(exact)

    def test_curve_matches_pointwise(self):
        bs = np.array([1, 4, 32, 256, 2048])
        curve = autogen_time_curve(12, bs)
        for i, b in enumerate(bs):
            assert curve[i] == pytest.approx(autogen_time(12, int(b)))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            autogen_tables(0)
        with pytest.raises(ValueError):
            autogen_best_params(4, 0)


@lru_cache(maxsize=None)
def reference_tables(p_max, d_max=None, c_max=None):
    """The unskipped sweep: every (d, c) level by its min-plus, no copies."""
    d_max = default_cap(p_max) if d_max is None else d_max
    c_max = default_cap(p_max) if c_max is None else c_max
    inf = np.inf
    e = np.full((d_max + 1, c_max + 1, p_max + 1), inf, dtype=np.float64)
    e[:, :, 1] = 0.0  # single PE: nothing to do at any (d, c)
    if p_max == 1:
        return e

    # Toeplitz gather indices: row p, column i -> p - i, clipped; entries
    # with i >= p are masked to inf via the window matrix below.
    p_idx = np.arange(p_max + 1)
    i_idx = np.arange(p_max + 1)
    gather = p_idx[:, None] - i_idx[None, :]
    invalid = gather < 1  # needs p - i >= 1, i.e. i <= p - 1
    gather = np.clip(gather, 0, p_max)
    i_cost = i_idx.astype(np.float64)  # the +i hop term of the last message

    for d in range(1, d_max + 1):
        below = e[d - 1]  # (c, p) slice at depth d-1
        level = e[d]
        for c in range(1, c_max + 1):
            left = level[c - 1]  # E(i, d, c-1), same depth, one less msg
            right = below[c]  # E(p-i, d-1, c)
            # cand[p, i] = left[i] + i + right[p - i]
            cand = left[None, :] + i_cost[None, :] + right[gather]
            cand[invalid] = inf
            # i = 0 contributes left[0] = inf already; min over i per p.
            level[c] = np.minimum(level[c], cand.min(axis=1))
    return e


class TestLevelCopies:
    """Copied levels leave the table bit-identical to the full sweep."""

    @pytest.mark.parametrize("p", range(2, 65))
    def test_default_caps(self, p):
        assert np.array_equal(autogen_tables(p), reference_tables(p))

    @pytest.mark.parametrize(
        "p, d_max, c_max",
        [
            (24, 5, 17),
            (24, 17, 5),
            (40, 1, 39),
            (40, 39, 1),
            (16, 1, 1),
            (16, 40, 40),
            (33, 2 * default_cap(33), default_cap(33) + 3),
        ],
    )
    def test_explicit_caps(self, p, d_max, c_max):
        assert np.array_equal(
            autogen_tables(p, d_max, c_max), reference_tables(p, d_max, c_max)
        )

    @pytest.mark.parametrize("p", [96, 128, 192])
    def test_default_caps_large(self, p):
        assert np.array_equal(autogen_tables(p), reference_tables(p))

    def test_autogen_trees_unchanged(self, monkeypatch):
        # plan_cold's 1D grid: P x B as the perf workload plans them.
        from repro.autogen import dp, tree

        grid = [(p, b) for p in (16, 32, 64, 96, 128, 192) for b in (16, 256, 4096)]
        new = {pb: tree.autogen_tree(*pb)[0].children for pb in grid}
        monkeypatch.setattr(dp, "autogen_tables", reference_tables)
        monkeypatch.setattr(tree, "autogen_tables", reference_tables)
        for pb in grid:
            assert tree.autogen_tree(*pb)[0].children == new[pb], pb
