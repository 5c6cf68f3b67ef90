"""Unit tests for the Lemma 5.5 lower-bound dynamic program."""

import numpy as np
import pytest

from repro.model import analytic
from repro.model.lower_bound import (
    energy_lower_bound_table,
    reduce_lower_bound_curve,
    reduce_lower_bound_time,
)
from repro.model.params import CS2


class TestEnergyTable:
    def test_chain_anchor(self):
        # At depth P-1 the chain achieves energy exactly P-1.
        table = energy_lower_bound_table(16)
        for p in range(2, 17):
            assert table[p - 1, p] == p - 1

    def test_depth_one_anchor(self):
        # E*(P, 1, 1) = 2P - 3: first split contributes min(1, P) = 1, each
        # further extension adds min(i, P-i+1) >= 2 hops.
        table = energy_lower_bound_table(16)
        for p in range(2, 17):
            assert table[1, p] == 2 * p - 3

    def test_monotone_in_depth(self):
        table = energy_lower_bound_table(32)
        for p in range(2, 33):
            col = table[1:p, p]
            assert np.all(np.diff(col) <= 0)

    def test_single_pe_costs_nothing(self):
        table = energy_lower_bound_table(8)
        assert np.all(table[:, 1] == 0.0)

    def test_depth_zero_infeasible(self):
        table = energy_lower_bound_table(8)
        assert np.all(np.isinf(table[0, 2:]))

    def test_energy_at_least_p_minus_one(self):
        # Every link towards the root carries at least one wavelet.
        table = energy_lower_bound_table(32)
        for p in range(2, 33):
            finite = table[:, p][np.isfinite(table[:, p])]
            assert finite.min() >= p - 1

    def test_caching(self):
        a = energy_lower_bound_table(16)
        b = energy_lower_bound_table(16)
        assert a is b

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            energy_lower_bound_table(0)


class TestRuntimeBound:
    def test_single_pe(self):
        assert reduce_lower_bound_time(1, 100) == 0.0

    def test_below_every_algorithm_model(self):
        # The bound must lower-bound every Equation-(1) algorithm cost.
        for p in [2, 3, 4, 8, 16, 37, 64]:
            for b in [1, 4, 64, 1024]:
                lb = reduce_lower_bound_time(p, b)
                for name, terms_fn in analytic.REDUCE_1D_TERMS.items():
                    model = terms_fn(p, b).synthesize(CS2)
                    assert lb <= model + 1e-9, (name, p, b)

    def test_chain_tight_for_huge_vectors(self):
        # Chain is optimal for B >> T_R P; the bound should be within a
        # vanishing factor there.
        p, b = 16, 10**6
        lb = reduce_lower_bound_time(p, b)
        chain = analytic.chain_reduce_time(p, b)
        assert chain / lb < 1.001

    def test_grows_with_b(self):
        vals = [reduce_lower_bound_time(16, b) for b in [1, 10, 100, 1000]]
        assert vals == sorted(vals)
        assert vals[-1] > vals[0]

    def test_grows_with_p(self):
        vals = [reduce_lower_bound_time(p, 64) for p in [2, 4, 8, 16, 32]]
        assert vals == sorted(vals)

    def test_curve_matches_scalar_calls(self):
        bs = np.array([1, 2, 16, 128, 1024])
        curve = reduce_lower_bound_curve(17, bs)
        for i, b in enumerate(bs):
            assert curve[i] == pytest.approx(reduce_lower_bound_time(17, int(b)))

    @pytest.mark.parametrize("tr", [1, 2, 7])
    def test_curve_equals_scalar_bit_for_bit(self, tr):
        # Both go through one Equation (1) with zero contention, so the
        # curve and the scalar agree exactly, off the powers of two too
        # (b * (E / (P-1)) and (b * E) / (P-1) differ in the last ulp,
        # e.g. at P=4, B=7).
        params = CS2.with_ramp_latency(tr)
        bs = np.array([1, 3, 5, 7, 11, 13, 63, 100, 999, 4095])
        for p in (3, 4, 5, 6, 7, 12, 17, 31, 33, 63, 100):
            curve = reduce_lower_bound_curve(p, bs, params)
            scalars = [reduce_lower_bound_time(p, int(b), params) for b in bs]
            assert curve.tolist() == scalars, p

    def test_curve_single_pe(self):
        assert np.all(reduce_lower_bound_curve(1, np.array([1, 2, 3])) == 0)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            reduce_lower_bound_time(0, 1)
        with pytest.raises(ValueError):
            reduce_lower_bound_time(4, 0)
        with pytest.raises(ValueError):
            reduce_lower_bound_curve(4, np.array([0]))
