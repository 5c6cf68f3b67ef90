"""Lower bounds on Reduce runtime (Section 5.6 and Lemma 7.2).

The 1D bound follows Lemma 5.5: let :math:`E^\\star(P, 1, D)` be the minimum
energy to reduce a scalar across ``P`` consecutive PEs with depth at most
``D`` (messages travel towards the root, one send target per PE at a time).
It obeys

.. math::

   E^\\star(P, 1, D) \\ge \\min_{0<i<P}
       E^\\star(i, 1, D) + E^\\star(P-i, 1, D-1) + \\min(i, P-i+1)

with :math:`E^\\star(1, 1, D) = 0` and :math:`E^\\star(P>1, 1, 0) = \\infty`.
The runtime bound then drops the contention term (legal for a lower bound)
and scales energy linearly with the vector length:

.. math::

   T^\\star(P, B) \\ge \\min_{D \\ge 1}
       \\frac{B \\cdot E^\\star(P, 1, D)}{P-1} + P - 1 + D (2 T_R + 1)

The dynamic program is solved bottom-up with NumPy min-plus convolutions:
for each target size ``p`` the minimum over split points ``i`` is one
vectorized reduction, giving :math:`O(P^2)` work per depth level and
:math:`O(P^3)` overall — matching the paper's stated complexity but with
constant factors small enough for ``P = 512`` in well under a second.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .costs import equation_1
from .params import CS2, MachineParams

__all__ = [
    "energy_lower_bound_table",
    "reduce_lower_bound_time",
    "reduce_lower_bound_curve",
]


@lru_cache(maxsize=8)
def energy_lower_bound_table(p_max: int, d_max: int | None = None) -> np.ndarray:
    """DP table ``E[d, p]`` of scalar-reduce energy lower bounds.

    ``E[d, p]`` is the Lemma 5.5 lower bound on the energy of reducing a
    scalar over ``p`` consecutive PEs with depth at most ``d``.  Rows run
    ``d = 0 .. d_max`` (default ``p_max - 1``), columns ``p = 0 .. p_max``
    (column 0 is unused and kept ``inf`` for clean indexing).

    Sanity anchors proved in the tests: ``E[p-1, p] == p - 1`` (the chain
    achieves the depth-(P-1) bound exactly) and ``E[1, p] == 2p - 3``.
    """
    if p_max < 1:
        raise ValueError(f"p_max must be >= 1, got {p_max}")
    if d_max is None:
        d_max = max(1, p_max - 1)
    if d_max < 1:
        raise ValueError(f"d_max must be >= 1, got {d_max}")

    inf = np.inf
    table = np.full((d_max + 1, p_max + 1), inf, dtype=np.float64)
    table[:, 1] = 0.0  # a single PE already holds the result
    if p_max == 1:
        return table

    # min(i, p - i + 1) addend, materialized once per p.
    # split_cost[p][i-1] for i in 1..p-1
    for d in range(1, d_max + 1):
        prev = table[d - 1]
        row = table[d]
        for p in range(2, p_max + 1):
            i = np.arange(1, p)
            # row[i] only involves i < p, already computed this level.
            cand = row[1:p] + prev[p - 1 : 0 : -1] + np.minimum(i, p - i + 1)
            row[p] = cand.min()
    return table


def reduce_lower_bound_time(
    p: int, b: int, params: MachineParams = CS2
) -> float:
    """Runtime lower bound :math:`T^\\star(P, B)` for 1D Reduce in cycles."""
    if p < 1 or b < 1:
        raise ValueError("p and b must be >= 1")
    return float(reduce_lower_bound_curve(p, np.array([b]), params)[0])


def reduce_lower_bound_curve(
    p: int, bs: np.ndarray, params: MachineParams = CS2
) -> np.ndarray:
    """Vectorized :func:`reduce_lower_bound_time` over many vector lengths.

    Equation (1) with zero contention at every depth ``d >= 1``, minimized
    over ``d`` for every ``b`` in ``bs`` in one pass; used by the Figure 1
    heatmap bench.
    """
    bs = np.asarray(bs, dtype=np.float64)
    if p < 1:
        raise ValueError("p must be >= 1")
    if np.any(bs < 1):
        raise ValueError("vector lengths must be >= 1")
    if p == 1:
        return np.zeros_like(bs)
    table = energy_lower_bound_table(p)
    energies = table[1:, p, None]  # depth d = 1 .. p-1, one row per depth
    depths = np.arange(1, table.shape[0])[:, None]
    return equation_1(bs * energies, p - 1, depths, 0, p - 1, params).min(axis=0)
