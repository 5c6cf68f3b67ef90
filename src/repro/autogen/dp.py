"""Dynamic program behind the Auto-Gen Reduce (Section 5.5).

``E_AutoGen(P, D, C)`` is the minimum scalar-reduce energy over all
pre-order reduction trees on ``P`` consecutive PEs with depth at most ``D``
and root contention at most ``C`` messages.  The paper's recursion (with
``B = 1``; energy scales linearly in the vector length):

.. math::

   E(P, D, C) = \\min_{0 < i < P}
       E(i, D, C-1) + E(P-i, D-1, C) + i

The last message the root receives carries the partial sum of the rightmost
``P - i`` PEs (rooted ``i`` hops away, reduced with depth at most ``D-1``),
while the leftmost ``i`` PEs must already be reduced into the root using at
most ``C - 1`` messages.

The runtime then minimizes Equation (1) over the admissible (depth,
contention) pairs:

.. math::

   T_{AutoGen}(P, B) = \\min_{(D, C)}
       \\max\\left(B C, \\frac{B \\cdot E(P, D, C)}{P-1} + P - 1\\right)
       + D (2 T_R + 1)

Complexity and pruning
----------------------

The exact table is :math:`O(P^3)` states with :math:`O(P)` transitions —
the paper's :math:`O(P^4)`.  That is infeasible in Python for ``P = 512``,
so :func:`autogen_tables` caps the depth/contention ranges at
``4 ceil(sqrt(P)) + 16`` by default.  The caps are *empirically lossless*:
the optimum trades contention against energy with diminishing returns
beyond :math:`\\Theta(\\sqrt P)` (the Two-Phase pattern already achieves
depth :math:`2\\sqrt P` with contention 2), and the test suite verifies
capped == exact for every ``P <= 64`` and saturation (doubling the caps
does not change :math:`T_{AutoGen}`) at larger sizes.  The ablation bench
``benchmarks/test_ablation_autogen_caps.py`` quantifies this.

Each (D, C) level is one NumPy min-plus convolution over all ``p``
simultaneously (a Toeplitz gather), so a full sweep is
:math:`O(P^2 \\cdot D_{max} C_{max})` element operations.

Most levels are copies, not convolutions.  Level (D, C) is a pure
function of its two inputs, levels (D, C-1) and (D-1, C).  If level
(D, C-1) equals level (D, C-2) and level (D-1, C) equals level
(D-1, C-1), then level (D, C) has the same inputs as level (D, C-1) and
so equals it: the sweep copies it and skips the convolution.  A boolean
``same[D, C]`` records which levels equal their predecessor, set by the
copy rule or, for a computed level, by comparing it with level (D, C-1).
The rule compares float arrays exactly and never approximates, so the
table is bit-identical to the full sweep (``tests/test_autogen_dp.py``
keeps that sweep as its reference).  Levels stop changing once the
contention budget exceeds what trees of that depth can use.  At the
default caps the rule copies 89% of the levels at ``P = 64``, 92% at
192, 95% at 512 and 96% at 1024, out of 93%, 95%, 96.5% and 97% that
equal their predecessor.  On an idle 2-core x86_64 host the build takes
about 6 ms at ``P = 64`` (40 ms as a full sweep), 30 ms at 192 (0.83 s),
0.3 s at 512 and 1.7 s at 1024; host load can double these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..model.costs import equation_1
from ..model.params import CS2, MachineParams

__all__ = [
    "default_cap",
    "autogen_tables",
    "autogen_time",
    "autogen_best_params",
    "AutogenSolution",
]


def default_cap(p: int) -> int:
    """Default depth/contention cap: ``min(P-1, 4 ceil(sqrt(P)) + 16)``."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return min(max(p - 1, 1), 4 * math.isqrt(p - 1) + 20)


@lru_cache(maxsize=8)
def autogen_tables(
    p_max: int, d_max: int | None = None, c_max: int | None = None
) -> np.ndarray:
    """Energy table ``E[d, c, p]`` for ``d <= d_max``, ``c <= c_max``.

    ``E[d, c, p]`` is the minimum energy of a pre-order reduction tree on
    ``p`` PEs with depth at most ``d`` and root contention at most ``c``
    (``inf`` when infeasible).  Level ``(d, c)`` only reads levels
    ``(d, c-1)`` and ``(d-1, c)``, so the table is filled in one sweep.
    """
    if p_max < 1:
        raise ValueError(f"p_max must be >= 1, got {p_max}")
    d_max = default_cap(p_max) if d_max is None else d_max
    c_max = default_cap(p_max) if c_max is None else c_max
    if d_max < 1 or c_max < 1:
        raise ValueError("d_max and c_max must be >= 1")

    e = np.full((d_max + 1, c_max + 1, p_max + 1), np.inf, dtype=np.float64)
    e[:, :, 1] = 0.0  # single PE: nothing to do at any (d, c)
    if p_max == 1:
        return e

    # Toeplitz gather indices: row p, column i -> p - i.  Entries with
    # i >= p are clipped to column 0, and E[., ., 0] stays inf (no tree has
    # zero PEs), so those candidates are inf without a mask.
    p_idx = np.arange(p_max + 1)
    gather = np.clip(p_idx[:, None] - p_idx[None, :], 0, p_max)
    i_cost = p_idx.astype(np.float64)  # the +i hop term of the last message

    # same[d, c]: level (d, c) equals level (d, c-1).  Depth 0 is all-inf
    # beyond p = 1 at every contention.  Column 0 is never marked, so
    # level (d, 1) is always computed.
    same = np.zeros((d_max + 1, c_max + 1), dtype=bool)
    same[0, 1:] = True
    for d in range(1, d_max + 1):
        below = e[d - 1]  # (c, p) slice at depth d-1
        level = e[d]
        for c in range(1, c_max + 1):
            if same[d, c - 1] and same[d - 1, c]:
                # Both inputs equal those of level (d, c-1): copy it.
                level[c] = level[c - 1]
                same[d, c] = True
                continue
            left = level[c - 1]  # E(i, d, c-1), same depth, one less msg
            right = below[c]  # E(p-i, d-1, c)
            # cand[p, i] = right[p - i] + (left[i] + i), built in place
            cand = right.take(gather)
            cand += left + i_cost
            # i = 0 contributes left[0] = inf already; min over i per p.
            level[c] = np.minimum(level[c], cand.min(axis=1))
            same[d, c] = np.array_equal(level[c], level[c - 1])
    return e


@dataclass(frozen=True)
class AutogenSolution:
    """Optimal Auto-Gen parameters for a given ``(P, B)``."""

    p: int
    b: int
    time: float
    depth: int
    contention: int
    energy: float


def autogen_best_params(
    p: int,
    b: int,
    params: MachineParams = CS2,
    d_max: int | None = None,
    c_max: int | None = None,
) -> AutogenSolution:
    """Minimize :math:`T_{AutoGen}(P, B)` over admissible ``(D, C)``.

    Ties are broken towards smaller depth, then smaller contention, so the
    generated trees stay as shallow as the optimum allows.
    """
    if p < 1 or b < 1:
        raise ValueError("p and b must be >= 1")
    if p == 1:
        return AutogenSolution(p=1, b=b, time=0.0, depth=0, contention=0, energy=0.0)
    table = autogen_tables(p, d_max, c_max)
    energies = table[:, :, p]  # (d, c)
    t = _times(energies, p, b, params)
    best = np.unravel_index(np.argmin(t), t.shape)
    d_star, c_star = int(best[0]), int(best[1])
    return AutogenSolution(
        p=p,
        b=b,
        time=float(t[best]),
        depth=d_star,
        contention=c_star,
        energy=float(energies[best]),
    )


def autogen_time(
    p: int,
    b: int,
    params: MachineParams = CS2,
    d_max: int | None = None,
    c_max: int | None = None,
) -> float:
    """:math:`T_{AutoGen}(P, B)` in cycles (Section 5.5)."""
    return autogen_best_params(p, b, params, d_max, c_max).time


def autogen_time_curve(
    p: int, bs: np.ndarray, params: MachineParams = CS2
) -> np.ndarray:
    """Vectorized :func:`autogen_time` over many vector lengths.

    Shares one table build across all ``b`` values; used by the Figure 1
    heatmap and the Figure 11/12 prediction curves.
    """
    bs = np.asarray(bs, dtype=np.float64)
    if p == 1:
        return np.zeros_like(bs)
    return _times(autogen_tables(p)[:, :, p], p, bs, params).min(axis=(1, 2))


def _times(energies: np.ndarray, p: int, b, params: MachineParams) -> np.ndarray:
    """Equation (1) at every level ``(D, C)`` of ``energies[d, c]``.

    An array of vector lengths ``b`` leads the result with its own axis.
    """
    b = np.asarray(b, dtype=np.float64)[..., None, None]
    depth = np.arange(energies.shape[0])[:, None]
    contention = np.arange(energies.shape[1])
    return equation_1(b * energies, p - 1, depth, b * contention, p - 1, params)
