"""Hybrid Auto-Gen search: DP tree vs the fixed-pattern special cases.

The DP of :mod:`repro.autogen.dp` caps depth and contention at
``Theta(sqrt P)`` for tractability (the paper's exact search is
:math:`O(P^4)`).  That cap excludes the deep chain-like trees that are
optimal when ``B >> P``.  Since the pre-order formulation *generalizes
every fixed pattern* (Section 5.5), the hybrid search simply evaluates the
fixed trees — Star, Chain, binomial Tree, Two-Phase — under the same
Equation-(1) tree cost and returns whichever candidate (DP or fixed) is
fastest.  The test suite shows the hybrid matches the exact uncapped DP
for every ``P <= 64``, and the Figure-1 bench shows it stays within the
paper's 1.4x-of-lower-bound envelope at full scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict

import numpy as np

from ..model.params import CS2, MachineParams
from .dp import autogen_time_curve
from .tree import TREE_BUILDERS, ReductionTree, autogen_tree, chain_tree

__all__ = ["BestTree", "best_reduce_tree", "autogen_hybrid_time",
           "autogen_hybrid_curve", "fixed_tree_candidates"]


@dataclass(frozen=True)
class BestTree:
    """Winner of the hybrid search for one ``(P, B)``."""

    tree: ReductionTree
    time: float
    source: str  # "dp" or a fixed pattern name


@lru_cache(maxsize=64)
def fixed_tree_candidates(p: int) -> Dict[str, ReductionTree]:
    """The fixed-pattern trees for ``p`` PEs (cached; trees are reused
    read-only)."""
    if p == 1:
        return {"chain": chain_tree(1)}
    return {name: build(p) for name, build in TREE_BUILDERS.items()}


def best_reduce_tree(
    p: int, b: int, params: MachineParams = CS2
) -> BestTree:
    """Best pre-order reduction tree for ``(P, B)`` under Equation (1).

    Memoized per ``(p, b, params)``, however the arguments are passed:
    ranking, prediction and the row and column phases of one plan all
    ask for the same few ``(P, B)``, so each is searched once
    (``best_reduce_tree.cache_info()`` counts the searches).  Callers
    share the returned tree and must treat it as read-only, as with
    :func:`fixed_tree_candidates`.
    """
    return _best_reduce_tree(p, b, params)


@lru_cache(maxsize=128)
def _best_reduce_tree(p: int, b: int, params: MachineParams) -> BestTree:
    if p < 1 or b < 1:
        raise ValueError("p and b must be >= 1")
    if p == 1:
        return BestTree(tree=ReductionTree(p=1), time=0.0, source="dp")
    dp_tree, sol = autogen_tree(p, b, params)
    best = BestTree(tree=dp_tree, time=dp_tree.model_time(b, params), source="dp")
    for name, tree in fixed_tree_candidates(p).items():
        t = tree.model_time(b, params)
        if t < best.time:
            best = BestTree(tree=tree, time=t, source=name)
    return best


best_reduce_tree.cache_info = _best_reduce_tree.cache_info
best_reduce_tree.cache_clear = _best_reduce_tree.cache_clear


def autogen_hybrid_time(p: int, b: int, params: MachineParams = CS2) -> float:
    """Predicted Auto-Gen cycles: the hybrid search's winning time."""
    return best_reduce_tree(p, b, params).time


def autogen_hybrid_curve(
    p: int, bs: np.ndarray, params: MachineParams = CS2
) -> np.ndarray:
    """Vectorized :func:`autogen_hybrid_time` over many vector lengths."""
    bs = np.asarray(bs, dtype=np.float64)
    if p == 1:
        return np.zeros_like(bs)
    curves = [tree.model_time(bs, params)
              for tree in fixed_tree_candidates(p).values()]
    return np.minimum.reduce([autogen_time_curve(p, bs, params), *curves])
