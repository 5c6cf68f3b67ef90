"""Closed-form cost terms and runtime predictions for every collective.

Each ``*_terms`` function returns the :class:`~repro.model.costs.CostTerms`
derived in the paper's lemmas; each ``*_time`` function returns the cycle
prediction the paper states (which for Star uses the refined pipeline
argument rather than the raw Equation (1) bound).

Conventions:

* ``p`` — number of PEs in the (sub-)row; ``b`` — vector length in
  *wavelets* (32-bit elements).
* 1D Reduce roots at the leftmost PE of the row; Broadcast roots at the
  rightmost PE (as in Sections 4–5).  The formulas only depend on sizes.
* ``p == 1`` degenerates to zero communication time.

The module is deliberately NumPy-friendly: every ``*_time`` function also
accepts array-valued ``p``/``b`` so that the heatmap benches (Figures 1, 8,
10) evaluate entire grids without Python loops.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Union

import numpy as np

from .costs import CostTerms
from .params import CS2, MachineParams

ArrayLike = Union[int, float, np.ndarray]


def _depth_cycles(params: MachineParams) -> int:
    return params.depth_cycles


def _validate(p: ArrayLike, b: ArrayLike) -> None:
    if np.any(np.asarray(p) < 1):
        raise ValueError("number of PEs must be >= 1")
    if np.any(np.asarray(b) < 1):
        raise ValueError("vector length must be >= 1 wavelet")


# ---------------------------------------------------------------------------
# 1D point-to-point and broadcast (Section 4)
# ---------------------------------------------------------------------------


def message_terms(p: int, b: int) -> CostTerms:
    """Sending a ``b``-wavelet vector across a row of ``p`` PEs (§4.1)."""
    _validate(p, b)
    return CostTerms(
        energy=b * (p - 1),
        distance=p - 1,
        depth=1,
        contention=b,
        links=max(1, p - 1),
    )


def message_time(p: ArrayLike, b: ArrayLike, params: MachineParams = CS2) -> ArrayLike:
    """:math:`T_{Message} = B + P + 2 T_R` — optimal for a 1D message."""
    _validate(p, b)
    p, b = np.asarray(p), np.asarray(b)
    t = b + p + 2 * params.ramp_latency
    return np.where(p <= 1, 0.0, t)[()] if isinstance(t, np.ndarray) else t


def broadcast_1d_terms(p: int, b: int) -> CostTerms:
    """Flooding broadcast over a row (Lemma 4.1): identical to a message.

    Multicast duplicates the stream towards every PE's ramp at no extra
    link cost, so depth stays 1 and energy stays ``B (P-1)``.
    """
    return message_terms(p, b)


def broadcast_1d_time(p: ArrayLike, b: ArrayLike, params: MachineParams = CS2) -> ArrayLike:
    """:math:`T_{Bcast} = B + P + 2 T_R` (Lemma 4.1)."""
    _validate(p, b)
    p, b = np.asarray(p), np.asarray(b)
    t = np.where(p <= 1, 0.0, b + p + 2 * params.ramp_latency)
    return t[()]


# ---------------------------------------------------------------------------
# 1D Reduce patterns (Section 5)
# ---------------------------------------------------------------------------


def star_reduce_terms(p: int, b: int) -> CostTerms:
    """Star Reduce (Lemma 5.1): every PE sends directly to the root."""
    _validate(p, b)
    return CostTerms(
        energy=b * p * (p - 1) / 2,
        distance=p - 1,
        depth=1,
        contention=b * (p - 1),
        links=max(1, p - 1),
    )


def star_reduce_time(p: ArrayLike, b: ArrayLike, params: MachineParams = CS2) -> ArrayLike:
    """Refined Star prediction: :math:`T = B(P-1) + 2T_R + 1`.

    The raw Equation (1) bound over-counts for ``B == 1`` where the sends
    form a perfect pipeline with no congestion (§5.1); the paper concludes
    the contention term alone governs the runtime.
    """
    _validate(p, b)
    p, b = np.asarray(p), np.asarray(b)
    t = np.where(p <= 1, 0.0, b * (p - 1) + 2 * params.ramp_latency + 1)
    return t[()]


def chain_reduce_terms(p: int, b: int) -> CostTerms:
    """Chain Reduce (Lemma 5.2): pipeline along the row (vendor pattern)."""
    _validate(p, b)
    return CostTerms(
        energy=b * (p - 1),
        distance=p - 1,
        depth=p - 1,
        contention=b,
        links=max(1, p - 1),
    )


def chain_reduce_time(p: ArrayLike, b: ArrayLike, params: MachineParams = CS2) -> ArrayLike:
    """:math:`T_{Chain} = B + (2T_R + 2)(P-1)` (Lemma 5.2).

    Each hop in the chain costs a full receive-combine-send turnaround
    (down the ramp, one compute cycle, up the ramp, one link cycle), and
    the ``B``-wavelet pipeline drains behind the last dependency.
    """
    _validate(p, b)
    p, b = np.asarray(p), np.asarray(b)
    t = np.where(p <= 1, 0.0, b + (2 * params.ramp_latency + 2) * (p - 1))
    return t[()]


def _log2_rounds(p: ArrayLike) -> ArrayLike:
    """Number of tree rounds: ``ceil(log2 p)`` (handles non-powers of two)."""
    return np.ceil(np.log2(np.maximum(np.asarray(p, dtype=float), 1.0)))


def tree_reduce_terms(p: int, b: int) -> CostTerms:
    """Binary-tree Reduce (Lemma 5.3)."""
    _validate(p, b)
    rounds = int(_log2_rounds(p))
    return CostTerms(
        energy=b * p / 2 * rounds,
        distance=p - 1,
        depth=rounds,
        contention=b * rounds,
        links=max(1, p - 1),
    )


def tree_reduce_time(p: ArrayLike, b: ArrayLike, params: MachineParams = CS2) -> ArrayLike:
    """Lemma 5.3:

    .. math::
       T_{Tree} = \\max\\left(B \\log_2 P,\\;
           \\frac{B P \\log_2 P}{2 (P-1)} + P - 1\\right)
           + (2T_R+1) \\log_2 P
    """
    _validate(p, b)
    p = np.asarray(p, dtype=float)
    b = np.asarray(b, dtype=float)
    rounds = _log2_rounds(p)
    links = np.maximum(p - 1, 1.0)
    bw = b * p / 2.0 * rounds / links + (p - 1)
    t = np.maximum(b * rounds, bw) + _depth_cycles(params) * rounds
    return np.where(p <= 1, 0.0, t)[()]


def two_phase_group_size(p: int) -> int:
    """The paper's choice of group size :math:`S = \\sqrt{P}` (rounded)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return max(1, round(math.sqrt(p)))


def two_phase_reduce_terms(p: int, b: int, group_size: int | None = None) -> CostTerms:
    """Two-Phase Reduce (Lemma 5.4) for a general group size ``S``.

    Phase 1 chain-reduces within ``ceil(P/S)`` groups of ``S`` consecutive
    PEs (groups assigned from the right end); phase 2 chain-reduces the
    group leaders.  ``S = sqrt(P)`` balances the two depths.

    When ``S`` does not divide ``P`` the root's group is the short one:
    the ``P - groups`` in-group hops and the leader chain's ``P - S``
    links each carry ``B`` wavelets, which is the paper's
    ``(S-1)B·groups + S·B·(groups-1)`` when ``S`` divides ``P``.
    """
    _validate(p, b)
    s = two_phase_group_size(p) if group_size is None else group_size
    if not 1 <= s <= p:
        raise ValueError(f"group size {s} out of range for p={p}")
    groups = -(-p // s)
    depth = (s - 1) + (groups - 1)
    energy = b * ((p - groups) + (p - s))
    return CostTerms(
        energy=energy,
        distance=p - 1,
        depth=max(depth, 1),
        contention=2 * b if groups > 1 and s > 1 else b,
        links=max(1, p - 1),
    )


def two_phase_reduce_time(
    p: ArrayLike,
    b: ArrayLike,
    params: MachineParams = CS2,
    group_size: int | None = None,
) -> ArrayLike:
    """Lemma 5.4 generalized to arbitrary ``P`` and group size.

    For perfect squares with ``S = sqrt(P)`` this reduces to the paper's

    .. math::
       T \\le \\max\\left(2B,\\; 2B - \\tfrac{2B}{\\sqrt P} + P\\right)
              + (2\\sqrt P - 2)(2T_R + 1)
    """
    _validate(p, b)
    p_arr = np.atleast_1d(np.asarray(p, dtype=float))
    b_arr = np.broadcast_to(np.asarray(b, dtype=float), p_arr.shape).copy()
    out = np.zeros(p_arr.shape, dtype=float)
    for idx in np.ndindex(p_arr.shape):
        pi, bi = int(p_arr[idx]), int(b_arr[idx])
        if pi <= 1:
            out[idx] = 0.0
            continue
        terms = two_phase_reduce_terms(pi, bi, group_size=group_size)
        out[idx] = terms.synthesize(params)
    if np.isscalar(p) and np.isscalar(b):
        return float(out[0])
    return out.reshape(np.broadcast(np.asarray(p), np.asarray(b)).shape)


# ---------------------------------------------------------------------------
# 1D AllReduce patterns (Section 6)
# ---------------------------------------------------------------------------


def reduce_then_broadcast_time(
    reduce_time: ArrayLike, p: ArrayLike, b: ArrayLike, params: MachineParams = CS2
) -> ArrayLike:
    """:math:`T_{Naive} = T_{Reduce} + T_{Bcast}` (§6.1)."""
    return np.asarray(reduce_time) + broadcast_1d_time(p, b, params)


def ring_allreduce_terms(p: int, b: int) -> CostTerms:
    """Ring AllReduce mapped onto the mesh (Lemma 6.1).

    Both the simple and the distance-preserving mapping yield the same
    terms: ``2(P-1)`` rounds moving ``B/P``-wavelet chunks over ``2(P-1)``
    bidirectional link-directions.
    """
    _validate(p, b)
    chunk = b / p
    return CostTerms(
        energy=2 * (p - 1) * 2 * (p - 1) * chunk,
        distance=2 * (2 * p - 3),
        depth=2 * (p - 1),
        contention=2 * (p - 1) * chunk,
        links=max(1, 2 * (p - 1)),
    )


def ring_allreduce_time(p: ArrayLike, b: ArrayLike, params: MachineParams = CS2) -> ArrayLike:
    """Lemma 6.1:

    .. math::
       T_{Ring} = 2(P-1)\\tfrac{B}{P} + 4P - 6 + 2(P-1)(2T_R+1)
    """
    _validate(p, b)
    p = np.asarray(p, dtype=float)
    b = np.asarray(b, dtype=float)
    t = (
        2 * (p - 1) * b / p
        + 4 * p
        - 6
        + 2 * (p - 1) * _depth_cycles(params)
    )
    return np.where(p <= 1, 0.0, t)[()]


def butterfly_allreduce_time(
    p: ArrayLike,
    b: ArrayLike,
    params: MachineParams = CS2,
    variant: str = "recursive_doubling",
) -> ArrayLike:
    """Predicted butterfly AllReduce (Figure 11c's unimplemented curve).

    Two classic variants are modelled:

    * ``"recursive_doubling"`` — every round exchanges the *full* vector
      with a partner at distance ``2^k`` and combines: ``log2 P`` rounds,
      received contention ``B log2 P``, round-``k`` energy ``P B 2^k``
      totalling ``B P (P - 1)``.  This is the curve shape the paper plots:
      clearly uncompetitive on the mesh.
    * ``"halving_doubling"`` — Rabenseifner's bandwidth-optimal variant:
      ``log2 P`` reduce-scatter rounds exchanging ``B / 2^{k+1}`` wavelets
      at distance ``2^k`` (round energy ``P B / 2``), then the mirrored
      allgather.  Depth ``2 log2 P``, received contention
      ``2B (P-1)/P``.  Under Equation (1) this variant is competitive for
      intermediate vectors, which is why we also *implement* it (see
      ``repro.collectives.butterfly``) as an extension beyond the paper.
    """
    _validate(p, b)
    p = np.asarray(p, dtype=float)
    b = np.asarray(b, dtype=float)
    rounds = _log2_rounds(p)
    links = np.maximum(2 * (p - 1), 1.0)
    if variant == "recursive_doubling":
        energy = b * p * np.maximum(p - 1, 1.0)
        contention = b * rounds
        distance = p / 2.0
        depth = rounds
    elif variant == "halving_doubling":
        energy = p * b * rounds
        contention = 2 * b * (p - 1) / p
        distance = p
        depth = 2 * rounds
    else:
        raise ValueError(f"unknown butterfly variant {variant!r}")
    bw = energy / links + distance
    t = np.maximum(contention, bw) + depth * _depth_cycles(params)
    return np.where(p <= 1, 0.0, t)[()]


# ---------------------------------------------------------------------------
# Data-distribution collectives (library extensions; the paper's model
# applied to Gather / Scatter / AllGather / ReduceScatter)
# ---------------------------------------------------------------------------


def gather_time(p: ArrayLike, b: ArrayLike, params: MachineParams = CS2) -> ArrayLike:
    """Gather of per-PE ``b``-vectors to the row end.

    Star-shaped streams serialized into the root: contention
    ``B (P-1)`` dominates (the root must receive that much), plus the
    ramp constant — the Star Reduce's refined pipeline argument applies
    verbatim.
    """
    _validate(p, b)
    p, b = np.asarray(p), np.asarray(b)
    t = np.where(p <= 1, 0.0, b * (p - 1) + 2 * params.ramp_latency + 1)
    return t[()]


def scatter_time(p: ArrayLike, b: ArrayLike, params: MachineParams = CS2) -> ArrayLike:
    """Scatter of per-PE ``b``-chunks from the row end (Gather reversed)."""
    return gather_time(p, b, params)


def allgather_time(p: ArrayLike, b: ArrayLike, params: MachineParams = CS2) -> ArrayLike:
    """Ring AllGather: ``P-1`` rounds moving whole ``B``-vectors.

    Per round every PE receives ``B`` wavelets (contention ``(P-1) B``)
    while the wrap edge adds the ``2P-3`` distance; depth ``P-1``.
    """
    _validate(p, b)
    p = np.asarray(p, dtype=float)
    b = np.asarray(b, dtype=float)
    t = (p - 1) * b + 2 * p - 3 + (p - 1) * _depth_cycles(params)
    return np.where(p <= 1, 0.0, t)[()]


def reduce_scatter_time(
    p: ArrayLike, b: ArrayLike, params: MachineParams = CS2
) -> ArrayLike:
    """Ring ReduceScatter: ``P-1`` rounds moving ``B/P`` chunks."""
    _validate(p, b)
    p = np.asarray(p, dtype=float)
    b = np.asarray(b, dtype=float)
    t = (p - 1) * b / p + 2 * p - 3 + (p - 1) * _depth_cycles(params)
    return np.where(p <= 1, 0.0, t)[()]


# ---------------------------------------------------------------------------
# 2D collectives (Section 7)
# ---------------------------------------------------------------------------


def broadcast_2d_terms(m: int, n: int, b: int) -> CostTerms:
    """2D flooding broadcast from corner (0, 0) (Lemma 7.1)."""
    _validate(m * n, b)
    p = m * n
    return CostTerms(
        energy=b * (p - 1),
        distance=m + n - 2,
        depth=1,
        contention=b,
        links=max(1, p - 1),
    )


def broadcast_2d_time(
    m: ArrayLike, n: ArrayLike, b: ArrayLike, params: MachineParams = CS2
) -> ArrayLike:
    """Lemma 7.1: :math:`T = B + M + N - 2 + 2T_R + 1`."""
    m = np.asarray(m, dtype=float)
    n = np.asarray(n, dtype=float)
    b = np.asarray(b, dtype=float)
    _validate(m * n, b)
    t = b + m + n - 2 + 2 * params.ramp_latency + 1
    return np.where(m * n <= 1, 0.0, t)[()]


def xy_reduce_time(
    reduce_time_fn: Callable[..., ArrayLike],
    m: ArrayLike,
    n: ArrayLike,
    b: ArrayLike,
    params: MachineParams = CS2,
) -> ArrayLike:
    """X-Y Reduce (§7.2): 1D reduce along each row, then along column 0.

    Both phases move the full ``B``-wavelet vector.
    """
    return reduce_time_fn(n, b, params) + reduce_time_fn(m, b, params)


def snake_reduce_time(
    m: ArrayLike, n: ArrayLike, b: ArrayLike, params: MachineParams = CS2
) -> ArrayLike:
    """Snake Reduce (§7.3): the chain pipeline threaded through all PEs."""
    m = np.asarray(m)
    n = np.asarray(n)
    return chain_reduce_time(m * n, b, params)


def xy_allreduce_time(
    allreduce_time_fn: Callable[..., ArrayLike],
    m: ArrayLike,
    n: ArrayLike,
    b: ArrayLike,
    params: MachineParams = CS2,
) -> ArrayLike:
    """2D AllReduce as AllReduce-per-row then AllReduce-per-column (§7.4)."""
    return allreduce_time_fn(n, b, params) + allreduce_time_fn(m, b, params)


def reduce_then_broadcast_2d_time(
    reduce_2d_time: ArrayLike,
    m: ArrayLike,
    n: ArrayLike,
    b: ArrayLike,
    params: MachineParams = CS2,
) -> ArrayLike:
    """2D AllReduce as 2D Reduce followed by the efficient 2D Broadcast."""
    return np.asarray(reduce_2d_time) + broadcast_2d_time(m, n, b, params)


def lower_bound_2d_time(
    m: ArrayLike, n: ArrayLike, b: ArrayLike, params: MachineParams = CS2
) -> ArrayLike:
    """2D Reduce lower bound (Lemma 7.2):

    .. math::
       T^\\star \\ge \\max\\left(B, \\tfrac{B}{8} + M + N - 2\\right)
                 + 2T_R + 1

    Contention at the root is at least ``B``; energy is at least ``P B``
    over at most ``8 P`` link-directions; distance is at least
    ``M + N - 2``, the Manhattan eccentricity of the corner root (the
    1D specialization ``M = 1`` recovers the row bound's ``P - 1``).
    """
    m = np.asarray(m, dtype=float)
    n = np.asarray(n, dtype=float)
    b = np.asarray(b, dtype=float)
    t = np.maximum(b, b / 8.0 + m + n - 2) + _depth_cycles(params)
    return np.where(m * n <= 1, 0.0, t)[()]


# ---------------------------------------------------------------------------
# Registries used by the planner and the benches
# ---------------------------------------------------------------------------

#: 1D Reduce time predictors keyed by the paper's algorithm names.
REDUCE_1D_TIMES: Dict[str, Callable[..., ArrayLike]] = {
    "star": star_reduce_time,
    "chain": chain_reduce_time,
    "tree": tree_reduce_time,
    "two_phase": two_phase_reduce_time,
}

#: 1D Reduce cost-term builders (per-algorithm lemmas).
REDUCE_1D_TERMS: Dict[str, Callable[[int, int], CostTerms]] = {
    "star": star_reduce_terms,
    "chain": chain_reduce_terms,
    "tree": tree_reduce_terms,
    "two_phase": two_phase_reduce_terms,
}


def allreduce_1d_time(
    pattern: str, p: ArrayLike, b: ArrayLike, params: MachineParams = CS2
) -> ArrayLike:
    """1D AllReduce prediction for ``pattern``.

    ``pattern`` is a Reduce pattern name (composed with the flooding
    broadcast, §6.1), or ``"ring"`` / ``"butterfly"``.
    """
    if pattern == "ring":
        return ring_allreduce_time(p, b, params)
    if pattern == "butterfly":
        return butterfly_allreduce_time(p, b, params)
    reduce_time = REDUCE_1D_TIMES[pattern](p, b, params)
    return reduce_then_broadcast_time(reduce_time, p, b, params)
