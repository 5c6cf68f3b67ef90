"""Closed-form cost terms and runtime predictions for every collective.

Each ``*_terms`` function returns the :class:`~repro.model.costs.CostTerms`
derived in the paper's lemmas; each ``*_time`` function returns the cycle
prediction the paper states.  Where that prediction is Equation (1) on
the lemma's own terms, the ``*_time`` function is those terms'
:meth:`~repro.model.costs.CostTerms.synthesize`: Equation (1) itself is
written once, in :func:`repro.model.costs.equation_1`.  Three families
are not Equation (1) and keep their closed forms: Star and
Gather/Scatter use the refined pipeline argument of §5.1, and
AllGather/ReduceScatter charge contention *plus* distance rather than
their maximum.

Conventions:

* ``p`` — number of PEs in the (sub-)row; ``b`` — vector length in
  *wavelets* (32-bit elements).  Both are scalars; the heatmap benches
  evaluate their grids one cell at a time.
* 1D Reduce roots at the leftmost PE of the row; Broadcast roots at the
  rightmost PE (as in Sections 4–5).  The formulas only depend on sizes.
* ``p == 1`` degenerates to zero communication time.
"""

from __future__ import annotations

import math
from typing import Callable, Dict

from .costs import CostTerms
from .params import CS2, MachineParams


def _validate(p: int, b: int) -> None:
    if p < 1:
        raise ValueError("number of PEs must be >= 1")
    if b < 1:
        raise ValueError("vector length must be >= 1 wavelet")


def _synthesize(terms_fn: Callable[..., CostTerms], p: int, b: int,
                params: MachineParams, *args) -> float:
    """Equation (1) on ``terms_fn(p, b, *args)``; one PE costs nothing."""
    _validate(p, b)
    return 0.0 if p == 1 else terms_fn(p, b, *args).synthesize(params)


def _rounds(p: int) -> int:
    """Number of tree rounds: ``ceil(log2 p)`` (handles non-powers of two)."""
    return (int(p) - 1).bit_length()


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


def message_time(p: int, b: int, params: MachineParams = CS2) -> float:
    """:math:`T_{Message} = B + P + 2 T_R` — optimal for a 1D message."""
    return _synthesize(message_terms, p, b, params)


def broadcast_1d_terms(p: int, b: int) -> CostTerms:
    """Flooding broadcast over a row (Lemma 4.1): identical to a message.

    Multicast duplicates the stream towards every PE's ramp at no extra
    link cost, so depth stays 1 and energy stays ``B (P-1)``.
    """
    return message_terms(p, b)


def broadcast_1d_time(p: int, b: int, params: MachineParams = CS2) -> float:
    """:math:`T_{Bcast} = B + P + 2 T_R` (Lemma 4.1)."""
    return _synthesize(broadcast_1d_terms, p, b, params)


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


def star_reduce_time(p: int, b: int, params: MachineParams = CS2) -> float:
    """Refined Star prediction: :math:`T = B(P-1) + 2T_R + 1`.

    Not Equation (1): the raw bound over-counts for ``B == 1`` where the
    sends form a perfect pipeline with no congestion (§5.1); the paper
    concludes the contention term alone governs the runtime.
    """
    _validate(p, b)
    return 0.0 if p == 1 else float(b * (p - 1) + 2 * params.ramp_latency + 1)


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


def chain_reduce_time(p: int, b: int, params: MachineParams = CS2) -> float:
    """:math:`T_{Chain} = B + (2T_R + 2)(P-1)` (Lemma 5.2).

    Each hop in the chain costs a full receive-combine-send turnaround
    (down the ramp, one compute cycle, up the ramp, one link cycle), and
    the ``B``-wavelet pipeline drains behind the last dependency.
    """
    return _synthesize(chain_reduce_terms, p, b, params)


def tree_reduce_terms(p: int, b: int) -> CostTerms:
    """Binary-tree Reduce (Lemma 5.3)."""
    _validate(p, b)
    rounds = _rounds(p)
    return CostTerms(
        energy=b * p / 2 * rounds,
        distance=p - 1,
        depth=rounds,
        contention=b * rounds,
        links=max(1, p - 1),
    )


def tree_reduce_time(p: int, b: int, params: MachineParams = CS2) -> float:
    """Lemma 5.3:

    .. math::
       T_{Tree} = \\max\\left(B \\log_2 P,\\;
           \\frac{B P \\log_2 P}{2 (P-1)} + P - 1\\right)
           + (2T_R+1) \\log_2 P
    """
    return _synthesize(tree_reduce_terms, p, b, params)


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
    p: int,
    b: int,
    params: MachineParams = CS2,
    group_size: int | None = None,
) -> float:
    """Lemma 5.4 generalized to arbitrary ``P`` and group size.

    For perfect squares with ``S = sqrt(P)`` this reduces to the paper's

    .. math::
       T \\le \\max\\left(2B,\\; 2B - \\tfrac{2B}{\\sqrt P} + P\\right)
              + (2\\sqrt P - 2)(2T_R + 1)
    """
    return _synthesize(two_phase_reduce_terms, p, b, params, group_size)


# ---------------------------------------------------------------------------
# 1D AllReduce patterns (Section 6)
# ---------------------------------------------------------------------------


def reduce_then_broadcast_time(
    reduce_time: float, p: int, b: int, params: MachineParams = CS2
) -> float:
    """:math:`T_{Naive} = T_{Reduce} + T_{Bcast}` (§6.1)."""
    return reduce_time + broadcast_1d_time(p, b, params)


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


def ring_allreduce_time(p: int, b: int, params: MachineParams = CS2) -> float:
    """Lemma 6.1:

    .. math::
       T_{Ring} = 2(P-1)\\tfrac{B}{P} + 4P - 6 + 2(P-1)(2T_R+1)
    """
    return _synthesize(ring_allreduce_terms, p, b, params)


def butterfly_allreduce_terms(
    p: int, b: int, variant: str = "recursive_doubling"
) -> CostTerms:
    """Butterfly AllReduce terms (Figure 11c's unimplemented curve).

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
    rounds = _rounds(p)
    links = max(1, 2 * (p - 1))
    if variant == "recursive_doubling":
        return CostTerms(energy=b * p * max(p - 1, 1), distance=p / 2,
                         depth=rounds, contention=b * rounds, links=links)
    if variant == "halving_doubling":
        return CostTerms(energy=p * b * rounds, distance=p, depth=2 * rounds,
                         contention=2 * b * (p - 1) / p, links=links)
    raise ValueError(f"unknown butterfly variant {variant!r}")


def butterfly_allreduce_time(
    p: int,
    b: int,
    params: MachineParams = CS2,
    variant: str = "recursive_doubling",
) -> float:
    """Predicted butterfly AllReduce: Equation (1) on
    :func:`butterfly_allreduce_terms` of ``variant``."""
    return _synthesize(butterfly_allreduce_terms, p, b, params, variant)


# ---------------------------------------------------------------------------
# Data-distribution collectives (library extensions; the paper's model
# applied to Gather / Scatter / AllGather / ReduceScatter)
# ---------------------------------------------------------------------------


def gather_time(p: int, b: int, params: MachineParams = CS2) -> float:
    """Gather of per-PE ``b``-vectors to the row end.

    Star-shaped streams serialized into the root: contention
    ``B (P-1)`` dominates (the root must receive that much), plus the
    ramp constant — the Star Reduce's refined pipeline argument applies
    verbatim, so this is :func:`star_reduce_time`, not Equation (1).
    """
    return star_reduce_time(p, b, params)


def scatter_time(p: int, b: int, params: MachineParams = CS2) -> float:
    """Scatter of per-PE ``b``-chunks from the row end (Gather reversed)."""
    return gather_time(p, b, params)


def allgather_time(p: int, b: int, params: MachineParams = CS2) -> float:
    """Ring AllGather: ``P-1`` rounds moving whole ``B``-vectors.

    Per round every PE receives ``B`` wavelets (contention ``(P-1) B``)
    while the wrap edge adds the ``2P-3`` distance; depth ``P-1``.  Not
    Equation (1): contention and distance add rather than overlap.
    """
    _validate(p, b)
    if p == 1:
        return 0.0
    return float((p - 1) * b + 2 * p - 3 + (p - 1) * (2 * params.ramp_latency + 1))


def reduce_scatter_time(p: int, b: int, params: MachineParams = CS2) -> float:
    """Ring ReduceScatter: ``P-1`` rounds moving ``B/P`` chunks (contention
    plus distance, as :func:`allgather_time`)."""
    _validate(p, b)
    if p == 1:
        return 0.0
    return (p - 1) * b / p + 2 * p - 3 + (p - 1) * (2 * params.ramp_latency + 1)


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


def broadcast_2d_time(m: int, n: int, b: int, params: MachineParams = CS2) -> float:
    """Lemma 7.1: :math:`T = B + M + N - 2 + 2T_R + 1`."""
    _validate(m * n, b)
    return 0.0 if m * n == 1 else broadcast_2d_terms(m, n, b).synthesize(params)


def snake_reduce_time(m: int, n: int, b: int, params: MachineParams = CS2) -> float:
    """Snake Reduce (§7.3): the chain pipeline threaded through all PEs."""
    return chain_reduce_time(m * n, b, params)


def reduce_then_broadcast_2d_time(
    reduce_2d_time: float, m: int, n: int, b: int, params: MachineParams = CS2
) -> float:
    """2D AllReduce as 2D Reduce followed by the efficient 2D Broadcast."""
    return reduce_2d_time + broadcast_2d_time(m, n, b, params)


def lower_bound_2d_terms(m: int, n: int, b: int) -> CostTerms:
    """2D Reduce lower-bound terms (Lemma 7.2).

    Contention at the root is at least ``B``; energy is at least ``P B``
    over at most ``8 P`` link-directions; distance is at least
    ``M + N - 2``, the Manhattan eccentricity of the corner root (the
    1D specialization ``M = 1`` recovers the row bound's ``P - 1``).
    """
    _validate(m * n, b)
    p = m * n
    return CostTerms(energy=p * b, distance=m + n - 2, depth=1, contention=b,
                     links=8 * p)


def lower_bound_2d_time(m: int, n: int, b: int, params: MachineParams = CS2) -> float:
    """2D Reduce lower bound (Lemma 7.2):

    .. math::
       T^\\star \\ge \\max\\left(B, \\tfrac{B}{8} + M + N - 2\\right)
                 + 2T_R + 1
    """
    _validate(m * n, b)
    return 0.0 if m * n == 1 else lower_bound_2d_terms(m, n, b).synthesize(params)


# ---------------------------------------------------------------------------
# Registries used by the planner and the benches
# ---------------------------------------------------------------------------

#: 1D Reduce time predictors keyed by the paper's algorithm names.
REDUCE_1D_TIMES: Dict[str, Callable[..., float]] = {
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
