"""Performance model for the wafer-scale engine (paper Sections 3-7).

Public surface:

* :class:`~repro.model.params.MachineParams` / :data:`~repro.model.params.CS2`
* :class:`~repro.model.costs.CostTerms` -- the five spatial cost terms, and
  :func:`~repro.model.costs.equation_1`, the one Equation (1) synthesis.
* :mod:`~repro.model.analytic` -- closed-form predictions per algorithm.
* :mod:`~repro.model.lower_bound` -- the Lemma 5.5 DP lower bound.
"""

from .analytic import (
    REDUCE_1D_TERMS,
    REDUCE_1D_TIMES,
    broadcast_1d_terms,
    broadcast_1d_time,
    broadcast_2d_terms,
    broadcast_2d_time,
    butterfly_allreduce_terms,
    butterfly_allreduce_time,
    allgather_time,
    chain_reduce_terms,
    chain_reduce_time,
    gather_time,
    reduce_scatter_time,
    scatter_time,
    lower_bound_2d_terms,
    lower_bound_2d_time,
    message_terms,
    message_time,
    reduce_then_broadcast_2d_time,
    reduce_then_broadcast_time,
    ring_allreduce_terms,
    ring_allreduce_time,
    snake_reduce_time,
    star_reduce_terms,
    star_reduce_time,
    tree_reduce_terms,
    tree_reduce_time,
    two_phase_group_size,
    two_phase_reduce_terms,
    two_phase_reduce_time,
)
from .costs import CostTerms, equation_1
from .lower_bound import (
    energy_lower_bound_table,
    reduce_lower_bound_curve,
    reduce_lower_bound_time,
)
from .params import CS2, MachineParams

__all__ = [
    "CS2",
    "MachineParams",
    "CostTerms",
    "equation_1",
    "REDUCE_1D_TERMS",
    "REDUCE_1D_TIMES",
    "broadcast_1d_terms",
    "broadcast_1d_time",
    "broadcast_2d_terms",
    "broadcast_2d_time",
    "butterfly_allreduce_terms",
    "butterfly_allreduce_time",
    "allgather_time",
    "gather_time",
    "reduce_scatter_time",
    "scatter_time",
    "chain_reduce_terms",
    "chain_reduce_time",
    "lower_bound_2d_terms",
    "lower_bound_2d_time",
    "message_terms",
    "message_time",
    "reduce_then_broadcast_2d_time",
    "reduce_then_broadcast_time",
    "ring_allreduce_terms",
    "ring_allreduce_time",
    "snake_reduce_time",
    "star_reduce_terms",
    "star_reduce_time",
    "tree_reduce_terms",
    "tree_reduce_time",
    "two_phase_group_size",
    "two_phase_reduce_terms",
    "two_phase_reduce_time",
    "energy_lower_bound_table",
    "reduce_lower_bound_curve",
    "reduce_lower_bound_time",
]
