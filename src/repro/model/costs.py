"""Spatial cost terms and their synthesis into a cycle estimate.

Table 1 of the paper defines five cost terms for a communication pattern:

====  =========================================================
``E``  Energy — total number of wavelet hops routed.
``L``  Distance — largest number of hops any wavelet travels.
``D``  Depth — longest chain of PEs with data-dependent operations.
``C``  Contention — largest number of wavelets a single PE sends/receives.
``N``  Number of links being used overall.
====  =========================================================

Equation (1) synthesizes them into a cycle estimate:

.. math::

    T = \\max\\left(C, \\frac{E}{N} + L\\right) + (2 T_R + 1) \\cdot D
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .params import CS2, MachineParams


@dataclass(frozen=True)
class CostTerms:
    """The five spatial cost terms of one communication pattern.

    All terms are measured in wavelets / hops / PEs as defined in Table 1.
    ``energy`` and ``contention`` scale with the vector length; ``depth``
    and ``distance`` do not.
    """

    energy: float
    distance: float
    depth: float
    contention: float
    links: float

    def __post_init__(self) -> None:
        if self.links <= 0:
            raise ValueError(f"links must be positive, got {self.links}")
        for name in ("energy", "distance", "depth", "contention"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def synthesize(self, params: MachineParams = CS2) -> float:
        """Cycle estimate per Equation (1) of the paper."""
        return float(equation_1(self.energy, self.distance, self.depth,
                                self.contention, self.links, params))

    def dominant_term(self, params: MachineParams = CS2) -> str:
        """Name of the cost term that dominates the estimate.

        One of ``"contention"``, ``"bandwidth"`` (energy/links + distance)
        or ``"depth"``.  Useful for explaining *why* an algorithm wins or
        loses in a regime, mirroring the paper's discussion in Sections 5–8.
        """
        bandwidth = replace(self, contention=0, depth=0).synthesize(params)
        depth_term = replace(self, energy=0, distance=0, contention=0).synthesize(params)
        if depth_term > max(self.contention, bandwidth):
            return "depth"
        if self.contention >= bandwidth:
            return "contention"
        return "bandwidth"


def equation_1(energy, distance, depth, contention, links, params: MachineParams = CS2):
    """Equation (1), elementwise: ``max(C, E/N + L) + (2 T_R + 1) D``.

    The one place the model combines its terms: every prediction, the
    Auto-Gen search and the lower bound call it.  The arguments may be
    scalars or broadcastable arrays, so a DP table or a curve over many
    vector lengths is one call; ``inf`` energy gives ``inf`` time.
    """
    return (np.maximum(contention, energy / links + distance)
            + params.depth_cycles * depth)
