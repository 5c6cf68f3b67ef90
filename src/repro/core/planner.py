"""Model-driven algorithm selection (the regions of Figures 8 and 10).

The planner evaluates every registered algorithm's Equation-(1) prediction
and picks the fastest — the paper's central methodology: "Analytically, we
can determine the best choice of algorithm for a given B and P."

:func:`rank_spec` is the spec-native entry point used by the plan/execute
pipeline: it walks the :data:`repro.core.registry.COLLECTIVES` entries of
the spec's ``(kind, dims)`` family, drops candidates whose
``feasible(spec)`` is false (e.g. the Ring when ``B % P != 0``), and
ranks the survivors.  The positional helpers (:func:`best_reduce_1d`
etc.) are thin wrappers kept for the benches and notebooks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional

from ..fabric.geometry import Grid
from ..model.params import CS2, MachineParams
from . import registry
from .registry import CollectiveSpec

__all__ = ["Choice", "Tuner", "rank_spec", "set_tuner_hook", "get_tuner_hook",
           "best_reduce_1d", "best_allreduce_1d",
           "best_reduce_2d", "best_allreduce_2d"]

#: A tuner maps ``(spec, candidate predictions)`` to a measured winner
#: name, or ``None`` when it has no measurement-backed opinion.
Tuner = Callable[[CollectiveSpec, Dict[str, float]], Optional[str]]

#: Process-wide tuner consulted by :func:`rank_spec` when no explicit
#: ``tuner`` argument is given.  Installed by
#: :func:`repro.engine.autotune.set_tuner`; ``None`` keeps planning
#: purely analytic.
_TUNER_HOOK: Optional[Tuner] = None


def set_tuner_hook(tuner: Optional[Tuner]) -> Optional[Tuner]:
    """Install the process-wide tuner; returns the previous one.

    Callers owning a plan cache must invalidate it around this call —
    cached ``algorithm="auto"`` plans embed the ranking they were made
    under (:func:`repro.engine.autotune.set_tuner` does this).
    """
    global _TUNER_HOOK
    previous = _TUNER_HOOK
    _TUNER_HOOK = tuner
    return previous


def get_tuner_hook() -> Optional[Tuner]:
    """The currently installed process-wide tuner (or ``None``)."""
    return _TUNER_HOOK


@dataclass(frozen=True)
class Choice:
    """One planning decision with the full candidate ranking.

    ``tuned`` is true when a measured-winner tuner overrode the analytic
    pick; ``candidates`` always carries the analytic predictions.
    """

    algorithm: str
    predicted_cycles: float
    candidates: Dict[str, float]
    tuned: bool = False

    def speedup_over(self, baseline: str) -> float:
        """Predicted speedup of the choice over ``baseline``."""
        if baseline not in self.candidates:
            raise KeyError(f"no candidate {baseline!r}")
        if self.predicted_cycles == 0:
            return 1.0
        return self.candidates[baseline] / self.predicted_cycles


def _choose(candidates: Dict[str, float]) -> Choice:
    best = min(candidates, key=candidates.get)
    return Choice(
        algorithm=best,
        predicted_cycles=candidates[best],
        candidates=dict(sorted(candidates.items(), key=lambda kv: kv[1])),
    )


def rank_spec(
    spec: CollectiveSpec,
    include: Iterable[str] | None = None,
    tuner: Optional[Tuner] = None,
) -> Choice:
    """Rank every feasible registered algorithm for ``spec``.

    Candidates whose :meth:`CollectiveEntry.feasible` rejects the spec
    are dropped *before* choosing, so ``algorithm="auto"`` can never
    select a plan whose schedule cannot be built.  Raises ``ValueError``
    when no candidate survives.

    ``tuner`` (or the process-wide hook installed via
    :func:`set_tuner_hook`) may override the analytic pick with a
    *measured* winner: when it names a surviving candidate, that
    algorithm is chosen and the choice is flagged ``tuned``.  Winners
    outside the feasible candidate set are ignored.
    """
    entries = registry.entries_for(spec.kind, spec.dims)
    names = tuple(include) if include is not None else tuple(entries)
    candidates: Dict[str, float] = {}
    for name in names:
        entry = entries.get(name)
        if entry is None:
            raise ValueError(
                f"unknown {spec.dims}D {spec.kind} algorithm {name!r}"
            )
        resolved = spec.with_algorithm(name)
        if not entry.feasible(resolved):
            continue
        candidates[name] = entry.predict(resolved)
    if not candidates:
        raise ValueError(
            f"no feasible {spec.dims}D {spec.kind} algorithm for "
            f"grid {spec.grid.rows}x{spec.grid.cols}, B={spec.b}"
        )
    choice = _choose(candidates)
    hook = tuner if tuner is not None else _TUNER_HOOK
    if hook is not None:
        winner = hook(spec, dict(candidates))
        if (winner is not None and winner in candidates
                and winner != choice.algorithm):
            choice = Choice(
                algorithm=winner,
                predicted_cycles=candidates[winner],
                candidates=choice.candidates,
                tuned=True,
            )
    return choice


def best_reduce_1d(
    p: int,
    b: int,
    params: MachineParams = CS2,
    include: Iterable[str] | None = None,
) -> Choice:
    """Fastest predicted 1D Reduce algorithm for ``(P, B)``."""
    return rank_spec(
        CollectiveSpec("reduce", Grid(1, p), b, params=params), include
    )


def best_allreduce_1d(
    p: int,
    b: int,
    params: MachineParams = CS2,
    include: Iterable[str] | None = None,
) -> Choice:
    """Fastest predicted 1D AllReduce algorithm (Figure 8's regions).

    Infeasible candidates (the Ring when ``B % P != 0``) are dropped
    before ranking rather than surfacing as unbuildable plans.
    """
    return rank_spec(
        CollectiveSpec("allreduce", Grid(1, p), b, params=params), include
    )


def best_reduce_2d(
    m: int,
    n: int,
    b: int,
    params: MachineParams = CS2,
    include: Iterable[str] | None = None,
) -> Choice:
    """Fastest predicted 2D Reduce algorithm for an ``M x N`` grid."""
    return rank_spec(
        CollectiveSpec("reduce", Grid(m, n), b, params=params), include
    )


def best_allreduce_2d(
    m: int,
    n: int,
    b: int,
    params: MachineParams = CS2,
    include: Iterable[str] | None = None,
) -> Choice:
    """Fastest predicted 2D AllReduce algorithm (Figure 10's regions)."""
    return rank_spec(
        CollectiveSpec("allreduce", Grid(m, n), b, params=params), include
    )
