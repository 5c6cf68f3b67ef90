"""Per-entry autotuning: measured winners override the analytic planner.

The paper's planner is purely analytic — Equation (1) ranks algorithms
without running anything.  The model is good (single-digit error on the
measured sweeps) but an autotuner closes the loop the way empirical
libraries (FFTW, ATLAS, autotuned BLAS) do: *measure* every feasible
candidate once, persist the winner in a :class:`~repro.engine.store.
TuneDB`, and let subsequent ``algorithm="auto"`` plans prefer the
measured winner over the analytic pick.

Three pieces:

* :class:`Tuner` — the callable :func:`repro.core.planner.rank_spec`
  accepts: maps a spec to its measurement-backed winner (or ``None``,
  which leaves the analytic choice untouched);
* :func:`tune` — the measurement driver: for each spec it executes every
  feasible candidate through one :class:`~repro.engine.session.
  EngineSession` and records per-algorithm measured cycles plus the
  winner;
* :func:`set_tuner` / :func:`use_tuner` — install a tuner process-wide
  (invalidating the plan cache, whose ``auto`` plans embed the ranking
  they were made under).

Simulated cycle counts are data-independent — neither timing engine
is given the values (``tests/test_sim_backends.py`` checks both) — so
:func:`tune` measures each candidate on one deterministic random input
(:func:`repro.core.api.seeded_input`), and measurements from either
backend are the same cycles.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterable, Optional, Union

from ..core import planner, registry
from ..core.api import seeded_input
from ..core.cache import PLAN_CACHE
from ..core.registry import CollectiveSpec
from .session import EngineSession, session_or_new
from .store import TuneDB

__all__ = ["Tuner", "tune", "set_tuner", "use_tuner"]


class Tuner:
    """Planner hook backed by a :class:`~repro.engine.store.TuneDB`.

    Consulted by :func:`repro.core.planner.rank_spec`; answers with the
    DB's measured winner only when one exists for the (auto-normalized)
    spec *and* it is among the feasible candidates being ranked.
    """

    def __init__(self, db: TuneDB) -> None:
        self.db = db

    def __call__(
        self, spec: CollectiveSpec, candidates: Dict[str, float]
    ) -> Optional[str]:
        winner = self.db.winner(spec.with_algorithm("auto"))
        if winner is None or winner not in candidates:
            return None
        return winner


def set_tuner(tuner: Union[Tuner, TuneDB, None]) -> Optional[planner.Tuner]:
    """Install ``tuner`` process-wide; returns the previous hook.

    Accepts a :class:`Tuner`, a bare :class:`TuneDB` (wrapped), or
    ``None`` to go back to purely analytic planning.  The process-wide
    plan cache is invalidated either way: cached ``auto`` plans embed
    the ranking they were planned under.
    """
    if isinstance(tuner, TuneDB):
        tuner = Tuner(tuner)
    previous = planner.set_tuner_hook(tuner)
    PLAN_CACHE.clear()
    return previous


@contextmanager
def use_tuner(tuner: Union[Tuner, TuneDB, None]):
    """Context manager: plan with ``tuner`` inside, restore on exit."""
    previous = set_tuner(tuner)
    try:
        yield planner.get_tuner_hook()
    finally:
        set_tuner(previous)


def tune(
    specs: Iterable[CollectiveSpec],
    db: Optional[TuneDB] = None,
    session: Optional[EngineSession] = None,
    workers: Optional[int] = None,
    seed: int = 0,
) -> TuneDB:
    """Measure every feasible candidate of each spec; record the winners.

    Each spec is normalized to ``algorithm="auto"`` (that is the planning
    decision being tuned), its feasible candidates are executed through
    one session for the whole call — ``session``, else one created with
    ``workers`` processes and closed afterwards — and the DB receives
    per-algorithm measured cycles plus the fastest algorithm as
    ``winner_algorithm``.  Returns the DB, so ``set_tuner(tune(specs))``
    is a one-liner.

    The process-wide plan cache is invalidated afterwards: if a tuner
    backed by ``db`` is installed, fresh measurements may change what
    ``auto`` resolves to.
    """
    if db is None:
        db = TuneDB()
    with session_or_new(session, workers=workers) as active:
        seen = set()
        for spec in specs:
            auto_spec = spec.with_algorithm("auto")
            if auto_spec in seen:
                continue
            seen.add(auto_spec)
            entries = registry.entries_for(auto_spec.kind, auto_spec.dims)
            candidates = [
                name for name in sorted(entries)
                if entries[name].feasible(auto_spec.with_algorithm(name))
            ]
            if not candidates:
                continue
            forced = [auto_spec.with_algorithm(name) for name in candidates]
            data = seeded_input(auto_spec, seed)
            outcomes = active.sweep(forced, [data] * len(forced))
            measured = {
                name: outcome.measured_cycles
                for name, outcome in zip(candidates, outcomes)
            }
            winner = min(candidates, key=lambda name: (measured[name], name))
            winner_outcome = outcomes[candidates.index(winner)]
            db.record(
                auto_spec,
                predicted_cycles=winner_outcome.predicted_cycles,
                measured_cycles=measured[winner],
                winner_algorithm=winner,
                measured=measured,
            )
    PLAN_CACHE.clear()
    return db
