"""Top-level engine façade: one call to sweep a batch of collectives.

``repro.engine.sweep`` is the batch analogue of ``wse.run_many`` with
process-pool fan-out.  Resolution order for *where* the batch runs:

1. an explicit ``session`` (a warm :class:`EngineSession` pool);
2. the module-default session (:func:`repro.engine.use_session` /
   :func:`~repro.engine.session.set_session`) — but only when the
   caller did not force a ``workers`` count of its own;
3. a session created for this one call and closed after it.

After every call :func:`last_stats` holds a snapshot of the executing
session's cumulative :class:`~repro.engine.session.EngineStats` — the
failure/recovery counters included — so even one-off callers can
observe what the sweep survived.  For reuse across calls, hold an
:class:`EngineSession` directly.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.api import CollectiveOutcome
from ..core.registry import CollectiveSpec
from .session import EngineSession, EngineStats, get_session, session_or_new

__all__ = ["sweep", "last_stats"]

# Snapshot of the most recent sweep()'s session stats (see last_stats).
_LAST: Dict[str, Optional[EngineStats]] = {"stats": None}


def last_stats() -> Optional[EngineStats]:
    """Stats snapshot of the session the most recent :func:`sweep` used.

    Cumulative for that session (a held session keeps counting across
    calls; a one-off session's counters cover just the one sweep), and
    frozen at return time — later sweeps do not mutate old snapshots.
    ``None`` before the first call.
    """
    return _LAST["stats"]


def sweep(
    specs: Sequence[CollectiveSpec],
    datas: Sequence[np.ndarray],
    workers: Optional[int] = None,
    session: Optional[EngineSession] = None,
) -> List[CollectiveOutcome]:
    """Execute ``specs[i]`` on ``datas[i]``; results in input order.

    Plans once per distinct spec, fans the simulations out over worker
    processes (default: every CPU the process may use; ``workers=1`` is
    exactly the serial ``run_many`` pipeline), and returns outcomes
    bit-identical to the serial path.  Pass ``session`` to run on a
    persistent warm pool — without one, an installed default session is
    used (unless ``workers`` explicitly pins a different count).
    """
    if session is None and workers is None:
        session = get_session()
    with session_or_new(session, workers=workers) as active:
        outcomes = active.sweep(specs, datas)
        _LAST["stats"] = dataclasses.replace(active.stats)
    return outcomes
