"""repro.engine: parallel sweep engine with a persistent plan/tune store.

The spec pipeline (:mod:`repro.core`) made every collective a pure
``plan(spec)`` + ``execute(plan, data)``; this package scales that
contract out and makes it durable:

* :mod:`repro.engine.session` — :class:`EngineSession`, *the* engine:
  runs ``run_many``-style batches on one persistent process pool (built
  on first need, reused across sweeps), bit-identical to the serial
  path, with the retry/timeout/quarantine/pool-loss recovery loop and a
  serial fallback; :func:`use_session` / :func:`set_session` install a
  module default;
* :mod:`repro.engine.partition` — the pure split of a batch into
  one-spec, bounded-size chunks, and its ``verify_assignments`` checker;
* :mod:`repro.engine.transport` — the worker body and the shared-memory
  encoding of a chunk and its reply; the only module that touches
  segments;
* :mod:`repro.engine.shm` — the shared-memory data plane: ``(name,
  shape, dtype, offset)`` descriptors into ``multiprocessing.
  shared_memory`` segments instead of pickled per-PE buffers;
* :mod:`repro.engine.store` — :class:`TuneDB`, an
  append-only JSON-lines store mapping frozen specs to
  ``{predicted_cycles, measured_cycles, winner_algorithm}``; survives
  processes and re-warms the plan cache via
  :meth:`TuneDB.hydrate_plan_cache`;
* :mod:`repro.engine.autotune` — :func:`tune` measures every feasible
  candidate per spec and records winners; :func:`set_tuner` /
  :func:`use_tuner` let those winners override the analytic planner;
* :mod:`repro.engine.runner` — the :func:`sweep` façade (the default
  session when one is installed, else a session used once) and
  :func:`last_stats`, the executing session's counters;
* :mod:`repro.engine.faults` — deterministic, seeded fault injection
  (``REPRO_FAULTS`` / :func:`use_faults`): every failure mode the
  recovery loop claims to survive — a killed worker, a chunk past its
  deadline, a corrupt shm descriptor, a torn JSONL append — reproduced
  on demand, with results bit-identical to serial under all of them.

Quickstart::

    import numpy as np
    from repro import CollectiveSpec, Grid, engine

    spec = CollectiveSpec("reduce", Grid(1, 64), 256)
    datas = [np.random.default_rng(s).normal(size=(64, 256))
             for s in range(32)]

    with engine.use_session(workers=4) as session:
        outs = engine.sweep([spec] * 32, datas)    # cold start ...
        outs = engine.sweep([spec] * 32, datas)    # ... warm reuse
        print(session.stats.pool_reuses)           # 1
"""

from . import faults
from .autotune import Tuner, set_tuner, tune, use_tuner
from .faults import FaultPlan, FaultSpec, use_faults
from .runner import last_stats, sweep
from .session import (
    EngineSession,
    EngineStats,
    default_workers,
    get_session,
    set_session,
    use_session,
)
from .store import (
    FsckIssue,
    FsckReport,
    TuneDB,
    TuneRecord,
    default_db_path,
    spec_from_key,
    spec_to_key,
)

__all__ = [
    "EngineStats",
    "default_workers",
    "sweep",
    "last_stats",
    "faults",
    "FaultPlan",
    "FaultSpec",
    "use_faults",
    "FsckIssue",
    "FsckReport",
    "EngineSession",
    "get_session",
    "set_session",
    "use_session",
    "tune",
    "Tuner",
    "set_tuner",
    "use_tuner",
    "TuneDB",
    "TuneRecord",
    "default_db_path",
    "spec_to_key",
    "spec_from_key",
]
