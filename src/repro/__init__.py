"""repro: reproduction of "Near-Optimal Wafer-Scale Reduce" (HPDC 2024).

The package provides:

* :mod:`repro.model` -- the spatial performance model (Eq. 1), per-
  algorithm closed forms, and the Lemma 5.5 lower bound;
* :mod:`repro.autogen` -- the Auto-Gen DP optimizer and tree codegen;
* :mod:`repro.fabric` -- a cycle-level simulator of the WSE's 2D mesh;
* :mod:`repro.collectives` -- schedule builders for every pattern in the
  paper (Star/Chain/Tree/Two-Phase/Auto-Gen/Ring/Snake/X-Y, broadcasts);
* :mod:`repro.core` (re-exported as :data:`repro.wse`) -- the
  spec-driven plan/execute pipeline: a frozen
  :class:`~repro.core.registry.CollectiveSpec` is planned once through
  the model-driven planner (``plan``), memoized in the plan cache, and
  executed any number of times (``execute`` / ``run_many``);
* :mod:`repro.engine` -- the parallel sweep engine: process-pool
  fan-out for ``run_many``-style batches (``engine.sweep``), a
  persistent spec-keyed plan/tune store (``TuneDB``), and autotuning
  hooks that let measured winners override the analytic planner;
* :mod:`repro.timing` -- the clock-synchronization measurement
  methodology of Section 8.3;
* :mod:`repro.bench` -- drivers regenerating every figure of Section 8
  (all measured sweep points are batched through the sweep engine);
* :mod:`repro.service` -- planner-as-a-service: an asyncio HTTP/JSON
  front end (``python -m repro.service``) with single-flight coalescing
  of identical concurrent plan requests, serving results bit-identical
  to the library path.

The stable public surface is re-exported here: ``plan`` / ``execute`` /
``run_many`` / ``simulate`` for the plan-execute pipeline, ``sweep`` /
``tune`` / ``use_session`` for the parallel engine, ``use_telemetry``
for observability, and the :class:`CollectiveSpec` vocabulary they all
share (see CONTRIBUTING for the stability table).

Quickstart::

    import numpy as np
    from repro import wse

    data = np.random.default_rng(0).normal(size=(64, 256))  # 64 PEs, B=256
    out = wse.reduce(data)          # planner picks the algorithm
    assert np.allclose(out.result, data.sum(axis=0))
    print(out.algorithm, out.measured_cycles, out.predicted_cycles)

Spec-level batching (one plan per distinct spec, cached across calls)::

    from repro import CollectiveSpec, Grid, wse

    spec = CollectiveSpec("allreduce", Grid(1, 64), 256)
    steps = [np.random.default_rng(s).normal(size=(64, 256)) for s in range(8)]
    outs = wse.run_many([spec] * 8, steps)   # planned and simulated once, 8 results
"""

from . import autogen, collectives, core, engine, fabric, model, obs
from . import core as wse
from .core import (
    PLAN_CACHE,
    CollectiveOutcome,
    CollectiveSpec,
    Plan,
    allreduce,
    broadcast,
    cache_info,
    execute,
    plan,
    reduce,
    run_many,
)
from .engine import sweep, tune, use_session
from .fabric import Grid, row_grid, simulate
from .model import CS2, MachineParams
from .obs import use_telemetry

__version__ = "1.3.0"

__all__ = [
    "autogen",
    "collectives",
    "core",
    "engine",
    "fabric",
    "model",
    "obs",
    "wse",
    "CollectiveOutcome",
    "CollectiveSpec",
    "Plan",
    "plan",
    "execute",
    "run_many",
    "simulate",
    "sweep",
    "tune",
    "use_session",
    "use_telemetry",
    "cache_info",
    "PLAN_CACHE",
    "allreduce",
    "broadcast",
    "reduce",
    "Grid",
    "row_grid",
    "CS2",
    "MachineParams",
    "__version__",
]
