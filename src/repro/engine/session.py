"""The sweep engine: fan a batch of collectives out over a warm pool.

The paper's evaluation is dominated by sweep grids — hundreds of
``(grid, B, algorithm)`` points, each an independent plan+simulate — and
the cycle simulator is pure Python, so the wall-clock lever is process
parallelism.  :class:`EngineSession` takes the same ``(specs, datas)``
batch as :func:`repro.core.api.run_many` and fans it out over one
persistent :class:`~concurrent.futures.ProcessPoolExecutor`:

* **one plan per distinct spec** — planned once *in the parent*
  (through the process-wide plan cache, so repeated sweeps replan
  nothing); chunks ship the finished plan and workers only execute it,
  so parallel results cannot diverge from serial planning state (tuner
  hooks, runtime-registered collectives) under any start method;
* **deterministic ordering** — results are reassembled by original
  index, bit-identical to the serial path no matter how many workers
  ran (simulation is pure, transport is lossless);
* **one warm pool** — built on first need (:meth:`EngineSession.attach`,
  or the first batch that can go parallel) and reused until ``close()``:
  ``stats.cold_starts`` counts the sweeps that started on a new pool,
  ``stats.pool_reuses`` the rest;
* **serial fallback** — ``workers=1``, single-point batches, daemonic
  processes (a pool cannot nest inside a pool worker) and batches the
  pool cannot transport (pickling failures, no shared-memory segment to
  be had) all run in-process; the engine *changes where points run,
  never what they compute*.

:mod:`repro.engine.partition` cuts a batch into chunks,
:mod:`repro.engine.transport` moves a chunk to a worker and its outcomes
back (through shared memory), and the event loop here owns scheduling
and recovery.  Chunks are self-contained plan+data units, so every
recovery is a plain re-execution and results stay bit-identical:

* **timeout + bounded retry** — a chunk that raises in its worker, or
  outlives ``chunk_timeout`` seconds, is requeued with seeded
  exponential backoff up to ``max_retries`` times (``stats.retries`` /
  ``stats.timeouts``); a timed-out attempt is abandoned, its eventual
  reply discarded and its segments reclaimed via a done-callback;
* **quarantine** — a chunk that exhausts its retries is re-executed
  serially in the parent (``stats.quarantined``); only an error that
  reproduces there — i.e. one ``run_many`` would raise too — surfaces,
  as that underlying per-chunk error, never as an opaque pool crash;
* **pool-loss recovery** — a dead pool (``BrokenProcessPool``) fails
  every in-flight chunk at once: completed results are salvaged, the
  rest are requeued (``stats.requeued_chunks``), and a replacement pool
  is stood up *during* the sweep (``stats.pool_replacements``) and kept
  for the sweeps after it.  After ``max_pool_deaths`` losses the session
  degrades to serial for the rest of its life (``stats.degraded``).

Every failure mode above is reproducible on demand through the seeded
fault-injection hooks in :mod:`repro.engine.faults` (``REPRO_FAULTS``).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import random
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Union

import numpy as np

from ..core.api import CollectiveOutcome, Plan, execute, plan
from ..core.registry import CollectiveSpec
from ..fabric.simulator import resolve_backend
from ..obs import spans as _obs
from . import faults, transport
from .partition import partition
from .store import TuneDB

__all__ = ["EngineSession", "EngineStats", "default_workers", "get_session",
           "set_session", "use_session", "session_or_new"]


def default_workers() -> int:
    """Worker count when none is given: the CPUs this process may use."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def _pool_context():
    """Fork when available (cheapest worker startup); correctness does
    not depend on it."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        return multiprocessing.get_context()


def _knob(value, name: str, env: str, default, convert, minimum=None):
    """Resolve one engine knob: the explicit argument, else its
    ``REPRO_*`` variable (empty means unset, unparsable raises naming
    the variable), else ``default`` — then range-check it.  The registry
    is imported here, not at module level, so ``python -m
    repro.core.config`` runs the registry module exactly once."""
    from ..core import config as _config

    if value is None:
        value = _config.env_number(env, default, convert)
    if value is None:
        return None
    value = convert(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


@dataclass
class EngineStats:
    """Cumulative observability counters of one :class:`EngineSession`."""

    #: total points executed (serial + parallel).
    points: int = 0
    #: distinct specs seen across all sweeps (i.e. plans needed).
    distinct_specs: int = 0
    #: number of sweep() calls.
    sweeps: int = 0
    #: chunks shipped to pool workers.
    chunks: int = 0
    #: points that ran inside pool workers / in-process.
    parallel_points: int = 0
    serial_points: int = 0
    #: most workers used by any single sweep.
    workers: int = 0
    #: total wall-clock seconds spent inside sweep().
    wall_time: float = 0.0
    #: parallel sweeps that started on a new pool / reused a warm one.
    cold_starts: int = 0
    pool_reuses: int = 0
    #: chunks (and input bytes) that went through the shm data plane.
    shm_chunks: int = 0
    shm_bytes: int = 0
    #: failed/timed-out chunk attempts that were requeued for retry.
    retries: int = 0
    #: chunk attempts abandoned for outliving ``chunk_timeout``.
    timeouts: int = 0
    #: in-flight chunks requeued because their pool died under them.
    requeued_chunks: int = 0
    #: dead pools replaced mid-sweep.
    pool_replacements: int = 0
    #: chunks that exhausted retries and re-executed serially in-parent.
    quarantined: int = 0
    #: 1 once the session gave up on pools (``max_pool_deaths`` exceeded).
    degraded: int = 0
    #: simulator backend active during the session's sweeps ("" until
    #: the first sweep resolves it).
    sim_backend: str = ""

    @property
    def points_per_second(self) -> float:
        return self.points / self.wall_time if self.wall_time > 0 else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Every field, plus the derived ``points_per_second``."""
        return {**dataclasses.asdict(self),
                "points_per_second": self.points_per_second}


@dataclass
class _ChunkTask:
    """One schedulable unit of a sweep: a spec's plan over some indices."""

    seq: int
    spec: CollectiveSpec
    indices: List[int]
    attempts: int = 0
    #: injected fault token, consumed by (shipped with) the first attempt.
    fault: Optional[faults.FaultSpec] = None
    #: the attempt in flight, and when it times out (``None`` = never).
    shipment: Optional[transport.Shipment] = None
    deadline: Optional[float] = None


@dataclass
class _Batch:
    """One parallel sweep's working state, shared by the event loop and
    its helpers."""

    plans: Dict[CollectiveSpec, Plan]
    datas: List[np.ndarray]
    queue: Deque[_ChunkTask]
    results: List[Optional[CollectiveOutcome]]
    inflight: Dict[Future, _ChunkTask] = field(default_factory=dict)

    def run_serial(self, task: _ChunkTask) -> None:
        """Execute a chunk in the parent (quarantine / poolless path)."""
        for index in task.indices:
            self.results[index] = execute(self.plans[task.spec],
                                          self.datas[index])

    def collect(self, task: _ChunkTask) -> None:
        """File a successful attempt's outcomes under their indices."""
        outcomes = transport.consume(task.shipment)
        for index, outcome in zip(task.indices, outcomes):
            self.results[index] = outcome


class EngineSession:
    """Drop-in parallel executor for ``run_many``-style batches.

    Use as a context manager (``with EngineSession(workers=8) as s:``),
    call :meth:`attach` / :meth:`close` explicitly, or just
    :meth:`sweep` — the pool is built when a batch first needs it.
    ``workers=None`` uses every CPU the process may schedule on;
    ``workers=1`` is exactly the serial pipeline.  ``db`` (a
    :class:`TuneDB` or a path to one) re-warms the process-wide plan
    cache on :meth:`attach`.  One session can run many sweeps;
    :attr:`stats` accumulates across them.  Read-only state:
    :attr:`pool` (the persistent executor, ``None`` until needed),
    :attr:`closed`, :attr:`degraded` (gave up on pools for good) and
    :attr:`pool_deaths`.

    Knobs (``None`` resolves the environment, then the default):

    * ``chunk_timeout`` — seconds an attempt may run before it is
      abandoned and requeued (``REPRO_CHUNK_TIMEOUT``; unset/<=0: none);
    * ``max_retries`` — failed/timed-out attempts a chunk gets before
      quarantine (``REPRO_MAX_RETRIES``, default 2);
    * ``backoff_base``, ``retry_seed`` — base seconds and jitter seed of
      the exponential backoff slept between attempts
      (``REPRO_RETRY_BACKOFF``, 0.05; ``REPRO_RETRY_SEED``, 0);
    * ``max_pool_deaths`` — pool losses tolerated before the session
      degrades to serial for good (``REPRO_MAX_POOL_DEATHS``, default 2).
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        db: Union[TuneDB, str, None] = None,
        chunk_timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        backoff_base: Optional[float] = None,
        retry_seed: Optional[int] = None,
        max_pool_deaths: Optional[int] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = default_workers() if workers is None else int(workers)
        timeout = _knob(chunk_timeout, "chunk_timeout", "REPRO_CHUNK_TIMEOUT",
                        None, float)
        self.chunk_timeout = timeout if timeout and timeout > 0 else None
        self.max_retries = _knob(max_retries, "max_retries",
                                 "REPRO_MAX_RETRIES", 2, int, minimum=0)
        self.backoff_base = _knob(backoff_base, "backoff_base",
                                  "REPRO_RETRY_BACKOFF", 0.05, float, minimum=0)
        self.retry_seed = _knob(retry_seed, "retry_seed", "REPRO_RETRY_SEED",
                                0, int)
        self.max_pool_deaths = _knob(max_pool_deaths, "max_pool_deaths",
                                     "REPRO_MAX_POOL_DEATHS", 2, int, minimum=0)
        self.db = db if isinstance(db, (TuneDB, type(None))) else TuneDB(db)
        self.stats = EngineStats()
        self.pool: Optional[ProcessPoolExecutor] = None
        self.pool_deaths = 0
        self.degraded = False
        self.closed = False
        self._retry_rng = random.Random(self.retry_seed)
        #: the pool has not yet finished a sweep (that sweep is the cold one).
        self._pool_fresh = False
        self._hydrated = False

    # -- lifecycle ----------------------------------------------------------

    def attach(self) -> "EngineSession":
        """Hydrate the plan cache and stand the pool up; idempotent."""
        self._check_open()
        if self.db is not None and not self._hydrated:
            with _obs.span("session.hydrate") as sp:
                sp.add(plans=self.db.hydrate_plan_cache())
            self._hydrated = True
        self._ensure_pool()
        return self

    def _check_open(self) -> None:
        if self.closed:
            raise RuntimeError(
                "this EngineSession is closed; create a new session "
                "(sessions do not reopen once their pool is shut down)"
            )

    def _ensure_pool(self) -> Optional[ProcessPoolExecutor]:
        """The persistent pool, built now if one can and should exist.

        ``workers=1`` sessions, sessions inside daemonic processes and
        degraded sessions stay poolless — their sweeps run serial,
        computing identical results.  A pool lost without a replacement
        (process or fd limits) is retried here on the next call.
        """
        if (self.pool is None and self.workers > 1 and not self.degraded
                and not multiprocessing.current_process().daemon):
            try:
                with _obs.span("session.build_pool", workers=self.workers):
                    self.pool = ProcessPoolExecutor(
                        max_workers=self.workers, mp_context=_pool_context()
                    )
                self._pool_fresh = True
            except OSError:
                pass  # no pool to be had; the serial path computes the same
        return self.pool

    def close(self) -> None:
        """Shut the pool down; idempotent (double-close is a no-op).
        Waits for the workers, so abandoned attempts finish and reclaim
        their segments before this returns."""
        if self.closed:
            return
        self.closed = True
        pool, self.pool = self.pool, None
        if pool is not None:
            pool.shutdown()

    def __enter__(self) -> "EngineSession":
        return self.attach()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- sweeping -----------------------------------------------------------

    def sweep(
        self,
        specs: Sequence[CollectiveSpec],
        datas: Sequence[np.ndarray],
    ) -> List[CollectiveOutcome]:
        """Execute ``specs[i]`` on ``datas[i]``; results in input order.

        Semantically identical to :func:`repro.core.api.run_many` — the
        session only decides *where* each point runs.
        """
        self._check_open()
        specs, datas = list(specs), list(datas)
        if len(specs) != len(datas):
            raise ValueError(
                f"got {len(specs)} specs but {len(datas)} data arrays"
            )
        with _obs.span("engine.sweep", points=len(specs),
                       workers=self.workers):
            started = time.perf_counter()
            # Planned once each, in the parent: workers only execute.
            plans = {spec: plan(spec) for spec in dict.fromkeys(specs)}
            outcomes = None
            if len(specs) > 1 and self._ensure_pool() is not None:
                try:
                    outcomes = self._sweep_parallel(plans, specs, datas)
                except (pickle.PicklingError, OSError, BrokenProcessPool):
                    # The batch (or the platform) cannot cross a process
                    # boundary, or recovery itself came apart; the serial
                    # path computes the same thing.
                    pass
            if outcomes is None:
                outcomes = [execute(plans[spec], data)
                            for spec, data in zip(specs, datas)]
                self.stats.serial_points += len(specs)
                self.stats.workers = max(self.stats.workers, 1)
            else:
                self.stats.parallel_points += len(specs)
            self.stats.points += len(specs)
            self.stats.distinct_specs += len(plans)
            self.stats.sweeps += 1
            self.stats.sim_backend = resolve_backend(None)
            self.stats.wall_time += time.perf_counter() - started
        return outcomes

    #: ``run_many`` is the same call — the session is a drop-in batch
    #: executor for code written against the core API's name.
    run_many = sweep

    def _sweep_parallel(
        self,
        plans: Dict[CollectiveSpec, Plan],
        specs: List[CollectiveSpec],
        datas: List[np.ndarray],
    ) -> List[CollectiveOutcome]:
        """Partition the batch and run it through the event loop."""
        if self._pool_fresh:
            self.stats.cold_starts += 1
        else:
            self.stats.pool_reuses += 1
        chunks = partition(specs, self.workers)
        batch = _Batch(plans, datas, deque(
            _ChunkTask(seq, spec, indices, fault=faults.draw("chunk"))
            for seq, (spec, indices) in enumerate(chunks)
        ), [None] * len(datas))
        try:
            self._run_chunks(batch)
        finally:
            # Whichever pool outlives this sweep — a mid-sweep
            # replacement included — has served one: the next is a reuse.
            self._pool_fresh = False
        self.stats.chunks += len(chunks)
        self.stats.workers = max(self.stats.workers,
                                 min(self.workers, len(chunks)))
        return batch.results  # type: ignore[return-value]

    def _run_chunks(self, batch: _Batch) -> None:
        """The sweep event loop: submit, collect, retry, recover, clean up.

        Invariants: a chunk's (injected) fault token ships with its
        first attempt only — retries and requeues always run clean;
        every shipment ends in exactly one of ``transport.consume``,
        ``discard`` or ``abandon``; a dead pool is replaced through
        :meth:`_ensure_pool`, and with no pool to be had the rest of the
        sweep drains serially in the parent.
        """
        queue, inflight = batch.queue, batch.inflight
        try:
            while queue or inflight:
                if self.pool is None:
                    while queue:
                        batch.run_serial(queue.popleft())
                    continue
                while queue:
                    task = queue.popleft()
                    try:
                        self._ship(batch, task)
                    except BrokenProcessPool:
                        queue.appendleft(task)
                        self._on_pool_loss(batch)
                        break
                    inflight[task.shipment.future] = task
                if not inflight:
                    continue
                timeout = None
                if self.chunk_timeout:
                    timeout = max(0.0, min(
                        task.deadline for task in inflight.values()
                    ) - time.monotonic())
                done, _ = wait(set(inflight), timeout=timeout,
                               return_when=FIRST_COMPLETED)
                pool_lost = False
                for future in done:
                    task = inflight.pop(future)
                    exc = future.exception()
                    if exc is None:
                        batch.collect(task)
                        continue
                    transport.discard(task.shipment)
                    if isinstance(exc, BrokenProcessPool):
                        self._requeue(batch, task)
                        pool_lost = True
                    else:
                        self._retry_or_quarantine(
                            batch, task,
                            can_retry=not isinstance(exc, pickle.PicklingError),
                        )
                if pool_lost:
                    self._on_pool_loss(batch)
                elif self.chunk_timeout:
                    now = time.monotonic()
                    for future, task in list(inflight.items()):
                        if now >= task.deadline:
                            del inflight[future]
                            transport.abandon(task.shipment)
                            self.stats.timeouts += 1
                            _obs.instant("engine.timeout", chunk=task.seq)
                            self._retry_or_quarantine(batch, task)
        finally:
            if inflight:
                # Error path (a quarantined chunk re-raised): resolve
                # the stragglers so no worker is still about to attach
                # a segment we unlink, then reclaim everything.
                for future in inflight:
                    future.cancel()
                wait(list(inflight))
                for task in inflight.values():
                    transport.discard(task.shipment)

    def _ship(self, batch: _Batch, task: _ChunkTask) -> None:
        """Send one attempt of ``task`` to the pool."""
        fault, task.fault = task.fault, None
        meta = None
        if _obs.enabled():
            meta = {
                "seq": task.seq,
                "points": len(task.indices),
                "attempt": task.attempts,
                "spec": (
                    f"{task.spec.kind}/{task.spec.algorithm} "
                    f"p={task.spec.grid.size} b={task.spec.b}"
                ),
            }
        task.shipment = transport.ship(
            self.pool, batch.plans[task.spec],
            [batch.datas[i] for i in task.indices], fault, meta,
        )
        if self.chunk_timeout:
            task.deadline = time.monotonic() + self.chunk_timeout
        self.stats.shm_chunks += 1
        self.stats.shm_bytes += task.shipment.segment.nbytes

    def _requeue(self, batch: _Batch, task: _ChunkTask) -> None:
        """Put back a chunk whose pool died under it (not a retry)."""
        batch.queue.append(task)
        self.stats.requeued_chunks += 1
        _obs.instant("engine.requeue", chunk=task.seq)

    def _retry_or_quarantine(
        self, batch: _Batch, task: _ChunkTask, can_retry: bool = True
    ) -> None:
        """Requeue a failed attempt with seeded backoff, or quarantine:
        re-execute the chunk serially in the parent.  A transient
        failure (dead worker, lost segment, timeout) succeeds there and
        the sweep continues; a deterministic one raises the same error
        ``run_many`` would — the per-chunk error, not a pool crash."""
        task.attempts += 1
        if can_retry and task.attempts <= self.max_retries:
            self.stats.retries += 1
            _obs.instant("engine.retry", chunk=task.seq, attempt=task.attempts)
            if self.backoff_base > 0:
                scale = 2 ** (task.attempts - 1)
                jitter = 0.5 + self._retry_rng.random()
                time.sleep(self.backoff_base * scale * jitter)
            batch.queue.append(task)
            return
        self.stats.quarantined += 1
        _obs.instant("engine.quarantine", chunk=task.seq)
        batch.run_serial(task)

    def _on_pool_loss(self, batch: _Batch) -> None:
        """The pool died: salvage, requeue, and stand up a replacement.

        Chunks whose futures completed before the loss are consumed
        normally (execution is pure, so their results are valid); the
        other in-flight chunks are abandoned and requeued.  Afterwards
        :attr:`pool` is the replacement, or ``None`` when the session
        degraded or no pool could be built (the sweep drains serially).
        """
        dead, self.pool = self.pool, None
        try:
            dead_workers = list((dead._processes or {}).values())
        except (AttributeError, RuntimeError):  # pragma: no cover - raced
            dead_workers = []
        for future, task in batch.inflight.items():
            if (future.done() and not future.cancelled()
                    and future.exception() is None):
                batch.collect(task)
            else:
                transport.abandon(task.shipment)
                self._requeue(batch, task)
        batch.inflight.clear()
        self.pool_deaths += 1
        _obs.instant("engine.pool_loss", deaths=self.pool_deaths)
        dead.shutdown(wait=False)
        transport.reap(dead_workers)
        if self.pool_deaths > self.max_pool_deaths:
            self.degraded = True
            self.stats.degraded = 1
            _obs.instant("engine.degraded")
        elif self._ensure_pool() is not None:
            self.stats.pool_replacements += 1
            _obs.instant("engine.pool_replacement")


# -- module-level default session -------------------------------------------

_DEFAULT: Dict[str, Optional[EngineSession]] = {"session": None}


def get_session() -> Optional[EngineSession]:
    """The installed default session, or ``None`` (closed ones don't count)."""
    session = _DEFAULT["session"]
    return None if session is None or session.closed else session


def set_session(session: Optional[EngineSession]) -> Optional[EngineSession]:
    """Install ``session`` as the module default; returns the previous one."""
    previous = _DEFAULT["session"]
    _DEFAULT["session"] = session
    return previous


@contextmanager
def session_or_new(session: Optional[EngineSession] = None, **kwargs):
    """Yield ``session`` — or, given ``None``, a new
    ``EngineSession(**kwargs)`` that is closed on exit (a one-off
    parallel sweep is a session used once).  A session passed in is left
    open; its owner keeps the lifecycle."""
    if session is not None:
        yield session
        return
    session = EngineSession(**kwargs)
    try:
        yield session
    finally:
        session.close()


@contextmanager
def use_session(session: Optional[EngineSession] = None, **kwargs):
    """Run a block with a (new or given) session as the module default.

    ``use_session(workers=8)`` creates a session, installs it so
    session-less callers (:func:`repro.engine.sweep`, the figure
    benches) share its pool, and closes it on exit.  Passing an existing
    ``session`` installs it without closing it afterwards — its owner
    keeps the lifecycle.
    """
    if session is not None and kwargs:
        raise TypeError(
            "use_session() takes engine kwargs only when creating the "
            "session; pass either a session or kwargs, not both"
        )
    with session_or_new(session, **kwargs) as active:
        previous = set_session(active)
        try:
            yield active.attach()
        finally:
            set_session(previous)
