"""Chunk transport: move one chunk to a pool worker and its outcomes back.

A chunk's arrays cross the process boundary through
:mod:`repro.engine.shm`, both ways: the parent packs the inputs into one
named segment and ships ``(name, shape, dtype, offset)`` descriptors,
and the worker packs the heavy result arrays (per-PE buffers, the
collective result) into a reply segment.  Only the plan, the
descriptors and the small outcome fields ride the pool's pipes.

Bytes are copied verbatim, so outcomes are bit-identical to in-process
execution.  Every segment is created, read and unlinked here: the parent
owns a chunk's *input* segment from :func:`ship` on and its *reply*
segment once the future resolves, so whoever holds a :class:`Shipment`
ends it with exactly one of :func:`consume` (it succeeded; decode its
outcomes), :func:`discard` (it resolved and its reply will never be
read) or :func:`abandon` (walk away before it resolves; it is discarded
whenever it does).  :func:`reap` collects what no future names any
more: segments created by workers of a pool that died.  Where segments
cannot be created, :func:`ship` raises ``OSError``.
"""

from __future__ import annotations

import dataclasses
import glob
import os
import time
from concurrent.futures import Executor, Future
from dataclasses import dataclass
from multiprocessing.connection import wait as wait_sentinels
from typing import List, Optional, Sequence

import numpy as np

from ..core.api import CollectiveOutcome, Plan, execute_batch
from ..obs import spans as _obs
from ..obs.metrics import METRICS
from . import faults, shm

__all__ = ["Shipment", "run_chunk", "ship", "consume", "discard", "abandon",
           "reap"]


@dataclass
class _ShmInputs:
    """A chunk's input arrays, parked in a parent-owned segment."""

    segment: shm.Segment
    refs: List[shm.ArrayRef]


@dataclass
class _Reply:
    """What a worker answers a chunk with.

    ``segment`` names the reply segment and the outcomes' ``result`` /
    ``sim.buffers`` values are :class:`~repro.engine.shm.ArrayRef`
    placeholders into it; :func:`consume` swaps the arrays back in.
    ``events`` is the worker-side telemetry, present only when the
    parent was recording at submit time (``meta`` rode along with the
    chunk); :func:`consume` merges it onto the parent timeline under a
    track named by ``pid``.
    """

    outcomes: List[CollectiveOutcome]
    segment: shm.Segment
    events: Optional[List[dict]] = None
    pid: int = 0


@dataclass
class Shipment:
    """One chunk attempt in flight: its future and what the parent owns."""

    future: Future
    #: the parent-owned input segment.
    segment: shm.Segment


# -- worker side --------------------------------------------------------------


def _heavy(outcomes: List[CollectiveOutcome]):
    """The arrays worth a segment, in the order both sides agree on."""
    for outcome in outcomes:
        yield outcome.result
        for pe in sorted(outcome.sim.buffers):
            yield outcome.sim.buffers[pe]


def _with_heavy(outcomes: List[CollectiveOutcome], values):
    """``outcomes`` with each :func:`_heavy` array replaced by the next
    of ``values`` (descriptors on the way out, arrays on the way in)."""
    cursor = iter(values)
    return [
        dataclasses.replace(
            outcome,
            result=next(cursor),
            sim=dataclasses.replace(outcome.sim, buffers={
                pe: next(cursor) for pe in sorted(outcome.sim.buffers)
            }),
        )
        for outcome in outcomes
    ]


def _execute(chunk_plan: Plan, inputs: _ShmInputs,
             timed: Optional[CollectiveOutcome]) -> _Reply:
    """Execute a chunk's points — at most one simulation, the rest from
    the value pass — and pack its reply segment."""
    # Input views are read-only — ``execute`` copies what it keeps — and
    # the input segment stays the parent's.  The reply segment is created
    # here but ownership passes to the parent with the descriptor.
    datas, mem = shm.read(inputs.segment, inputs.refs, copy=False)
    try:
        outcomes = execute_batch(
            [chunk_plan] * len(datas), datas,
            timed=() if timed is None else
            [dataclasses.replace(timed, plan=chunk_plan)],
        )
    finally:
        mem.close()
    segment, refs = shm.pack(list(_heavy(outcomes)))
    return _Reply(_with_heavy(outcomes, refs), segment)


def run_chunk(
    chunk_plan: Plan,
    inputs: _ShmInputs,
    fault: Optional[faults.FaultSpec] = None,
    meta: Optional[dict] = None,
    timed: Optional[CollectiveOutcome] = None,
) -> _Reply:
    """The worker body: execute one chunk under the plan it arrived with.

    The plan arrives fully built from the parent, so workers never plan
    — execution cannot depend on what the worker process knows (registry
    contents, tuner hooks, start method).  ``timed``, when given, is an
    outcome of the plan simulated elsewhere: the chunk replays its
    timing instead of simulating.  ``fault`` is an injected
    kill/delay token from the parent's fault plan.  ``meta`` (present
    only while the parent records telemetry) labels a worker-side
    ``engine.chunk`` span: recording is forced on for the chunk (a
    spawned worker inherits no enablement), events go to a fresh
    collector (a forked worker must not re-ship inherited events), and
    the fault runs *inside* the span so delays show on the worker track.
    """
    if meta is None:
        faults.perform(fault)
        return _execute(chunk_plan, inputs, timed)
    previous = _obs.set_enabled(True)
    try:
        with _obs.collect() as collected:
            with _obs.span("engine.chunk", **meta):
                faults.perform(fault)
                reply = _execute(chunk_plan, inputs, timed)
        reply.events, reply.pid = collected.events, os.getpid()
        return reply
    finally:
        _obs.set_enabled(previous)


# -- parent side --------------------------------------------------------------


def ship(
    pool: Executor,
    chunk_plan: Plan,
    datas: List[np.ndarray],
    fault: Optional[faults.FaultSpec] = None,
    meta: Optional[dict] = None,
    timed: Optional[CollectiveOutcome] = None,
) -> Shipment:
    """Pack a chunk's inputs into a segment and submit it to ``pool``.

    An injected ``shm`` fault corrupts the descriptor the worker sees —
    never the parent's own unlink handle.  ``meta`` asks the worker to
    record and return its chunk span; ``None`` keeps it on the
    untouched fast path.  ``timed`` is an outcome of ``chunk_plan``
    whose timing the chunk replays; it travels without its arrays of
    values.
    """
    segment, refs = shm.pack(
        [np.asarray(data, dtype=np.float64) for data in datas]
    )
    shipped = segment
    if fault is not None and fault.kind == "shm":
        shipped = dataclasses.replace(segment, name=segment.name + "-torn")
        fault = None  # the corrupted descriptor *is* the fault
    if timed is not None:
        timed = dataclasses.replace(
            timed, result=np.empty(0),
            sim=dataclasses.replace(timed.sim, buffers={}),
        )
    try:
        future = pool.submit(
            run_chunk, chunk_plan, _ShmInputs(shipped, refs), fault, meta,
            timed,
        )
    except BaseException:
        shm.unlink(segment.name)
        raise
    return Shipment(future, segment)


def _merge_telemetry(reply: _Reply) -> None:
    """Adopt a worker's chunk telemetry onto the parent timeline."""
    if reply.events is None or not _obs.enabled():
        return
    _obs.merge_events(reply.events, tid=reply.pid)
    for event in reply.events:
        if event.get("ph") == "X" and event.get("name") == "engine.chunk":
            METRICS.observe(
                "engine.chunk.wall_seconds",
                float(event.get("dur", 0.0)) / 1e6,
                worker=reply.pid,
            )


def consume(shipment: Shipment) -> List[CollectiveOutcome]:
    """The outcomes of a shipment whose future resolved without error.

    Decodes the reply segment and leaves no segment behind, the decode
    failing included.
    """
    try:
        reply = shipment.future.result()
        _merge_telemetry(reply)
        try:
            arrays = shm.read(reply.segment, list(_heavy(reply.outcomes)))
        finally:
            shm.unlink(reply.segment.name)
        return _with_heavy(reply.outcomes, arrays)
    finally:
        shm.unlink(shipment.segment.name)


def discard(shipment: Shipment) -> None:
    """Reclaim what a *resolved* shipment owns without reading its reply
    (the attempt failed, was cancelled, or nobody wants its result)."""
    future = shipment.future
    try:
        if not future.cancelled() and future.exception() is None:
            shm.unlink(future.result().segment.name)
    finally:
        shm.unlink(shipment.segment.name)


def abandon(shipment: Shipment) -> None:
    """Walk away from an attempt but reclaim its segments eventually.

    A timed-out (or pool-loss-doomed) attempt cannot be interrupted, so
    its input segment must survive until the worker is provably done
    with it, and any reply segment it produces must still be unlinked.
    A done-callback discards the shipment whenever the future finally
    resolves — immediately, if it already has.
    """
    shipment.future.cancel()
    shipment.future.add_done_callback(lambda _resolved: discard(shipment))


def reap(workers: Sequence, timeout: float = 5.0) -> None:
    """Unlink segments orphaned by a dead pool's worker processes.

    When a pool breaks, the executor SIGTERMs the surviving workers; one
    terminated mid-chunk can leave a reply segment it created but never
    handed off (or whose descriptor died in the broken result queue).
    No future names those segments — but the worker's pid does, so once
    a worker is provably dead, anything under its pid is garbage.
    Workers not confirmed dead are left alone: never unlink behind a
    live process.  Death is read off each worker's sentinel, which
    closes when the process exits: ``join``/``is_alive`` can report a
    dead worker alive while the executor's own thread is reaping it.
    """
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - no shm mount
        return
    deadline = time.monotonic() + timeout
    for proc in workers:
        try:
            exited = wait_sentinels([proc.sentinel],
                                    max(0.0, deadline - time.monotonic()))
        except (OSError, ValueError):  # pragma: no cover - closed process
            continue
        if not exited:  # pragma: no cover - worker survived SIGTERM
            continue
        for path in glob.glob(f"/dev/shm/{shm.NAME_PREFIX}_{proc.pid}_*"):
            shm.unlink(os.path.basename(path))
