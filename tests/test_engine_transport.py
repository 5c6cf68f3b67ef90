"""Tests for repro.engine.transport: one chunk out, its outcomes back.

The transport's contract is lossless delivery and leak-free ownership:
with or without worker telemetry riding along, ``consume`` returns outcomes
bit-identical to in-process execution — and every way a shipment can end
(``consume``, ``discard``, ``abandon``) leaves no ``repro_shm_*``
segment behind, which the module-wide ``shm_leak_guard`` enforces.
"""

import glob
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, wait

import numpy as np
import pytest

from repro import CollectiveSpec, Grid, wse
from repro.engine import shm, transport
from repro.engine.faults import FaultSpec
from repro.obs import export

pytestmark = pytest.mark.usefixtures("shm_leak_guard")

REDUCE = CollectiveSpec("reduce", Grid(1, 8), 16)
BROADCAST = CollectiveSpec("broadcast", Grid(1, 6), 12)
META = {"seq": 0, "points": 3, "attempt": 0, "spec": "test"}


@pytest.fixture()
def pool():
    executor = ProcessPoolExecutor(
        max_workers=2, mp_context=multiprocessing.get_context("fork")
    )
    yield executor
    # Waiting lets abandoned attempts resolve and reclaim their segments
    # before the leak guard looks.
    executor.shutdown(wait=True)


def _chunk(spec, rng, n=3):
    shape = spec.b if spec.kind == "broadcast" else (spec.grid.size, spec.b)
    return wse.plan(spec), [rng.normal(size=shape) for _ in range(n)]


def _assert_bit_identical(ours, reference):
    assert len(ours) == len(reference)
    for a, b in zip(ours, reference):
        assert np.array_equal(a.result, b.result)
        assert a.result.dtype == b.result.dtype
        assert a.measured_cycles == b.measured_cycles
        assert a.algorithm == b.algorithm
        assert sorted(a.sim.buffers) == sorted(b.sim.buffers)
        for pe in b.sim.buffers:
            assert np.array_equal(a.sim.buffers[pe], b.sim.buffers[pe])


@pytest.mark.parametrize("spec", [REDUCE, BROADCAST], ids=lambda s: s.kind)
@pytest.mark.parametrize("meta", [None, META], ids=["bare", "telemetry"])
def test_round_trip_is_bit_identical(pool, rng, spec, meta):
    chunk_plan, datas = _chunk(spec, rng)
    reference = [wse.execute(chunk_plan, data) for data in datas]
    shipment = transport.ship(pool, chunk_plan, datas, meta=meta)
    _assert_bit_identical(transport.consume(shipment), reference)


def test_worker_telemetry_reaches_the_parent_timeline(pool, rng):
    chunk_plan, datas = _chunk(REDUCE, rng)
    with export.use_telemetry() as got:
        shipment = transport.ship(pool, chunk_plan, datas, meta=META)
        transport.consume(shipment)
    chunk_spans = [e for e in got.events
                   if e.get("ph") == "X" and e["name"] == "engine.chunk"]
    assert len(chunk_spans) == 1
    assert chunk_spans[0]["args"]["seq"] == META["seq"]


def test_discard_reclaims_a_resolved_shipment(pool, rng):
    chunk_plan, datas = _chunk(REDUCE, rng)
    shipment = transport.ship(pool, chunk_plan, datas)
    wait([shipment.future])
    transport.discard(shipment)          # reply never read; guard checks


def test_discard_reclaims_a_failed_shipment(pool, rng):
    chunk_plan, _ = _chunk(REDUCE, rng)
    bad = [rng.normal(size=(3, 3))]      # wrong shape: the worker raises
    shipment = transport.ship(pool, chunk_plan, bad)
    assert isinstance(shipment.future.exception(), ValueError)
    transport.discard(shipment)


def test_torn_descriptor_fails_in_the_worker_not_the_parent(pool, rng):
    chunk_plan, datas = _chunk(REDUCE, rng)
    shipment = transport.ship(pool, chunk_plan, datas,
                              fault=FaultSpec("shm", at=0))
    assert shipment.future.exception() is not None
    transport.discard(shipment)          # parent's handle was never torn


def test_abandon_reclaims_once_the_attempt_resolves(pool, rng):
    chunk_plan, datas = _chunk(REDUCE, rng)
    shipment = transport.ship(pool, chunk_plan, datas,
                              fault=FaultSpec("delay", at=0, arg=0.3))
    assert not shipment.future.done()
    transport.abandon(shipment)          # walk away mid-flight
    # The fixture's shutdown(wait=True) lets the attempt finish; its
    # done-callback must then have dropped both segments.


def test_timed_chunk_replays_instead_of_simulating(pool, rng):
    """A chunk shipped with an outcome of its plan simulates nothing and
    still returns what in-process execution returns."""
    chunk_plan, datas = _chunk(REDUCE, rng)
    reference = [wse.execute(chunk_plan, data) for data in datas]
    shipment = transport.ship(pool, chunk_plan, datas, timed=reference[0])
    outcomes = transport.consume(shipment)
    _assert_bit_identical(outcomes, reference)
    assert [o.sim.backend for o in outcomes] == \
        [o.sim.backend for o in reference]


def _leave_a_segment():
    shm.pack([np.ones(4)])
    os._exit(0)


def test_reap_unlinks_a_worker_another_waiter_reaped():
    """The executor's thread may collect a dead worker's exit status
    first; ``join``/``is_alive`` then report it alive, yet its segments
    are garbage."""
    proc = multiprocessing.get_context("fork").Process(target=_leave_a_segment)
    proc.start()
    os.waitpid(proc.pid, 0)              # someone else reaped it
    assert glob.glob(f"/dev/shm/{shm.NAME_PREFIX}_{proc.pid}_*")
    transport.reap([proc], timeout=2.0)
    assert not glob.glob(f"/dev/shm/{shm.NAME_PREFIX}_{proc.pid}_*")


def test_unlink_removes_an_empty_segment():
    """A creator killed between creating and sizing a segment leaves it
    empty; it cannot be mapped, but it can still be removed."""
    name = f"{shm.NAME_PREFIX}_{os.getpid()}_empty"
    os.close(os.open(f"/dev/shm/{name}", os.O_CREAT | os.O_EXCL, 0o600))
    assert shm.unlink(name)
    assert not os.path.exists(f"/dev/shm/{name}")
