"""Tests for persistent worker sessions and the shared-memory data plane.

The session's contract extends the engine's: one warm pool across many
sweeps, same results bit for bit, and a lifecycle that degrades cleanly —
``workers=1`` and daemonic processes stay serial, a closed session
refuses work, a broken pool is replaced, and shared-memory segments are
always unlinked, worker crashes included.
"""

import errno
import gc
import glob
import multiprocessing
import os

import numpy as np
import pytest

from repro import CollectiveSpec, Grid, wse
from repro.core.cache import PLAN_CACHE
from repro.engine import (
    EngineSession,
    TuneDB,
    default_workers,
    get_session,
    set_session,
    sweep,
    use_session,
)
from repro.engine import shm, transport

pytestmark = pytest.mark.usefixtures("shm_leak_guard", "close_sessions")


@pytest.fixture(autouse=True)
def fresh_cache():
    PLAN_CACHE.clear()
    yield
    PLAN_CACHE.clear()


@pytest.fixture(autouse=True)
def no_leftover_default_session():
    assert get_session() is None
    yield
    set_session(None)


def _mixed_batch(rng, repeats=2):
    """A batch mixing kinds, shapes and repeated specs."""
    specs, datas = [], []
    for _ in range(repeats):
        specs.append(CollectiveSpec("reduce", Grid(1, 8), 16))
        datas.append(rng.normal(size=(8, 16)))
        specs.append(CollectiveSpec("allreduce", Grid(1, 4), 8,
                                    algorithm="chain"))
        datas.append(rng.normal(size=(4, 8)))
        specs.append(CollectiveSpec("reduce", Grid(2, 3), 6))
        datas.append(rng.normal(size=(6, 6)))
        specs.append(CollectiveSpec("broadcast", Grid(1, 6), 12))
        datas.append(rng.normal(size=12))
    return specs, datas


def _assert_outcomes_equal(ours, reference):
    assert len(ours) == len(reference)
    for a, b in zip(ours, reference):
        assert np.array_equal(a.result, b.result)
        assert a.measured_cycles == b.measured_cycles
        assert a.algorithm == b.algorithm


def _shm_segments():
    return glob.glob(f"/dev/shm/{shm.NAME_PREFIX}_*")


class TestWarmSessionEquivalence:
    def test_repeated_sweeps_bit_identical_to_serial(self, rng):
        specs, datas = _mixed_batch(rng)
        baseline = wse.run_many(specs, datas)
        with EngineSession(workers=2) as session:
            for _ in range(3):
                _assert_outcomes_equal(session.sweep(specs, datas), baseline)
        stats = session.stats
        assert stats.parallel_points == 3 * len(specs)
        assert stats.cold_starts == 1          # one pool for all three sweeps
        assert stats.pool_reuses == 2

    def test_run_many_alias(self, rng):
        specs, datas = _mixed_batch(rng, repeats=1)
        with EngineSession(workers=2) as session:
            _assert_outcomes_equal(
                session.run_many(specs, datas), wse.run_many(specs, datas)
            )

    def test_shm_transport_really_engaged(self, rng):
        specs, datas = _mixed_batch(rng)
        with EngineSession(workers=2) as session:
            session.sweep(specs, datas)
            assert session.stats.shm_chunks == session.stats.chunks > 0
            assert session.stats.shm_bytes > 0

    def test_longest_predicted_simulation_ships_first(self, rng, monkeypatch):
        """Each spec's first chunk simulates; they ship in descending
        predicted cycles so the slowest simulation never starts last."""
        specs, datas = _mixed_batch(rng)
        # Present the batch shortest predicted simulation first.
        order = sorted(range(len(specs)),
                       key=lambda i: wse.plan(specs[i]).predicted_cycles)
        specs, datas = [specs[i] for i in order], [datas[i] for i in order]
        shipped, ship = [], transport.ship

        def recording_ship(pool, chunk_plan, *args, **kwargs):
            shipped.append(chunk_plan)
            return ship(pool, chunk_plan, *args, **kwargs)

        monkeypatch.setattr(transport, "ship", recording_ship)
        with EngineSession(workers=2) as session:
            session.sweep(specs, datas)
        firsts = list({id(plan): plan for plan in shipped}.values())
        predicted = [plan.predicted_cycles for plan in firsts]
        assert len(firsts) == len(set(specs)) and len(set(predicted)) > 1
        assert predicted == sorted(predicted, reverse=True)

    def test_pool_runs_at_most_one_process_per_cpu(self, rng):
        """``workers`` beyond the CPUs cuts finer chunks, but the pool
        starts no more processes than the parent may use CPUs."""
        specs, datas = _mixed_batch(rng)
        cpus = default_workers()
        with EngineSession(workers=cpus + 2) as session:
            assert session.processes == cpus
            _assert_outcomes_equal(session.sweep(specs, datas),
                                   wse.run_many(specs, datas))
            assert len(session.pool._processes) == cpus
            assert 1 <= session.stats.workers <= cpus

    def test_workers_start_with_the_inherited_heap_frozen(self):
        """A forked worker's garbage collections skip what it inherited
        from the parent (walking it would copy the parent's heap)."""
        with EngineSession(workers=2) as session:
            assert session.pool.submit(gc.get_freeze_count).result() > 0

    @pytest.mark.parametrize("chunk_timeout, per_process",
                             [(None, 2), (30.0, 1)], ids=["none", "timeout"])
    def test_chunks_in_flight_per_process(
        self, rng, monkeypatch, chunk_timeout, per_process
    ):
        """Without a timeout one chunk waits behind each running one;
        with a timeout only chunks that can start are in flight, since a
        waiting chunk's deadline would run while it waits."""
        specs = [CollectiveSpec("reduce", Grid(1, p), 8)
                 for p in range(2, 14)]
        datas = [rng.normal(size=(spec.grid.size, 8)) for spec in specs]
        in_flight, ship = [], EngineSession._ship

        def recording_ship(session, batch, task):
            ship(session, batch, task)
            in_flight.append(len(batch.inflight) + 1)

        monkeypatch.setattr(EngineSession, "_ship", recording_ship)
        with EngineSession(workers=2, chunk_timeout=chunk_timeout) as session:
            _assert_outcomes_equal(session.sweep(specs, datas),
                                   wse.run_many(specs, datas))
        assert max(in_flight) == per_process * session.processes

    def test_released_chunks_queue_behind_the_simulating_ones(
        self, rng, monkeypatch
    ):
        """A spec's value-pass chunks ship after every spec's simulating
        chunk, so the short ones fill in at the end of the sweep."""
        # Eight specs of four points; four workers cut two chunks each.
        specs = [CollectiveSpec("reduce", Grid(1, p), 8)
                 for p in range(2, 10)] * 4
        datas = [rng.normal(size=(spec.grid.size, 8)) for spec in specs]
        shipped, ship = [], transport.ship

        def recording_ship(pool, chunk_plan, datas, fault=None, meta=None,
                           timed=None):
            shipped.append(timed is None)
            return ship(pool, chunk_plan, datas, fault, meta, timed)

        monkeypatch.setattr(transport, "ship", recording_ship)
        with EngineSession(workers=4) as session:
            _assert_outcomes_equal(session.sweep(specs, datas),
                                   wse.run_many(specs, datas))
        simulating = len(set(specs))
        assert shipped[:simulating] == [True] * simulating
        assert shipped[simulating:] == [False] * (len(shipped) - simulating)
        assert len(shipped) > simulating

    def test_no_segment_to_be_had_runs_the_batch_serially(
        self, rng, monkeypatch
    ):
        """A parent that cannot create a segment (a full ``/dev/shm``)
        runs the whole batch in-process, bit-identical to ``run_many``;
        the chunk already in flight when packing failed is reclaimed."""
        specs, datas = _mixed_batch(rng)
        baseline = wse.run_many(specs, datas)
        parent, pack = os.getpid(), shm.pack
        packed = []

        def pack_until_full(arrays):
            if os.getpid() == parent:         # workers still pack replies
                if packed:
                    raise OSError(errno.ENOSPC, "No space left on device")
                packed.append(arrays)
            return pack(arrays)

        monkeypatch.setattr(shm, "pack", pack_until_full)
        with EngineSession(workers=2) as session:
            _assert_outcomes_equal(session.sweep(specs, datas), baseline)
        assert session.stats.serial_points == len(specs)
        assert session.stats.parallel_points == 0


class TestSessionLifecycle:
    def test_double_close_is_a_noop(self):
        session = EngineSession(workers=2).attach()
        session.close()
        session.close()
        assert session.closed

    def test_sweep_after_close_raises_clearly(self, rng):
        session = EngineSession(workers=2).attach()
        session.close()
        spec = CollectiveSpec("reduce", Grid(1, 4), 8)
        with pytest.raises(RuntimeError, match="closed"):
            session.sweep([spec], [rng.normal(size=(4, 8))])
        with pytest.raises(RuntimeError, match="closed"):
            session.attach()

    def test_workers_1_session_is_serial_and_poolless(self, rng):
        specs, datas = _mixed_batch(rng, repeats=1)
        with EngineSession(workers=1) as session:
            _assert_outcomes_equal(
                session.sweep(specs, datas), wse.run_many(specs, datas)
            )
        assert session.pool is None
        assert session.stats.cold_starts == 0
        assert session.stats.serial_points == len(specs)

    def test_daemonic_process_falls_back_serial(self, rng):
        specs, datas = _mixed_batch(rng, repeats=1)
        expected = [o.measured_cycles for o in wse.run_many(specs, datas)]
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()

        def body(queue):
            with EngineSession(workers=4) as session:
                outs = session.sweep(specs, datas)
                queue.put((
                    [o.measured_cycles for o in outs],
                    session.stats.serial_points,
                    session.pool is None,
                ))

        proc = ctx.Process(target=body, args=(queue,), daemon=True)
        proc.start()
        cycles, serial_points, poolless = queue.get(timeout=60)
        proc.join(timeout=60)
        assert cycles == expected
        assert serial_points == len(specs)    # never went parallel
        assert poolless                        # and never built a pool

    def test_broken_pool_is_replaced_mid_sweep(self, rng):
        specs, datas = _mixed_batch(rng, repeats=1)
        baseline = wse.run_many(specs, datas)
        with EngineSession(workers=2, backoff_base=0.01) as session:
            _assert_outcomes_equal(session.sweep(specs, datas), baseline)
            # Kill the pool out from under the session.
            session.pool.submit(os._exit, 13)
            # The dying pool is replaced *within* the sweep — the session
            # supplies a hydrated substitute and the sweep still finishes
            # bit-identical, without falling back to serial.
            _assert_outcomes_equal(session.sweep(specs, datas), baseline)
            assert session.pool is not None
            assert session.stats.pool_replacements == 1
            assert session.stats.cold_starts == 1
            # The replacement is warm: the next sweep just reuses it.
            reuses = session.stats.pool_reuses
            _assert_outcomes_equal(session.sweep(specs, datas), baseline)
            assert session.stats.pool_reuses == reuses + 1


class TestDefaultSessionRouting:
    def test_use_session_routes_module_level_sweep(self, rng):
        specs, datas = _mixed_batch(rng, repeats=1)
        baseline = wse.run_many(specs, datas)
        with use_session(workers=2) as session:
            assert get_session() is session
            _assert_outcomes_equal(sweep(specs, datas), baseline)
            assert session.stats.points == len(specs)
        assert get_session() is None

    def test_explicit_workers_bypasses_default_session(self, rng):
        specs, datas = _mixed_batch(rng, repeats=1)
        with use_session(workers=2) as session:
            sweep(specs, datas, workers=1)
            assert session.stats.points == 0

    def test_closing_the_default_clears_it(self):
        session = EngineSession(workers=2)
        set_session(session)
        session.close()
        assert get_session() is None

    def test_use_session_rejects_session_plus_kwargs(self):
        session = EngineSession(workers=1)
        with pytest.raises(TypeError, match="not both"):
            with use_session(session, workers=2):
                pass
        session.close()

    def test_db_hydrates_plan_cache_on_attach(self, rng, tmp_path):
        spec = CollectiveSpec("reduce", Grid(1, 8), 16)
        db = TuneDB(tmp_path / "db.jsonl")
        db.record(spec)
        with EngineSession(workers=1, db=db):
            assert PLAN_CACHE.lookup(spec) is not None


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no /dev/shm to audit"
)
class TestShmLeakFreedom:
    def test_no_segments_leak_on_success(self, rng):
        specs, datas = _mixed_batch(rng)
        before = set(_shm_segments())
        with EngineSession(workers=2) as session:
            session.sweep(specs, datas)
        assert set(_shm_segments()) <= before

    def test_no_segments_leak_when_a_worker_raises(self, rng):
        spec = CollectiveSpec("reduce", Grid(1, 8), 16)
        good = [rng.normal(size=(8, 16)) for _ in range(6)]
        bad = list(good)
        bad[3] = rng.normal(size=(3, 3))      # wrong shape: worker raises
        before = set(_shm_segments())
        with EngineSession(workers=2) as session:
            with pytest.raises(ValueError):
                session.sweep([spec] * 6, bad)
            assert set(_shm_segments()) <= before
            # The session survives the failed sweep and stays correct.
            _assert_outcomes_equal(
                session.sweep([spec] * 6, good),
                wse.run_many([spec] * 6, good),
            )
        assert set(_shm_segments()) <= before

    def test_ephemeral_engine_cleans_up_too(self, rng):
        specs, datas = _mixed_batch(rng)
        before = set(_shm_segments())
        engine = EngineSession(workers=2)
        engine.sweep(specs, datas)
        assert engine.stats.shm_chunks > 0
        assert set(_shm_segments()) <= before


class TestShmModule:
    def test_pack_read_round_trip_is_bitwise(self, rng):
        arrays = [
            rng.normal(size=(8, 16)),
            rng.normal(size=12),
            np.arange(6, dtype=np.int64).reshape(2, 3),
        ]
        segment, refs = shm.pack(arrays)
        try:
            out = shm.read(segment, refs)
        finally:
            assert shm.unlink(segment.name)
        for original, copy in zip(arrays, out):
            assert original.dtype == copy.dtype
            assert np.array_equal(original, copy)

    def test_read_views_are_read_only(self, rng):
        array = rng.normal(size=(4, 4))
        segment, refs = shm.pack([array])
        try:
            views, mem = shm.read(segment, refs, copy=False)
            assert np.array_equal(views[0], array)
            with pytest.raises(ValueError):
                views[0][0, 0] = 1.0
            mem.close()
        finally:
            shm.unlink(segment.name)

    def test_unlink_is_idempotent(self, rng):
        segment, _ = shm.pack([rng.normal(size=4)])
        assert shm.unlink(segment.name)
        assert not shm.unlink(segment.name)
