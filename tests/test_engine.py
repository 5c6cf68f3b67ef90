"""Tests for repro.engine: pool equivalence, store persistence, tuning.

The engine's contract is that it changes *where* points run, never
*what* they compute — serial and parallel sweeps must agree bit for bit.
The store's contract is durability: records survive process boundaries
and tolerate a corrupted file line by line.  The tuner's contract is
that a measured winner overrides the analytic planner only when actual
measurements exist.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import CollectiveSpec, Grid, wse
from repro.core import planner
from repro.fabric.simulator import resolve_backend
from repro.core.cache import PLAN_CACHE, PlanCache
from repro.engine import (
    EngineSession,
    TuneDB,
    Tuner,
    default_workers,
    spec_from_key,
    spec_to_key,
    sweep,
    tune,
    use_tuner,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

pytestmark = pytest.mark.usefixtures("shm_leak_guard", "close_sessions")


@pytest.fixture(autouse=True)
def fresh_cache():
    PLAN_CACHE.clear()
    yield
    PLAN_CACHE.clear()


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


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bit_identical_to_run_many(self, rng, workers):
        specs, datas = _mixed_batch(rng)
        baseline = wse.run_many(specs, datas)
        engine = EngineSession(workers=workers)
        outcomes = engine.sweep(specs, datas)
        assert len(outcomes) == len(baseline)
        for ours, ref in zip(outcomes, baseline):
            assert np.array_equal(ours.result, ref.result)  # bit-identical
            assert ours.measured_cycles == ref.measured_cycles
            assert ours.predicted_cycles == ref.predicted_cycles
            assert ours.algorithm == ref.algorithm

    def test_identical_specs_share_one_plan_per_process(self, rng):
        spec = CollectiveSpec("reduce", Grid(1, 8), 16)
        datas = [rng.normal(size=(8, 16)) for _ in range(5)]
        outs = sweep([spec] * 5, datas, workers=1)
        assert [o.measured_cycles for o in outs] == [outs[0].measured_cycles] * 5
        # Serial path goes through the process-wide cache: one miss.
        assert wse.cache_info()["misses"] == 1

    def test_parallel_sweeps_plan_in_the_parent(self, rng):
        spec = CollectiveSpec("reduce", Grid(1, 8), 16)
        datas = [rng.normal(size=(8, 16)) for _ in range(4)]
        engine = EngineSession(workers=2)
        engine.sweep([spec] * 4, datas)
        engine.sweep([spec] * 4, datas)
        # Distinct specs plan once for the whole engine lifetime —
        # in this process, not opaquely inside pool workers.
        assert wse.cache_info() == {"size": 1, "hits": 1, "misses": 1}

    def test_parallel_sweep_honors_installed_tuner(self, rng, tmp_path):
        spec = CollectiveSpec("reduce", Grid(1, 8), 16)
        analytic = planner.rank_spec(spec)
        loser = next(
            name for name in analytic.candidates
            if name != analytic.algorithm
        )
        db = TuneDB(tmp_path / "db.jsonl")
        db.record(spec, winner_algorithm=loser, measured={loser: 1},
                  backend=resolve_backend(None))
        datas = [rng.normal(size=(8, 16)) for _ in range(3)]
        with use_tuner(db):
            outs = EngineSession(workers=2).sweep([spec] * 3, datas)
        # Workers execute the parent's (tuned) plan — no divergence.
        assert all(o.algorithm == loser for o in outs)

    def test_length_mismatch_rejected(self, rng):
        engine = EngineSession(workers=2)
        with pytest.raises(ValueError, match="specs"):
            engine.sweep(
                [CollectiveSpec("reduce", Grid(1, 4), 8)],
                [rng.normal(size=(4, 8))] * 2,
            )

    def test_infeasible_spec_raises_like_run_many(self, rng):
        bad = CollectiveSpec("allreduce", Grid(1, 4), 10, algorithm="ring")
        good = CollectiveSpec("reduce", Grid(1, 4), 8)
        datas = [rng.normal(size=(4, 10)), rng.normal(size=(4, 8))]
        with pytest.raises(ValueError, match="ring"):
            EngineSession(workers=2).sweep([bad, good], datas)
        with pytest.raises(ValueError, match="ring"):
            EngineSession(workers=1).sweep([bad, good], datas)

    def test_stats_accumulate(self, rng):
        specs, datas = _mixed_batch(rng, repeats=1)
        engine = EngineSession(workers=2)
        engine.sweep(specs, datas)
        engine.sweep(specs, datas)
        stats = engine.stats
        assert stats.points == 2 * len(specs)
        assert stats.sweeps == 2
        assert stats.distinct_specs == 2 * 4
        assert stats.workers >= 1
        assert stats.wall_time > 0
        assert stats.points_per_second > 0
        assert stats.as_dict()["points"] == stats.points

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            EngineSession(workers=0)
        assert default_workers() >= 1

    def test_bench_worker_env_resolution(self, monkeypatch):
        from repro.bench.sweeps import _sweep_workers
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        assert _sweep_workers(None) == 1
        assert _sweep_workers(3) == 3
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "4")
        assert _sweep_workers(None) == 4
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "0")  # off switch
        assert _sweep_workers(None) == 1
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "auto")
        with pytest.raises(ValueError, match="REPRO_SWEEP_WORKERS"):
            _sweep_workers(None)


class TestTuneDB:
    def test_round_trip(self, tmp_path):
        db = TuneDB(tmp_path / "db.jsonl")
        spec = CollectiveSpec("reduce", Grid(1, 8), 16)
        db.record(spec, predicted_cycles=123.0, measured_cycles=130,
                  winner_algorithm="tree", measured={"tree": 130, "chain": 150})
        reloaded = TuneDB(db.path)
        assert len(reloaded) == 1
        record = reloaded.lookup(spec)
        assert record.predicted_cycles == 123.0
        assert record.measured_cycles == 130
        assert record.winner_algorithm == "tree"
        assert record.measured == {"tree": 130, "chain": 150}
        assert record.spec() == spec

    def test_spec_key_round_trip_preserves_params(self):
        from repro.model.params import CS2
        spec = CollectiveSpec("allreduce", Grid(4, 4), 32, op="max",
                              algorithm="chain", xy=True,
                              params=CS2.with_ramp_latency(5))
        assert spec_from_key(spec_to_key(spec)) == spec
        # JSON round-trip too (what actually hits the disk).
        assert spec_from_key(json.loads(json.dumps(spec_to_key(spec)))) == spec

    def test_last_record_wins_merge(self, tmp_path):
        db = TuneDB(tmp_path / "db.jsonl")
        spec = CollectiveSpec("reduce", Grid(1, 8), 16)
        db.record(spec, predicted_cycles=100.0)
        db.record(spec, measured_cycles=110, winner_algorithm="chain",
                  measured={"chain": 110})
        reloaded = TuneDB(db.path)
        record = reloaded.lookup(spec)
        assert record.predicted_cycles == 100.0  # merged, not overwritten
        assert record.winner_algorithm == "chain"

    def test_corruption_tolerance(self, tmp_path):
        db = TuneDB(tmp_path / "db.jsonl")
        spec_a = CollectiveSpec("reduce", Grid(1, 8), 16)
        spec_b = CollectiveSpec("broadcast", Grid(1, 4), 8)
        db.record(spec_a, winner_algorithm="tree", measured={"tree": 10})
        with open(db.path, "a") as fh:
            fh.write("{not json at all\n")
            fh.write('{"schema": 999, "key": {}}\n')          # bad schema
            fh.write('{"schema": 1, "key": {"kind": "nope"}}\n')  # bad spec
            fh.write("\n")                                     # blank line
        db.record(spec_b, winner_algorithm="flood", measured={"flood": 5})
        reloaded = TuneDB(db.path)
        assert len(reloaded) == 2
        assert reloaded.corrupt_lines == 3
        assert reloaded.winner(spec_a) == "tree"
        assert reloaded.winner(spec_b) == "flood"

    def test_missing_file_is_empty(self, tmp_path):
        db = TuneDB(tmp_path / "absent.jsonl")
        assert len(db) == 0
        assert db.lookup(CollectiveSpec("reduce", Grid(1, 4), 8)) is None

    def test_concurrent_appends_never_interleave(self, tmp_path):
        """Two processes x 500 appends: every record loads, none corrupt.

        Each record is padded past the stdio buffer size — the regime
        where a buffered text append flushes one line in several writes,
        which a concurrent appender can interleave.  The store appends
        each encoded record with a single ``os.write`` instead, so every
        line lands intact.
        """
        db_path = tmp_path / "db.jsonl"
        per_process, n_processes = 500, 2
        # ~9 KB of measured entries per record: longer than the default
        # 8 KiB buffer that would otherwise split the line mid-flush.
        padding = {f"algo_{i:04d}": 10**12 + i for i in range(450)}

        def appender(offset):
            db = TuneDB(db_path, autoload=False)
            for i in range(per_process):
                spec = CollectiveSpec("reduce", Grid(1, 8), offset + i)
                db.record(spec, measured_cycles=i, winner_algorithm="tree",
                          measured=dict(padding, tree=i))

        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=appender, args=(1 + 10_000 * rank,))
            for rank in range(n_processes)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        reloaded = TuneDB(db_path)
        assert reloaded.corrupt_lines == 0
        assert len(reloaded) == per_process * n_processes
        for rank in range(n_processes):
            spec = CollectiveSpec("reduce", Grid(1, 8), 1 + 10_000 * rank)
            record = reloaded.lookup(spec)
            assert record is not None and record.measured["tree"] == 0


class TestTunerOverridesPlanner:
    def test_measured_winner_overrides_analytic_pick(self, tmp_path):
        spec = CollectiveSpec("reduce", Grid(1, 8), 16)
        analytic = planner.rank_spec(spec)
        # Forge a DB that swears a *different* algorithm measured fastest.
        loser = next(
            name for name in analytic.candidates
            if name != analytic.algorithm
        )
        db = TuneDB(tmp_path / "db.jsonl")
        db.record(spec, winner_algorithm=loser, measured={loser: 1},
                  backend=resolve_backend(None))
        tuned = planner.rank_spec(spec, tuner=Tuner(db))
        assert tuned.algorithm == loser
        assert tuned.tuned is True
        assert tuned.candidates == analytic.candidates  # analytic ranking kept

    def test_no_measurements_means_no_override(self, tmp_path):
        spec = CollectiveSpec("reduce", Grid(1, 8), 16)
        analytic = planner.rank_spec(spec)
        loser = next(
            name for name in analytic.candidates
            if name != analytic.algorithm
        )
        db = TuneDB(tmp_path / "db.jsonl")
        db.record(spec, winner_algorithm=loser)  # claim without measurements
        tuned = planner.rank_spec(spec, tuner=Tuner(db))
        assert tuned.algorithm == analytic.algorithm
        assert tuned.tuned is False

    def test_winner_outside_candidates_is_ignored(self, tmp_path):
        spec = CollectiveSpec("reduce", Grid(1, 8), 16)
        db = TuneDB(tmp_path / "db.jsonl")
        db.record(spec, winner_algorithm="ring", measured={"ring": 1})
        tuned = planner.rank_spec(spec, tuner=Tuner(db))
        assert tuned.algorithm == planner.rank_spec(spec).algorithm

    def test_use_tuner_scopes_the_override_and_cache(self, tmp_path):
        spec = CollectiveSpec("reduce", Grid(1, 8), 16)
        analytic_plan = wse.plan(spec)
        loser = next(
            name for name in analytic_plan.choice.candidates
            if name != analytic_plan.algorithm
        )
        db = TuneDB(tmp_path / "db.jsonl")
        db.record(spec, winner_algorithm=loser, measured={loser: 1},
                  backend=resolve_backend(None))
        with use_tuner(db):
            tuned_plan = wse.plan(spec)
            assert tuned_plan.algorithm == loser
            assert tuned_plan.choice.tuned is True
        # Cache was invalidated on exit; planning is analytic again.
        assert wse.plan(spec).algorithm == analytic_plan.algorithm

    def test_tune_driver_measures_all_feasible_candidates(self, tmp_path):
        spec = CollectiveSpec("reduce", Grid(1, 4), 8)
        db = tune([spec], db=TuneDB(tmp_path / "db.jsonl"),
                  session=EngineSession(workers=1))
        record = db.lookup(spec)
        assert set(record.measured) == {
            "star", "chain", "tree", "two_phase", "autogen",
        }
        assert record.winner_algorithm == min(
            record.measured, key=lambda n: (record.measured[n], n)
        )
        assert db.winner(spec) == record.winner_algorithm
        # Forced duplicates normalize to one auto record.
        assert len(db) == 1


class TestTuneDriver:
    #: each has several feasible candidates, so each sweep goes parallel.
    SPECS = [
        CollectiveSpec("reduce", Grid(1, 4), 8),
        CollectiveSpec("allreduce", Grid(1, 4), 8),
        CollectiveSpec("reduce", Grid(1, 8), 16),
    ]

    def test_one_session_and_one_pool_per_tune_call(self, tmp_path,
                                                    monkeypatch):
        """``tune(workers=N)`` runs every spec on one session it creates
        and closes: one pool start-up, not one per spec."""
        closed = []
        close = EngineSession.close

        def recording_close(session):
            closed.append(session)
            close(session)

        monkeypatch.setattr(EngineSession, "close", recording_close)
        tune(self.SPECS, db=TuneDB(tmp_path / "db.jsonl"), workers=2)
        assert len(closed) == 1 and closed[0].closed
        stats = closed[0].stats
        assert stats.sweeps == len(self.SPECS)
        assert stats.cold_starts == 1
        assert stats.pool_reuses == len(self.SPECS) - 1

    def test_a_given_session_is_used_and_left_open(self, tmp_path):
        with EngineSession(workers=2) as session:
            tune(self.SPECS, db=TuneDB(tmp_path / "db.jsonl"),
                 session=session)
            assert not session.closed
            assert session.stats.sweeps == len(self.SPECS)
            assert session.stats.cold_starts == 1

    @pytest.mark.parametrize("spec", [
        SPECS[0], CollectiveSpec("broadcast", Grid(1, 6), 12),
    ], ids=lambda s: s.kind)
    def test_tuner_and_service_share_one_seeded_input(self, spec, tmp_path):
        """The tuner measures on exactly the array the service derives
        for a seeded sweep item: one definition, byte-identical."""
        from repro.core.api import seeded_input
        from repro.service import schemas

        assert schemas.seeded_input is seeded_input

        class Recording(EngineSession):
            def sweep(self, specs, datas):
                seen.extend(datas)
                return super().sweep(specs, datas)

        seen = []
        with Recording(workers=1) as session:
            tune([spec], db=TuneDB(tmp_path / "db.jsonl"), session=session,
                 seed=5)
        service_side = schemas.SweepItem(
            spec=schemas.SpecRequest.from_spec(spec), seed=5
        ).input_array()
        assert seen and all(
            data.tobytes() == service_side.tobytes()
            and data.shape == service_side.shape for data in seen
        )
        assert service_side.ndim == (1 if spec.kind == "broadcast" else 2)


class TestPersistenceAcrossProcesses:
    def test_warm_db_hydrates_a_fresh_process(self, tmp_path):
        db_path = tmp_path / "db.jsonl"
        spec = CollectiveSpec("reduce", Grid(1, 8), 16)
        # Write the DB in a *child* process, then hydrate here.
        script = textwrap.dedent("""
            from repro import CollectiveSpec, Grid
            from repro.engine import EngineSession, TuneDB, tune
            spec = CollectiveSpec("reduce", Grid(1, 8), 16)
            db = tune([spec], db=TuneDB({path!r}),
                      session=EngineSession(workers=1))
            assert db.winner(spec) is not None
        """).format(path=str(db_path))
        env = os.environ.copy()
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run([sys.executable, "-c", script], check=True, env=env)

        db = TuneDB(db_path)
        assert len(db) == 1
        cache = PlanCache()
        hydrated = db.hydrate_plan_cache(cache=cache)
        assert hydrated == 1
        # The warm cache reports hits before this process planned anything.
        assert cache.stats()["hits"] > 0
        # And a user-level plan of the recorded spec never hits a builder.
        plan = cache.get_or_plan(
            spec, lambda s: pytest.fail("should have been hydrated")
        )
        assert plan.spec == spec

    def test_hydrate_skips_stale_specs(self, tmp_path):
        db = TuneDB(tmp_path / "db.jsonl")
        db.record(CollectiveSpec("reduce", Grid(1, 8), 16))
        # Corrupt one record's key behind the store's back: a spec the
        # registry can't plan (unknown algorithm) must be skipped.
        stale = CollectiveSpec("reduce", Grid(1, 8), 16, algorithm="tree")
        record = db.record(stale)
        record.key["algorithm"] = "does-not-exist"
        db._append(record)
        reloaded = TuneDB(db.path)
        cache = PlanCache()
        assert reloaded.hydrate_plan_cache(cache=cache) == len(reloaded) - 1
