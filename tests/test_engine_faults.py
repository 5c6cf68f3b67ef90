"""Fault-tolerance tests: every injected failure, same bits out.

The engine's robustness contract is provable because the faults are
deterministic (:mod:`repro.engine.faults`): a seeded plan kills workers
mid-chunk, delays chunks past their deadline, corrupts shm descriptors
and tears store appends — and under *every* one of them a sweep must
complete with outcomes bit-identical to the serial run, with the
recovery visible in :class:`~repro.engine.session.EngineStats`
(``retries``/``timeouts``/``requeued_chunks``/``pool_replacements``/
``quarantined``/``degraded``) and any torn store line detected by
``fsck`` and repaired by ``compact``.
"""

import os

import numpy as np
import pytest

from repro import CollectiveSpec, Grid, wse
from repro.core.cache import PLAN_CACHE
from repro.engine import (
    EngineSession,
    TuneDB,
    faults,
    last_stats,
    sweep,
    use_faults,
)
from repro.engine.faults import FaultPlan, FaultSpec

pytestmark = pytest.mark.usefixtures("shm_leak_guard", "close_sessions")


@pytest.fixture(autouse=True)
def fresh_cache():
    PLAN_CACHE.clear()
    yield
    PLAN_CACHE.clear()


@pytest.fixture(autouse=True)
def _isolated_faults(request):
    """Give every test a clean injector — except env-driven chaos tests.

    Without this, a ``REPRO_FAULTS`` plan from the environment (the CI
    chaos job) would fire inside tests that assert exact store contents
    or exact stats.  Tests marked ``envfaults`` opt back into the env
    plan — they are the chaos job's payload.
    """
    if request.node.get_closest_marker("envfaults"):
        yield
        return
    with faults.use_faults(None):
        yield


SPEC = CollectiveSpec("reduce", Grid(1, 8), 16)


def _batch(rng, n=12):
    return [SPEC] * n, [rng.normal(size=(8, 16)) for _ in range(n)]


def _assert_outcomes_equal(ours, reference):
    assert len(ours) == len(reference)
    for a, b in zip(ours, reference):
        assert np.array_equal(a.result, b.result)  # bit-identical
        assert a.measured_cycles == b.measured_cycles
        assert a.algorithm == b.algorithm


class TestFaultPlanParsing:
    def test_full_syntax_round_trip(self):
        plan = FaultPlan.parse("seed=42;kill@1;delay@3=0.5;torn%0.25x3;shm@2")
        assert plan.seed == 42
        assert plan.faults == (
            FaultSpec("kill", at=1),
            FaultSpec("delay", at=3, arg=0.5),
            FaultSpec("torn", prob=0.25, times=3),
            FaultSpec("shm", at=2),
        )

    def test_blank_and_empty_directives_are_skipped(self):
        assert FaultPlan.parse("").faults == ()
        assert FaultPlan.parse(" ; ;seed=7; ").seed == 7

    @pytest.mark.parametrize("bad", [
        "explode@1",          # unknown kind
        "kill",               # no placement
        "kill@1%0.5",         # both placements
        "delay%1.5",          # prob out of range
        "kill@1x0",           # zero times
        "seed=lots",          # non-integer seed
        "kill@@2",            # junk
    ])
    def test_bad_directives_raise(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="exactly one"):
            FaultSpec("kill")
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("explode", at=0)


class TestFaultInjector:
    def test_at_fires_exactly_once_at_its_occurrence(self):
        injector = faults.FaultInjector(FaultPlan.parse("kill@2"))
        draws = [injector.draw("chunk") for _ in range(6)]
        assert [d.kind if d else None for d in draws] == [
            None, None, "kill", None, None, None,
        ]
        assert injector.log == [("chunk", 2, FaultSpec("kill", at=2))]

    def test_sites_count_independently(self):
        injector = faults.FaultInjector(FaultPlan.parse("kill@0;torn@0"))
        assert injector.draw("append").kind == "torn"
        assert injector.draw("chunk").kind == "kill"

    def test_times_caps_probabilistic_firings(self):
        injector = faults.FaultInjector(FaultPlan.parse("kill%1.0x2"))
        fired = [injector.draw("chunk") for _ in range(5)]
        assert sum(1 for f in fired if f is not None) == 2
        assert fired[0] is not None and fired[1] is not None

    def test_seeded_probabilistic_placement_is_deterministic(self):
        plan = FaultPlan.parse("seed=9;torn%0.3x100")
        a = faults.FaultInjector(plan)
        b = faults.FaultInjector(plan)
        seq_a = [a.draw("append") is not None for _ in range(50)]
        seq_b = [b.draw("append") is not None for _ in range(50)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)

    def test_env_activation_and_reset(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "seed=5;kill@0")
        faults.reset()
        try:
            injector = faults.active()
            assert injector is not None and injector.plan.seed == 5
        finally:
            monkeypatch.delenv(faults.ENV_VAR)
            faults.reset()
        assert faults.active() is None


class TestChunkRetry:
    def test_shm_corruption_is_retried_and_bit_identical(self, rng):
        specs, datas = _batch(rng)
        baseline = wse.run_many(specs, datas)
        with use_faults("shm@0"):
            engine = EngineSession(workers=2, backoff_base=0.01)
            outs = engine.sweep(specs, datas)
        _assert_outcomes_equal(outs, baseline)
        assert engine.stats.retries >= 1
        assert engine.stats.quarantined == 0
        assert engine.stats.pool_replacements == 0

    def test_deterministic_worker_error_quarantines_then_raises(self, rng):
        """A chunk that fails the same way every time ends up quarantined,
        and the quarantine's serial re-execution surfaces the *original*
        error — exactly what run_many would raise — not a pool crash."""
        good = [rng.normal(size=(8, 16)) for _ in range(6)]
        bad = list(good)
        bad[3] = rng.normal(size=(3, 3))       # wrong shape: always raises
        engine = EngineSession(workers=2, backoff_base=0.01)
        with pytest.raises(ValueError):
            engine.sweep([SPEC] * 6, bad)
        assert engine.stats.retries == engine.stats.as_dict()["retries"] >= 1
        assert engine.stats.quarantined == 1
        # The engine survives: the same batch minus the poison pill runs.
        _assert_outcomes_equal(
            engine.sweep([SPEC] * 6, good), wse.run_many([SPEC] * 6, good)
        )

    def test_backoff_is_seeded_and_bounded(self):
        a = EngineSession(workers=2, retry_seed=7)
        b = EngineSession(workers=2, retry_seed=7)
        assert [a._retry_rng.random() for _ in range(4)] == \
               [b._retry_rng.random() for _ in range(4)]


class TestChunkTimeout:
    def test_delayed_chunk_times_out_retries_and_matches_serial(self, rng):
        specs, datas = _batch(rng)
        baseline = wse.run_many(specs, datas)
        with use_faults("delay@0=0.8"):
            engine = EngineSession(workers=2, chunk_timeout=0.2,
                                   backoff_base=0.01)
            outs = engine.sweep(specs, datas)
        _assert_outcomes_equal(outs, baseline)
        assert engine.stats.timeouts >= 1
        assert engine.stats.retries >= 1

    def test_timeout_with_no_retries_quarantines_serially(self, rng):
        # One chunk per worker: a deadline runs from submission, so a
        # chunk queued behind the delayed one could time out as well.
        specs, datas = _batch(rng, n=2)
        baseline = wse.run_many(specs, datas)
        with use_faults("delay@0=0.8"):
            engine = EngineSession(workers=2, chunk_timeout=0.2,
                                   max_retries=0, backoff_base=0.01)
            outs = engine.sweep(specs, datas)
        _assert_outcomes_equal(outs, baseline)
        assert engine.stats.timeouts == 1
        assert engine.stats.retries == 0
        assert engine.stats.quarantined == 1

    def test_timeout_knob_env_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHUNK_TIMEOUT", raising=False)
        assert EngineSession(workers=1).chunk_timeout is None
        monkeypatch.setenv("REPRO_CHUNK_TIMEOUT", "2.5")
        assert EngineSession(workers=1).chunk_timeout == 2.5
        monkeypatch.setenv("REPRO_CHUNK_TIMEOUT", "0")   # off switch
        assert EngineSession(workers=1).chunk_timeout is None
        monkeypatch.setenv("REPRO_CHUNK_TIMEOUT", "soon")
        with pytest.raises(ValueError, match="REPRO_CHUNK_TIMEOUT"):
            EngineSession(workers=1)
        monkeypatch.setenv("REPRO_MAX_RETRIES", "5")
        monkeypatch.delenv("REPRO_CHUNK_TIMEOUT", raising=False)
        assert EngineSession(workers=1).max_retries == 5


class TestPoolLossRecovery:
    def test_worker_kill_replaces_pool_and_matches_serial(self, rng):
        specs, datas = _batch(rng)
        baseline = wse.run_many(specs, datas)
        with use_faults("kill@1"):
            engine = EngineSession(workers=2, backoff_base=0.01)
            outs = engine.sweep(specs, datas)
        _assert_outcomes_equal(outs, baseline)
        assert engine.stats.pool_replacements == 1
        assert engine.stats.requeued_chunks >= 1
        assert engine.pool_deaths == 1
        assert not engine.degraded

    def test_session_supplies_hydrated_replacement_pool(self, rng):
        specs, datas = _batch(rng)
        baseline = wse.run_many(specs, datas)
        with EngineSession(workers=2, backoff_base=0.01) as session:
            _assert_outcomes_equal(session.sweep(specs, datas), baseline)
            with use_faults("kill@0"):
                _assert_outcomes_equal(session.sweep(specs, datas), baseline)
            assert session.stats.pool_replacements == 1
            # The replacement is attached and warm: reused, not rebuilt.
            assert session.pool is not None
            reuses = session.stats.pool_reuses
            _assert_outcomes_equal(session.sweep(specs, datas), baseline)
            assert session.stats.pool_reuses == reuses + 1
            assert session.stats.cold_starts == 1

    def test_exceeding_max_pool_deaths_degrades_to_serial(self, rng):
        specs, datas = _batch(rng)
        baseline = wse.run_many(specs, datas)
        with use_faults("kill@0"):
            engine = EngineSession(workers=2, max_pool_deaths=0,
                                   backoff_base=0.01)
            outs = engine.sweep(specs, datas)
        _assert_outcomes_equal(outs, baseline)
        assert engine.degraded
        assert engine.stats.degraded == 1
        assert engine.stats.pool_replacements == 0
        # Degraded is forever: later sweeps never go parallel again.
        before = engine.stats.serial_points
        _assert_outcomes_equal(engine.sweep(specs, datas), baseline)
        assert engine.stats.serial_points == before + len(specs)
        assert engine.pool is None


class TestTornAppend:
    def test_torn_append_is_detected_and_compacted_away(self, tmp_path):
        db = TuneDB(tmp_path / "db.jsonl")
        spec_b = CollectiveSpec("broadcast", Grid(1, 4), 8)
        db.record(SPEC, predicted_cycles=10.0)
        with use_faults("torn@0"):
            db.record(spec_b, predicted_cycles=20.0)
        report = db.fsck()
        assert not report.clean and report.torn_tail
        assert [(i.line_no, i.kind) for i in report.issues] == [(2, "torn-tail")]
        # Loading never trusts the uncommitted tail.
        reloaded = TuneDB(db.path)
        assert len(reloaded) == 1 and reloaded.torn_tail
        assert reloaded.corrupt_lines == 1
        # Compaction repairs in place, atomically; appends work after.
        repaired = db.compact()
        assert [i.kind for i in repaired.issues] == ["torn-tail"]
        assert db.fsck().clean and len(db) == 1
        db.record(spec_b, predicted_cycles=20.0)
        after = db.fsck()
        assert after.clean and after.valid_records == 2

    def test_compact_merges_duplicate_keys_to_one_line(self, tmp_path):
        db = TuneDB(tmp_path / "db.jsonl")
        db.record(SPEC, predicted_cycles=1.0)
        db.record(SPEC, measured_cycles=7, winner_algorithm="tree",
                  measured={"tree": 7})
        assert db.fsck().total_lines == 2
        db.compact()
        report = db.fsck()
        assert report.total_lines == 1 and report.distinct_keys == 1
        record = db.lookup(SPEC)
        assert record.predicted_cycles == 1.0      # merge kept both halves
        assert record.winner_algorithm == "tree"

    def test_fsck_classifies_mid_file_corruption(self, tmp_path):
        db = TuneDB(tmp_path / "db.jsonl")
        db.record(SPEC)
        with open(db.path, "a") as fh:
            fh.write("{not json\n")
            fh.write('{"schema": 999, "key": {}}\n')
            fh.write('{"schema": 1, "key": {"kind": "nope"}}\n')
        db.record(CollectiveSpec("broadcast", Grid(1, 4), 8))
        report = db.fsck()
        assert [i.kind for i in report.issues] == [
            "invalid-json", "bad-schema", "bad-record",
        ]
        assert [i.line_no for i in report.issues] == [2, 3, 4]
        assert report.valid_records == 2 and not report.torn_tail
        db.compact()
        assert db.fsck().clean and len(db) == 2

    def test_fsck_of_missing_file_is_clean(self, tmp_path):
        db = TuneDB(tmp_path / "absent.jsonl")
        report = db.fsck()
        assert report.clean and report.total_lines == 0
        assert db.compact().clean   # compacting nothing is a no-op


class TestTruncatedTailRecovery:
    def test_every_truncation_of_the_final_record(self, tmp_path):
        """Property-style: chop the file at every byte offset inside the
        final record; fsck must report exactly that one torn line and
        compaction must round-trip the surviving records."""
        source = TuneDB(tmp_path / "source.jsonl")
        specs = [
            CollectiveSpec("reduce", Grid(1, 8), 16),
            CollectiveSpec("broadcast", Grid(1, 4), 8),
            CollectiveSpec("allreduce", Grid(1, 4), 8),
        ]
        for i, spec in enumerate(specs):
            source.record(spec, predicted_cycles=float(i), measured_cycles=i,
                          winner_algorithm="tree", measured={"tree": i})
        data = source.path.read_bytes()
        last_start = data.rfind(b"\n", 0, len(data) - 1) + 1
        assert 0 < last_start < len(data) - 1
        path = tmp_path / "truncated.jsonl"
        for cut in range(last_start + 1, len(data)):
            path.write_bytes(data[:cut])
            db = TuneDB(path)
            report = db.fsck()
            assert report.torn_tail, f"cut={cut}"
            assert [(i.line_no, i.kind) for i in report.issues] == \
                [(3, "torn-tail")], f"cut={cut}"
            assert report.valid_records == 2, f"cut={cut}"
            db.compact()
            assert db.fsck().clean, f"cut={cut}"
            survivors = TuneDB(path)
            assert survivors.corrupt_lines == 0, f"cut={cut}"
            assert len(survivors) == 2, f"cut={cut}"
            for i, spec in enumerate(specs[:2]):
                record = survivors.lookup(spec)
                assert record is not None, f"cut={cut}"
                assert record.predicted_cycles == float(i)
                assert record.measured == {"tree": i}

    def test_truncation_at_the_newline_boundary_is_clean(self, tmp_path):
        source = TuneDB(tmp_path / "source.jsonl")
        source.record(SPEC)
        source.record(CollectiveSpec("broadcast", Grid(1, 4), 8))
        data = source.path.read_bytes()
        last_start = data.rfind(b"\n", 0, len(data) - 1) + 1
        path = tmp_path / "truncated.jsonl"
        path.write_bytes(data[:last_start])   # lost the append entirely
        db = TuneDB(path)
        assert db.fsck().clean and len(db) == 1


class TestAcceptance:
    """The issue's acceptance scenario: kill + timeout + torn append on
    one engine, outcomes bit-identical, recovery visible in the stats."""

    def test_kill_timeout_and_torn_append_on_one_engine(self, rng, tmp_path):
        specs, datas = _batch(rng)
        baseline = wse.run_many(specs, datas)
        engine = EngineSession(workers=2, chunk_timeout=0.2,
                               backoff_base=0.01)
        db = TuneDB(tmp_path / "db.jsonl")
        # Sweep 1 consumes chunk occurrences 0-5, sweep 2 consumes 6-11:
        # the delay lands mid-sweep-1, the kill lands mid-sweep-2, and
        # the first TuneDB append tears.
        with use_faults("delay@0=0.8;kill@8;torn@0"):
            _assert_outcomes_equal(engine.sweep(specs, datas), baseline)
            _assert_outcomes_equal(engine.sweep(specs, datas), baseline)
            db.record(SPEC, predicted_cycles=42.0)
        stats = engine.stats
        assert stats.retries >= 1                 # the timed-out chunk retried
        assert stats.timeouts >= 1
        assert stats.pool_replacements >= 1       # the killed pool was replaced
        assert stats.requeued_chunks >= 1
        assert stats.quarantined == 0
        assert not engine.degraded
        report = db.fsck()
        assert report.torn_tail
        assert [i.kind for i in report.issues] == ["torn-tail"]
        db.compact()
        assert db.fsck().clean

    def test_combined_faults_in_a_single_sweep(self, rng):
        """All three chunk-fault kinds in one sweep: whatever interleaving
        the scheduler picks, the outcomes must equal serial."""
        specs, datas = _batch(rng)
        baseline = wse.run_many(specs, datas)
        with use_faults("delay@0=0.6;shm@2;kill@4"):
            engine = EngineSession(workers=2, chunk_timeout=0.2,
                                   backoff_base=0.01)
            outs = engine.sweep(specs, datas)
        _assert_outcomes_equal(outs, baseline)
        assert engine.stats.retries + engine.stats.requeued_chunks >= 1


class TestRunnerSurfacesCounters:
    def test_last_stats_exposes_failure_counters(self, rng):
        specs, datas = _batch(rng)
        with use_faults("kill@1"):
            outs = sweep(specs, datas, workers=2)
        _assert_outcomes_equal(outs, wse.run_many(specs, datas))
        snapshot = last_stats()
        assert snapshot is not None
        as_dict = snapshot.as_dict()
        for key in ("retries", "timeouts", "requeued_chunks",
                    "pool_replacements", "quarantined", "degraded"):
            assert key in as_dict
        assert snapshot.pool_replacements == 1
        # The snapshot is frozen: a later sweep does not mutate it.
        sweep(specs, datas, workers=1)
        assert snapshot.pool_replacements == 1
        assert last_stats().pool_replacements == 0


@pytest.mark.envfaults
@pytest.mark.skipif(
    not os.environ.get(faults.ENV_VAR),
    reason=f"{faults.ENV_VAR} not set (chaos job only)",
)
class TestEnvDrivenChaos:
    """The CI chaos job's payload: whatever plan ``REPRO_FAULTS`` names
    (worker-kill, timeout, torn-append, torn-descriptor seeds), sweeps stay
    bit-identical to serial and the store repairs to a clean file."""

    def test_sweep_and_store_survive_the_env_plan(self, rng, tmp_path):
        injector = faults.active()
        assert injector is not None
        specs, datas = _batch(rng)
        baseline = wse.run_many(specs, datas)   # draws no fault sites
        engine = EngineSession(workers=2, backoff_base=0.01)
        _assert_outcomes_equal(engine.sweep(specs, datas), baseline)
        db = TuneDB(tmp_path / "db.jsonl")
        db.record(SPEC, predicted_cycles=1.0)
        db.record(CollectiveSpec("broadcast", Grid(1, 4), 8))
        if not db.fsck().clean:
            db.compact()
        assert db.fsck().clean
        assert injector.log, "the env fault plan never fired"
