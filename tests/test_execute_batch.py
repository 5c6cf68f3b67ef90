"""Simulate once per plan: every batch path equals per-point ``execute``.

``run_many``, the engine's serial path, its workers and its quarantine
all execute through :func:`repro.core.api.execute_batch`, which
simulates the first point of each plan and gives the plan's later
points that run's timing plus buffers from the value pass.  On a batch
with repeated specs every path must return exactly what per-point
``execute`` returns — every outcome field, bit for bit — with no array
shared between outcomes, and the in-process paths must simulate once
per distinct plan.  Backends are pinned so the suite means the same
under ``REPRO_SIM_BACKEND=reference``.
"""

import numpy as np
import pytest

import repro.core.api as api
from repro.core.api import Plan, execute, plan, run_many
from repro.core.cache import PLAN_CACHE
from repro.core.registry import CollectiveSpec
from repro.engine import EngineSession, faults
from repro.fabric.geometry import Grid
from test_fabric_simulator import duplex

pytestmark = pytest.mark.usefixtures("shm_leak_guard", "close_sessions")

_A = CollectiveSpec("reduce", Grid(1, 8), 16, algorithm="chain")
_B = CollectiveSpec("allreduce", Grid(1, 8), 16, algorithm="ring", op="max")
_C = CollectiveSpec("broadcast", Grid(2, 2), 8)
#: Ten points, three plans; at two workers the engine cuts two-point
#: chunks, so a chunk of ``_A`` holds a repeat.
_SPECS = [_A, _B, _A, _C, _A, _B, _C, _A, _B, _A]


@pytest.fixture(autouse=True)
def _clean(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_BACKEND", "vectorized")
    PLAN_CACHE.clear()
    with faults.use_faults(None):
        yield
    PLAN_CACHE.clear()


@pytest.fixture()
def simulations(monkeypatch):
    """Counts the simulations the core API runs in this process."""
    calls = []
    real = api.simulate

    def counting(*args, **kwargs):
        calls.append(args[0].name)
        return real(*args, **kwargs)

    monkeypatch.setattr(api, "simulate", counting)
    return calls


def _datas(seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=_C.b) if spec.kind == "broadcast"
            else rng.normal(size=(spec.grid.size, spec.b)) for spec in _SPECS]


def _per_point(specs, datas, backend="vectorized"):
    return [execute(plan(spec), data, backend=backend)
            for spec, data in zip(specs, datas)]


def _arrays(outcome):
    sim = outcome.sim
    return [outcome.result, sim.received, sim.sent, sim.link_loads,
            sim.completion, *sim.buffers.values()]


def _assert_same(ours, expected):
    assert len(ours) == len(expected)
    for i, (a, b) in enumerate(zip(ours, expected)):
        assert a.result.view(np.int64).tolist() == \
            b.result.view(np.int64).tolist(), i
        assert a.measured_cycles == b.measured_cycles, i
        assert a.algorithm == b.algorithm, i
        sa, sb = a.sim, b.sim
        assert (sa.cycles, sa.energy, sa.backend) == \
            (sb.cycles, sb.energy, sb.backend), i
        for field in ("received", "sent", "link_loads", "completion"):
            assert np.array_equal(getattr(sa, field), getattr(sb, field)), \
                (i, field)
        assert sa.clock_samples == sb.clock_samples, i
        assert sorted(sa.buffers) == sorted(sb.buffers), i
        for pe in sa.buffers:
            assert sa.buffers[pe].view(np.int64).tolist() == \
                sb.buffers[pe].view(np.int64).tolist(), (i, pe)
    for i, a in enumerate(ours):
        for b in ours[i + 1:]:
            assert not any(np.may_share_memory(x, y)
                           for x in _arrays(a) for y in _arrays(b)), i


def test_run_many_simulates_once_per_plan(simulations):
    datas = _datas()
    outs = run_many(_SPECS, datas, backend="vectorized")
    assert len(simulations) == 3
    _assert_same(outs, _per_point(_SPECS, datas))


def test_serial_session_simulates_once_per_plan(simulations):
    datas = _datas(1)
    outs = EngineSession(workers=1).sweep(_SPECS, datas)
    assert len(simulations) == 3
    _assert_same(outs, _per_point(_SPECS, datas))


def test_parallel_session_matches_per_point():
    datas = _datas(2)
    session = EngineSession(workers=2)
    outs = session.sweep(_SPECS, datas)
    assert session.stats.parallel_points == len(_SPECS)
    _assert_same(outs, _per_point(_SPECS, datas))


def test_quarantined_chunk_simulates_once(simulations):
    datas = _datas(3)
    with faults.use_faults("shm@0"):    # the first chunk cannot attach
        session = EngineSession(workers=2, max_retries=0)
        outs = session.sweep(_SPECS, datas)
    assert session.stats.quarantined == 1
    assert len(simulations) == 1        # two points of _A, in the parent
    _assert_same(outs, _per_point(_SPECS, datas))


def test_reference_backend_simulates_every_point(simulations):
    datas = _datas(4)
    outs = run_many(_SPECS, datas, backend="reference")
    assert len(simulations) == len(_SPECS)
    assert {out.sim.backend for out in outs} == {"reference"}
    _assert_same(outs, _per_point(_SPECS, datas, backend="reference"))


def test_wrong_shape_on_a_later_point_raises_as_execute_does():
    good = np.zeros((8, 16))
    bad = np.zeros((8, 15))
    with pytest.raises(ValueError) as alone:
        execute(plan(_A), bad, backend="vectorized")
    with pytest.raises(ValueError) as batched:
        run_many([_A, _A], [good, bad], backend="vectorized")
    assert str(batched.value) == str(alone.value)


def test_run_many_raises_on_the_overlapping_plan():
    """A plan whose SendRecv sends and receives one range has no defined
    values: ``run_many`` raises as ``execute`` does."""
    spec = CollectiveSpec("allreduce", Grid(1, 2), 4, algorithm="ring")
    PLAN_CACHE.store(spec, Plan(spec=spec, schedule=duplex(4, 0),
                                algorithm="ring", grid=spec.grid, b=spec.b,
                                predicted_cycles=0.0))
    datas = [np.random.default_rng(seed).normal(size=(2, 4))
             for seed in (1, 2, 1)]
    with pytest.raises(ValueError, match="ranges overlap") as batched:
        run_many([spec] * 3, datas, backend="vectorized")
    with pytest.raises(ValueError) as alone:
        execute(plan(spec), datas[0], backend="vectorized")
    assert str(batched.value) == str(alone.value)
