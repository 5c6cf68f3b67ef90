"""Differential tests: vectorized backend vs the reference oracle.

The vectorized array-phase backend (:mod:`repro.fabric.vectorized`) is
only allowed to exist because it is bit-identical to the reference
simulator or refuses the schedule (``UnsupportedSchedule`` → automatic
fallback).  These tests enforce that contract three ways:

* a sweep over every collective kind × registered algorithm × 1D/2D
  grids, comparing full :class:`~repro.fabric.simulator.SimResult`s;
* hand-built pathological programs checking *error* parity (deadlocks
  must raise the same ``DeadlockError`` message, bad routes the same
  exception type);
* a hypothesis fuzz over random small ``PEProgram`` grids (random
  sizes, lengths, fifo capacities, ramp latencies, timer mixes).

The zoo and the fuzz also check a law each backend must keep on its
own: simulated timing does not depend on input values.  Normal, NaN,
±inf and −0.0 inputs must give the same ``SimResult`` in every field
but ``buffers`` — what lets the tuner time a spec on any input.

Plus the backend-selector plumbing itself: ``REPRO_SIM_BACKEND``,
explicit ``backend=``, unknown-name rejection and fallback tagging.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import COLLECTIVE_KINDS, build_schedule
from repro.core.registry import REDUCE_OPS, entries_for
from repro.fabric.geometry import Grid, Port
from repro.fabric.ir import (
    Delay,
    Recv,
    RouterRule,
    SampleClock,
    Schedule,
    Send,
)
from repro.fabric.simulator import (
    SIM_BACKENDS,
    DeadlockError,
    FabricSimulator,
    SimulationError,
    resolve_backend,
    simulate,
)
from repro.fabric.vectorized import UnsupportedSchedule, VectorizedSimulator
from repro.model.params import MachineParams


# ---------------------------------------------------------------------------
# Differential machinery
# ---------------------------------------------------------------------------


def _outcome(factory, schedule, inputs, **kwargs):
    """Run one backend to a comparable outcome: result or error."""
    copies = {pe: np.asarray(buf).copy() for pe, buf in inputs.items()}
    try:
        result = factory(schedule, inputs=copies, **kwargs).run()
    except DeadlockError as err:
        return ("deadlock", str(err))
    except SimulationError as err:
        # The reference raises from a dict-ordered scan, so when several
        # PEs go bad on the same cycle the *site* named in the message is
        # iteration-order dependent; only the type is semantic.
        return ("simerror", type(err).__name__)
    return ("ok", result)


def _assert_same(ref, vec, label=""):
    assert ref[0] == vec[0], (
        f"{label}: reference {ref[0]} vs vectorized {vec[0]} ({ref[1]!r} / {vec[1]!r})"
    )
    if ref[0] != "ok":
        assert ref[1] == vec[1], f"{label}: {ref[1]!r} vs {vec[1]!r}"
        return
    a, b = ref[1], vec[1]
    assert a.cycles == b.cycles, label
    assert a.energy == b.energy, label
    assert np.array_equal(a.received, b.received), label
    assert np.array_equal(a.sent, b.sent), label
    assert np.array_equal(a.link_loads, b.link_loads), label
    assert np.array_equal(a.completion, b.completion), label
    assert a.clock_samples == b.clock_samples, label
    assert sorted(a.buffers) == sorted(b.buffers), label
    for pe in a.buffers:
        assert np.array_equal(a.buffers[pe], b.buffers[pe]), (
            f"{label}: buffers[{pe}] diverge"
        )


def _differential(schedule, inputs, **kwargs):
    """Assert reference and vectorized agree on ``schedule`` outright.

    The vectorized backend must *support* the schedule — every schedule
    our collective builders emit stays on the fast path; silent fallback
    would quietly void the perf win.
    """
    ref = _outcome(FabricSimulator, schedule, inputs, **kwargs)
    vec = _outcome(VectorizedSimulator, schedule, inputs, **kwargs)
    _assert_same(ref, vec, schedule.name)


def _random_inputs(schedule, seed):
    rng = np.random.default_rng(seed)
    return {
        pe: rng.standard_normal(max(schedule.buffer_size, 1))
        for pe in schedule.programs
    }


# ---------------------------------------------------------------------------
# The collective zoo: every kind x algorithm x grid shape
# ---------------------------------------------------------------------------


def _zoo_cases():
    cases = []
    for kind in COLLECTIVE_KINDS:
        for grid in (Grid(1, 8), Grid(1, 5), Grid(4, 4), Grid(3, 5)):
            dims = 1 if grid.rows == 1 else 2
            try:
                entries = entries_for(kind, dims)
            except KeyError:
                continue
            for algorithm in sorted(entries):
                for b in (1, 7):
                    cases.append((kind, grid, algorithm, b))
    return cases


def _zoo_schedule(kind, grid, algorithm, b):
    try:
        schedule = build_schedule(kind, grid, algorithm, b)
    except ValueError:
        pytest.skip("infeasible spec")
    combine = REDUCE_OPS["sum"] if kind in ("reduce", "allreduce") else None
    return schedule, {"combine": combine}


#: Input value classes the timing law quantifies over.
_VALUE_CLASSES = {
    "normal": lambda rng, n: rng.standard_normal(n),
    "nan": lambda rng, n: np.full(n, np.nan),
    "inf": lambda rng, n: rng.choice([np.inf, -np.inf], n),
    "negzero": lambda rng, n: np.full(n, -0.0),
}


def _timing(outcome):
    """An outcome with the values it computed left out."""
    status, result = outcome
    if status != "ok":
        return outcome
    return {
        name: value.tolist() if isinstance(value, np.ndarray) else value
        for name, value in vars(result).items() if name != "buffers"
    }


def _assert_timing_ignores_values(schedule, seed, **kwargs):
    for factory in (FabricSimulator, VectorizedSimulator):
        timings = {}
        for label, values in _VALUE_CLASSES.items():
            rng = np.random.default_rng(seed)
            inputs = {pe: values(rng, max(schedule.buffer_size, 1))
                      for pe in schedule.programs}
            with np.errstate(invalid="ignore"):     # inf + -inf is NaN
                timings[label] = _timing(
                    _outcome(factory, schedule, inputs, **kwargs)
                )
        for label, timing in timings.items():
            assert timing == timings["normal"], (
                f"{factory.__name__} {schedule.name}: {label} inputs "
                "changed the timing"
            )


_ZOO = pytest.mark.parametrize(
    "kind,grid,algorithm,b",
    _zoo_cases(),
    ids=lambda v: str(v).replace(" ", ""),
)


@_ZOO
def test_zoo_bit_identical(kind, grid, algorithm, b):
    schedule, kwargs = _zoo_schedule(kind, grid, algorithm, b)
    _differential(schedule, _random_inputs(schedule, b), **kwargs)


@_ZOO
def test_zoo_timing_ignores_values(kind, grid, algorithm, b):
    schedule, kwargs = _zoo_schedule(kind, grid, algorithm, b)
    _assert_timing_ignores_values(schedule, b, **kwargs)


@pytest.mark.parametrize(
    "kind,grid,algorithm,b",
    [
        # fig 8/11/12 operating points: long 1D rows, growing b
        ("allreduce", Grid(1, 32), "chain", 64),
        ("allreduce", Grid(1, 32), "two_phase", 64),
        ("reduce", Grid(1, 64), "tree", 32),
        ("broadcast", Grid(1, 64), "snake", 32),
        # fig 10/13 operating points: 2D grids
        ("reduce", Grid(8, 8), "two_phase", 64),
        ("allreduce", Grid(8, 8), "autogen", 32),
        ("reduce_scatter", Grid(1, 16), "ring", 64),
        ("allgather", Grid(1, 16), "ring", 64),
    ],
    ids=lambda v: str(v).replace(" ", ""),
)
def test_fig_grids_bit_identical(kind, grid, algorithm, b):
    schedule = build_schedule(kind, grid, algorithm, b)
    combine = REDUCE_OPS["sum"] if kind in ("reduce", "allreduce") else None
    _differential(schedule, _random_inputs(schedule, b), combine=combine)


def test_max_min_prod_combines_bit_identical():
    for op in ("max", "min", "prod"):
        schedule = build_schedule("reduce", Grid(1, 8), "tree", 16)
        _differential(
            schedule, _random_inputs(schedule, 3), combine=REDUCE_OPS[op]
        )


# ---------------------------------------------------------------------------
# Error parity on pathological programs
# ---------------------------------------------------------------------------


def _two_pe(b):
    g = Grid(1, 2)
    s = Schedule(grid=g, buffer_size=b, name="pathological")
    p1 = s.program(1)
    p1.router[0] = [RouterRule(accept=Port.RAMP, forward=(Port.WEST,), count=b)]
    p1.ops.append(Send(color=0, length=b))
    p0 = s.program(0)
    p0.router[0] = [RouterRule(accept=Port.EAST, forward=(Port.RAMP,), count=b)]
    p0.ops.append(Recv(color=0, length=b, combine=False))
    return s


def test_deadlock_parity_exact_message():
    s = _two_pe(2)
    # Receiver waits for wavelets that the (removed) sender never emits.
    del s.programs[1]
    ref = _outcome(FabricSimulator, s, {})
    vec = _outcome(VectorizedSimulator, s, {})
    assert ref[0] == vec[0] == "deadlock"
    assert ref[1] == vec[1]


def test_missing_rule_parity():
    s = _two_pe(1)
    # Wavelet arrives at PE 0 on a color with no active rule.
    s.programs[0].router.clear()
    s.programs[0].ops.clear()
    ref = _outcome(FabricSimulator, s, {1: np.ones(1)})
    vec = _outcome(VectorizedSimulator, s, {1: np.ones(1)})
    _assert_same(ref, vec, "missing-rule")
    assert ref[0] == "simerror"


def test_off_grid_staging_parity():
    g = Grid(1, 1)
    s = Schedule(grid=g, buffer_size=1, name="off-grid")
    p0 = s.program(0)
    p0.router[0] = [RouterRule(accept=Port.RAMP, forward=(Port.WEST,), count=1)]
    p0.ops.append(Send(color=0, length=1))
    ref = _outcome(FabricSimulator, s, {0: np.ones(1)})
    vec = _outcome(VectorizedSimulator, s, {0: np.ones(1)})
    _assert_same(ref, vec, "off-grid")
    assert ref[0] == "simerror"


def test_tiny_fifo_parity():
    for cap in (1, 2, 3):
        s = _two_pe(6)
        _differential(s, _random_inputs(s, cap), fifo_capacity=cap)


# ---------------------------------------------------------------------------
# Hypothesis fuzz: random small chains with random knobs
# ---------------------------------------------------------------------------


@st.composite
def _chain_case(draw):
    """A random west-flowing chain over 2-5 PEs with random knobs.

    Optionally drops the terminal RAMP rule (→ deadlock in both
    backends) or an intermediate forward rule (→ SimulationError), so
    the fuzz also exercises the error paths.
    """
    n = draw(st.integers(min_value=2, max_value=5))
    b = draw(st.integers(min_value=1, max_value=6))
    cap = draw(st.integers(min_value=1, max_value=5))
    t_r = draw(st.integers(min_value=1, max_value=3))
    pre_delay = draw(st.integers(min_value=0, max_value=4))
    post_delay = draw(st.integers(min_value=0, max_value=4))
    sample = draw(st.booleans())
    break_mode = draw(st.sampled_from(["none", "none", "none", "sink"]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return n, b, cap, t_r, pre_delay, post_delay, sample, break_mode, seed


def _chain_schedule(case):
    """The chain ``case`` draws, with its simulator kwargs and seed."""
    n, b, cap, t_r, pre_delay, post_delay, sample, break_mode, seed = case
    g = Grid(1, n)
    s = Schedule(grid=g, buffer_size=b, name="fuzz-chain")
    tail = s.program(n - 1)
    tail.router[0] = [RouterRule(accept=Port.RAMP, forward=(Port.WEST,), count=b)]
    if pre_delay:
        tail.ops.append(Delay(cycles=pre_delay))
    tail.ops.append(Send(color=0, length=b))
    if sample:
        tail.ops.append(SampleClock(tag="sent"))
    for pe in range(1, n - 1):
        s.program(pe).router[0] = [
            RouterRule(accept=Port.EAST, forward=(Port.WEST,), count=b)
        ]
    head = s.program(0)
    if break_mode != "sink":
        head.router[0] = [
            RouterRule(accept=Port.EAST, forward=(Port.RAMP,), count=b)
        ]
        head.ops.append(Recv(color=0, length=b, combine=False))
        if post_delay:
            head.ops.append(Delay(cycles=post_delay))
    kwargs = {"params": MachineParams(ramp_latency=t_r), "fifo_capacity": cap}
    return s, kwargs, seed


@settings(max_examples=40, deadline=None)
@given(_chain_case())
def test_fuzz_chain_parity(case):
    schedule, kwargs, seed = _chain_schedule(case)
    _differential(schedule, _random_inputs(schedule, seed), **kwargs)


@settings(max_examples=40, deadline=None)
@given(_chain_case())
def test_fuzz_chain_timing_ignores_values(case):
    schedule, kwargs, seed = _chain_schedule(case)
    _assert_timing_ignores_values(schedule, seed, **kwargs)


# ---------------------------------------------------------------------------
# Backend selector plumbing
# ---------------------------------------------------------------------------


def test_resolve_backend_default_env_and_errors(monkeypatch):
    monkeypatch.delenv("REPRO_SIM_BACKEND", raising=False)
    assert resolve_backend(None) == "vectorized"
    monkeypatch.setenv("REPRO_SIM_BACKEND", "reference")
    assert resolve_backend(None) == "reference"
    assert resolve_backend("vectorized") == "vectorized"
    with pytest.raises(ValueError, match="unknown simulator backend"):
        resolve_backend("fast")
    assert set(SIM_BACKENDS) == {"vectorized", "reference"}


def test_simulate_tags_backend(monkeypatch):
    s = _two_pe(3)
    inputs = _random_inputs(s, 0)
    vec = simulate(s, inputs={k: v.copy() for k, v in inputs.items()},
                   backend="vectorized")
    ref = simulate(s, inputs={k: v.copy() for k, v in inputs.items()},
                   backend="reference")
    assert vec.backend == "vectorized"
    assert ref.backend == "reference"
    assert vec.cycles == ref.cycles
    monkeypatch.setenv("REPRO_SIM_BACKEND", "reference")
    env = simulate(s, inputs={k: v.copy() for k, v in inputs.items()})
    assert env.backend == "reference"


def test_unsupported_schedule_falls_back():
    # A combine callable the vectorized core has no ufunc mapping for
    # must be refused by the backend and silently served by the oracle.
    s = build_schedule("reduce", Grid(1, 4), "tree", 4)
    inputs = _random_inputs(s, 1)
    odd = lambda a, b: a - b  # noqa: E731
    with pytest.raises(UnsupportedSchedule):
        VectorizedSimulator(
            s, inputs={k: v.copy() for k, v in inputs.items()}, combine=odd
        )
    result = simulate(
        s, inputs={k: v.copy() for k, v in inputs.items()},
        backend="vectorized", combine=odd,
    )
    assert result.backend == "reference"


def test_tracer_attached_falls_back_to_reference():
    # A tracer needs the reference simulator's per-cycle event hooks, so
    # a tracer-attached run must refuse the vectorized backend and tag
    # its result as served by the oracle.
    from repro.fabric.trace import Tracer

    s = build_schedule("reduce", Grid(1, 4), "tree", 4)
    inputs = _random_inputs(s, 3)
    tracer = Tracer()
    with pytest.raises(UnsupportedSchedule, match="tracer"):
        VectorizedSimulator(
            s, inputs={k: v.copy() for k, v in inputs.items()}, tracer=tracer
        )
    result = simulate(
        s, inputs={k: v.copy() for k, v in inputs.items()},
        backend="vectorized", tracer=tracer,
    )
    assert result.backend == "reference"
    assert tracer.events  # the fallback run actually traced
