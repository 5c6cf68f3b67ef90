"""Differential tests: vectorized backend vs the reference timing oracle.

Both backends are timing-only engines, and ``simulate`` fills either's
buffers from the one clock-free value pass.  The vectorized array
stepper (:mod:`repro.fabric.vectorized`) is only allowed to exist
because its timing is bit-identical to the reference simulator's, or
because it hands the run to the reference for one of
``simulator.FALLBACKS``.  These tests enforce that contract three ways,
every comparison through ``simulate`` with the backend tag asserted:

* a sweep over every collective kind × registered algorithm × 1D/2D
  grids, comparing full :class:`~repro.fabric.simulator.SimResult`s;
* hand-built pathological programs checking *error* parity (deadlocks
  must raise the same ``DeadlockError`` message, bad routes the same
  exception type);
* a hypothesis fuzz over random small ``PEProgram`` grids (random
  sizes, lengths, fifo capacities, ramp latencies, timer mixes).

The zoo and the chain fuzz run twice: as shipped, and with
``REPRO_SIM_STRIDE=0`` so the stepped phases meet the oracle on cycles
a stride window would otherwise skip.

Simulated timing does not depend on input values, which is what lets
the tuner time a spec on any input: neither timing engine accepts
inputs or a combine, nor holds a float64 array.

Plus the stepper's cycle accounting (every simulated cycle is stepped,
strided or jumped over), and the backend-selector plumbing itself:
``REPRO_SIM_BACKEND``, explicit ``backend=``, unknown-name rejection,
each fallback reason, and the static errors ``simulate`` raises on
either backend before a timing engine is built.
"""

import inspect
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass

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
    FALLBACKS,
    SIM_BACKENDS,
    DeadlockError,
    FabricSimulator,
    SimulationError,
    resolve_backend,
    set_fallback_hook,
    simulate,
)
from repro.fabric.vectorized import VectorizedSimulator, stride_enabled
from repro.model.params import MachineParams
from repro.obs import METRICS, use_telemetry


# ---------------------------------------------------------------------------
# Differential machinery
# ---------------------------------------------------------------------------


def _outcome(backend, schedule, inputs, **kwargs):
    """Run ``simulate`` on one backend to a comparable outcome: result or
    error.  The run must *not* fall back — every schedule our collective
    builders emit stays on the fast path; silent fallback would quietly
    void the perf win."""
    copies = {pe: np.asarray(buf).copy() for pe, buf in inputs.items()}
    try:
        result = simulate(schedule, inputs=copies, backend=backend, **kwargs)
        assert result.backend == backend, schedule.name
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
    """Assert reference and vectorized agree on ``schedule`` outright."""
    ref = _outcome("reference", schedule, inputs, **kwargs)
    vec = _outcome("vectorized", schedule, inputs, **kwargs)
    _assert_same(ref, vec, schedule.name)


@contextmanager
def _stride_off():
    """Run the block with the vectorized backend's stride path disabled."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_SIM_STRIDE", "0")
        assert not stride_enabled()
        yield


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
        return build_schedule(kind, grid, algorithm, b)
    except ValueError:
        pytest.skip("infeasible spec")


_ZOO = pytest.mark.parametrize(
    "kind,grid,algorithm,b",
    _zoo_cases(),
    ids=lambda v: str(v).replace(" ", ""),
)


@_ZOO
def test_zoo_bit_identical(kind, grid, algorithm, b):
    schedule = _zoo_schedule(kind, grid, algorithm, b)
    _differential(schedule, _random_inputs(schedule, b))


@_ZOO
def test_zoo_bit_identical_stride_off(kind, grid, algorithm, b):
    # Stride windows skip most cycles of the larger zoo grids; with
    # striding off the stepped phases meet the oracle on every cycle.
    schedule = _zoo_schedule(kind, grid, algorithm, b)
    with _stride_off():
        _differential(schedule, _random_inputs(schedule, b))


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
    _differential(schedule, _random_inputs(schedule, b))


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
    ref = _outcome("reference", s, {})
    vec = _outcome("vectorized", s, {})
    assert ref[0] == vec[0] == "deadlock"
    assert ref[1] == vec[1]


def test_missing_rule_parity():
    s = _two_pe(1)
    # Wavelet arrives at PE 0 on a color with no active rule.
    s.programs[0].router.clear()
    s.programs[0].ops.clear()
    ref = _outcome("reference", s, {1: np.ones(1)})
    vec = _outcome("vectorized", s, {1: np.ones(1)})
    _assert_same(ref, vec, "missing-rule")
    assert ref[0] == "simerror"


def test_off_grid_staging_parity():
    g = Grid(1, 1)
    s = Schedule(grid=g, buffer_size=1, name="off-grid")
    p0 = s.program(0)
    p0.router[0] = [RouterRule(accept=Port.RAMP, forward=(Port.WEST,), count=1)]
    p0.ops.append(Send(color=0, length=1))
    ref = _outcome("reference", s, {0: np.ones(1)})
    vec = _outcome("vectorized", s, {0: np.ones(1)})
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
def test_fuzz_chain_parity_stride_off(case):
    schedule, kwargs, seed = _chain_schedule(case)
    with _stride_off():
        _differential(schedule, _random_inputs(schedule, seed), **kwargs)


# ---------------------------------------------------------------------------
# Cycle accounting: every simulated cycle is stepped, strided or jumped
# ---------------------------------------------------------------------------


def _cycle_split(schedule, **kwargs):
    """``(cycles, {stepped, strided, jumped})`` of one telemetered run."""
    before = METRICS.snapshot()
    with use_telemetry() as collected:
        result = VectorizedSimulator(schedule, **kwargs).run()
    delta = METRICS.delta(before)
    split = {kind: delta.get(f"sim.cycles.{kind}", 0)
             for kind in ("stepped", "strided", "jumped")}
    samples = [e["args"] for e in collected.events
               if e.get("name") == "sim.cycles"]
    assert samples == [split]
    return result.cycles, split


def test_cycle_split_counts_idle_jumps():
    s = _two_pe(4)
    s.programs[1].ops.insert(0, Delay(cycles=40))
    cycles, split = _cycle_split(s)
    assert split["jumped"] > 0  # the Delay is fast-forwarded, not stepped
    assert split["stepped"] + split["strided"] + split["jumped"] == cycles


def test_cycle_split_on_the_1d_chain():
    s = build_schedule("reduce", Grid(1, 64), "chain", 192)
    cycles, split = _cycle_split(s)
    assert split["stepped"] + split["strided"] + split["jumped"] == cycles


def test_cycle_split_is_not_published_when_off():
    s = _two_pe(4)
    s.programs[1].ops.insert(0, Delay(cycles=40))
    before = METRICS.snapshot()
    VectorizedSimulator(s).run()
    delta = METRICS.delta(before)
    assert all(value == 0 for key, value in delta.items()
               if key.startswith("sim.cycles"))


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


@contextmanager
def _fallbacks():
    """The reasons of the fallbacks inside the block, in order."""
    reasons = []
    previous = set_fallback_hook(lambda schedule, reason: reasons.append(reason))
    try:
        yield reasons
    finally:
        set_fallback_hook(previous)


def test_tracer_attached_falls_back_to_reference():
    # A tracer needs the reference simulator's per-cycle event hooks, so
    # a tracer-attached run must refuse the vectorized backend and tag
    # its result as served by the oracle.
    from repro.fabric.trace import Tracer

    s = build_schedule("reduce", Grid(1, 4), "tree", 4)
    inputs = _random_inputs(s, 3)
    tracer = Tracer()
    with _fallbacks() as reasons:
        result = simulate(
            s, inputs={k: v.copy() for k, v in inputs.items()},
            backend="vectorized", tracer=tracer,
        )
    assert result.backend == "reference"
    assert reasons == ["tracer"]
    assert tracer.events  # the fallback run actually traced


@pytest.mark.parametrize("reason", FALLBACKS)
def test_each_fallback_reason_lands_on_the_reference(reason):
    s = _two_pe(4)
    if reason == "tracer":
        from repro.fabric.trace import Tracer

        kwargs = {"tracer": Tracer()}
    else:
        kwargs = {"params": MachineParams(ramp_latency=0)}
    inputs = _random_inputs(s, 0)
    with _fallbacks() as reasons:
        got = simulate(s, inputs=inputs, backend="vectorized", **kwargs)
    assert reasons == [reason]
    assert got.backend == "reference"
    _assert_same(_outcome("reference", s, inputs, **kwargs), ("ok", got),
                 reason)


@dataclass(frozen=True)
class _UnknownOp:
    """An op type the array lowering does not know."""


def _invalid(error):
    """A run ``simulate`` rejects statically, as ``(schedule, kwargs)``."""
    s = _two_pe(4)
    kwargs = {}
    if error == "op_type":
        s.programs[0].ops.append(_UnknownOp())
    elif error == "combine":
        kwargs["combine"] = lambda a, b: a - b
    elif error == "sendrecv_overlap":
        from test_fabric_simulator import duplex

        s = duplex(4, 0)
    elif error == "op_past_buffer":
        s.programs[1].ops[0] = Send(color=0, length=4, offset=1)
    return s, kwargs


#: each static error ``simulate`` raises, and its exception.
_STATIC_ERRORS = {
    "op_type": (TypeError, "unknown op"),
    "combine": (ValueError, "binary numpy ufunc"),
    "sendrecv_overlap": (ValueError, "ranges overlap"),
    "op_past_buffer": (ValueError, "past its 4-wavelet buffer"),
}


@pytest.mark.parametrize("backend", SIM_BACKENDS)
@pytest.mark.parametrize("error", sorted(_STATIC_ERRORS))
def test_static_errors_raise_before_a_timing_engine(error, backend,
                                                    monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("a timing engine was built")

    monkeypatch.setattr(FabricSimulator, "__init__", built)
    monkeypatch.setattr(VectorizedSimulator, "__init__", built)
    s, kwargs = _invalid(error)
    exc, match = _STATIC_ERRORS[error]
    with pytest.raises(exc, match=match):
        simulate(s, inputs=_random_inputs(s, 0), backend=backend, **kwargs)


@dataclass
class _SendSubclass(Send):
    """A subclass of a known op: lowered, stepped and valued as a Send."""


def test_op_subclass_runs_like_its_base():
    s = _two_pe(3)
    s.programs[1].ops[0] = _SendSubclass(color=0, length=3)
    _differential(s, _random_inputs(s, 0))


def _float64_arrays(root):
    """Every float64 array reachable from ``root`` through containers
    and the attributes of this package's objects."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if obj.dtype == np.float64:
                found.append(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset, deque)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("repro."):
            slots = getattr(type(obj), "__slots__", ())
            stack.extend(getattr(obj, name) for name in slots
                         if hasattr(obj, name))
            stack.extend(getattr(obj, "__dict__", {}).values())
    return found


@pytest.mark.parametrize("engine", [FabricSimulator, VectorizedSimulator],
                         ids=lambda engine: engine.__name__)
def test_timing_engines_never_see_values(engine):
    """Timing is independent of input values by construction: neither
    timing engine accepts inputs or a combine, and neither holds a
    float64 array, before or after its run."""
    assert not {"inputs", "combine"} & set(inspect.signature(engine).parameters)
    sim = engine(build_schedule("reduce", Grid(4, 4), "tree", 64))
    assert _float64_arrays(sim) == []
    sim.run()
    assert _float64_arrays(sim) == []
