"""The clock-free value pass (:mod:`repro.fabric.values`), the one engine
that computes buffers.

Both simulator backends are timing-only and ``simulate`` fills their
buffers from this pass, so the pass is checked against oracles that do
not run it: the golden hashes, NumPy and provenance.  Buffers are
compared as SHA-256s of their bytes, so NaN payloads and the sign of
zero count:

* the collective zoo × the four reduce ops × the four input value
  classes against ``tests/golden_values.json``, with each simulator
  backend filling its buffers from the pass on a rotating op;
* reduction trees whose routers advance on control wavelets, by
  provenance (``tests/test_provenance.py``), and with the two backends'
  timing compared;
* the fig 11/12 operating points (1×64 PEs) against NumPy;
* what the pass rejects statically, and the deadlocking schedules it
  cannot finish;
* a finished pass leaves no reference cycle for the collector.

The hypothesis chain fuzz checks the pass by provenance in
``tests/test_provenance.py``.
"""

import json

import numpy as np
import pytest

from repro.autogen.tree import binomial_tree, chain_tree, star_tree, two_phase_tree
from repro.collectives import build_schedule, schedule_tree_reduce
from repro.core.api import _prepare_inputs, plan, seeded_input
from repro.core.registry import REDUCE_OPS, CollectiveSpec
from repro.fabric.geometry import Grid, Port, row_grid
from repro.fabric.ir import Recv, RouterRule, Schedule, Send, SendCtrl
from repro.fabric.simulator import SIM_BACKENDS, simulate
from repro.fabric.values import ValuesRefused, final_buffers
from repro.obs import spans
from repro.obs.metrics import METRICS
from test_golden_values import (
    _VALUE_CLASSES,
    GOLDEN,
    buffers_sha,
    golden_inputs,
    golden_key,
)
from test_provenance import _assert_provenance
from test_sim_backends import (
    _STATIC_ERRORS,
    _ZOO,
    _differential,
    _invalid,
    _random_inputs,
    _two_pe,
    _zoo_cases,
)

#: kinds whose schedules combine; the others move values unchanged.
_COMBINING = ("reduce", "allreduce", "reduce_scatter")
_ZOO_CASES = _zoo_cases()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@_ZOO
def test_zoo_values_match_golden(golden, kind, grid, algorithm, b):
    """Every op × value class straight from the pass; each backend's
    ``simulate`` takes every value class under one op per case, rotating
    over the ops along the zoo, so each backend × op × class meets the
    pinned hashes on twenty or more schedules."""
    try:
        schedule = build_schedule(kind, grid, algorithm, b)
    except ValueError:
        pytest.skip("infeasible spec")
    ops = list(REDUCE_OPS) if kind in _COMBINING else ["sum"]
    at = _ZOO_CASES.index((kind, grid, algorithm, b))
    simulated = {}
    for i, backend in enumerate(SIM_BACKENDS):
        simulated.setdefault(ops[(at + i) % len(ops)], []).append(backend)
    for op in ops:
        combine = REDUCE_OPS[op]
        for label in _VALUE_CLASSES:
            key = golden_key(kind, grid, algorithm, b, op, label)
            inputs = golden_inputs(schedule, b, label)
            with np.errstate(invalid="ignore"):     # inf + -inf is NaN
                assert buffers_sha(final_buffers(
                    schedule, inputs, combine)) == golden[key], key
                for backend in simulated.get(op, ()):
                    sim = simulate(schedule, inputs, combine=combine,
                                   backend=backend)
                    assert sim.backend == backend, key
                    assert buffers_sha(sim.buffers) == golden[key], key


@pytest.mark.parametrize(
    "builder", [star_tree, chain_tree, binomial_tree, two_phase_tree])
def test_control_wavelet_trees(builder):
    """Routers advanced by control wavelets rather than counts."""
    tree = builder(8)
    schedule = schedule_tree_reduce(row_grid(8), tree, list(range(8)), 5,
                                    use_control_wavelets=True)
    assert any(type(op) is SendCtrl for prog in schedule.programs.values()
               for op in prog.ops)
    _assert_provenance(CollectiveSpec("reduce", row_grid(8), 5), schedule)
    _differential(schedule, _random_inputs(schedule, 8))


@pytest.mark.parametrize("kind,algorithm,b", [
    ("reduce", "chain", 192), ("reduce", "tree", 192),
    ("reduce", "two_phase", 192), ("reduce", "auto", 192),
    ("allreduce", "chain", 192), ("allreduce", "auto", 192),
    ("allreduce", "ring", 192), ("reduce", "star", 32),
])
def test_fig_regime_1x64_is_not_refused(kind, algorithm, b):
    """The fig 11/12 operating points (1×64 PEs), where repeated sweep
    points save the most, get their values from the pass: it must not
    refuse them, and what it computes is the collective's reduction."""
    spec = CollectiveSpec(kind, Grid(1, 64), b, algorithm=algorithm)
    data = seeded_input(spec, 0)
    buffers = final_buffers(plan(spec).schedule, _prepare_inputs(spec, data))
    roots = [0] if kind == "reduce" else range(64)
    for pe in roots:
        np.testing.assert_allclose(buffers[pe][:b], data.sum(axis=0))


# ---------------------------------------------------------------------------
# Rejections
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("error", sorted(_STATIC_ERRORS))
def test_pass_raises_the_static_errors(error):
    schedule, kwargs = _invalid(error)
    exc, match = _STATIC_ERRORS[error]
    with pytest.raises(exc, match=match):
        final_buffers(schedule, _random_inputs(schedule, 0), **kwargs)


def _deadlocked():
    """A receiver waiting for wavelets no sender emits."""
    s = _two_pe(2)
    del s.programs[1]
    return s


def test_deadlocked_schedule_is_refused():
    with pytest.raises(ValuesRefused, match="unfinished"):
        final_buffers(_deadlocked(), {})


def test_telemetry_counts_points_and_refusals():
    schedule = build_schedule("reduce", Grid(1, 4), "chain", 4)
    before = METRICS.snapshot()
    previous = spans.set_enabled(True)
    try:
        with spans.collect() as got:
            final_buffers(schedule, _random_inputs(schedule, 0))
            with pytest.raises(ValuesRefused):
                final_buffers(_deadlocked(), {})
    finally:
        spans.set_enabled(previous)
    delta = METRICS.delta(before)
    assert delta.get("fabric.values.points") == 1
    assert delta.get("fabric.values.refused") == 1
    assert sum(e["name"] == "fabric.values" for e in got.events
               if e["ph"] == "X") == 2


@pytest.mark.parametrize("kind,grid,b,algorithm", [
    ("broadcast", Grid(16, 16), 4096, "auto"),
    ("reduce", Grid(16, 16), 1024, "tree"),
])
def test_pass_leaves_no_reference_cycles(kind, grid, b, algorithm):
    """With the cyclic collector off, a finished pass — alone or inside a
    vectorized simulation — leaves nothing for it to collect."""
    import gc

    spec = CollectiveSpec(kind, grid, b, algorithm=algorithm)
    schedule = plan(spec).schedule
    inputs = _prepare_inputs(spec, seeded_input(spec, 0))
    runs = (lambda: final_buffers(schedule, inputs),
            lambda: simulate(schedule, inputs, backend="vectorized"))
    for run in runs:
        run()                               # warm-up: memos, lowering
        gc.collect()
        gc.disable()
        try:
            run()
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_long_wire_row_resolves_without_recursion():
    """A push through a row of static routers lands at its end however
    long the row (a ring's wrap-around crosses every PE of a 1×512 row)."""
    n = 3000
    s = Schedule(grid=Grid(1, n), buffer_size=1, name="wire-row")
    s.program(n - 1).router[0] = [RouterRule(accept=Port.RAMP,
                                             forward=(Port.WEST,))]
    s.program(n - 1).ops.append(Send(color=0, length=1))
    for pe in range(1, n - 1):
        s.program(pe).router[0] = [RouterRule(accept=Port.EAST,
                                              forward=(Port.WEST,))]
    s.program(0).router[0] = [RouterRule(accept=Port.EAST,
                                         forward=(Port.RAMP,))]
    s.program(0).ops.append(Recv(color=0, length=1))
    buffers = final_buffers(s, {n - 1: np.array([5.0])})
    assert buffers[0][0] == 5.0
