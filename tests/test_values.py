"""The clock-free value pass (:mod:`repro.fabric.values`) against both
simulator backends.

The pass may only stand in for a simulation because its buffers are
bit-identical to what either backend computes.  Buffers are compared as
``.view(np.int64)`` so NaN payloads and the sign of zero count:

* the collective zoo × the four reduce ops × the four input value
  classes of the timing law;
* reduction trees whose routers advance on control wavelets;
* the hypothesis chain fuzz, on every draw that simulates without
  error (the draws that deadlock must be refused as ``no_progress``);
* a hand-built ``SendRecv`` whose send and receive ranges overlap is
  refused as ``sendrecv_overlap`` (``tests/test_execute_batch.py``
  checks that ``run_many`` then simulates it).
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.autogen.tree import binomial_tree, chain_tree, star_tree, two_phase_tree
from repro.collectives import build_schedule, schedule_tree_reduce
from repro.core.api import _prepare_inputs, plan, seeded_input
from repro.core.registry import REDUCE_OPS, CollectiveSpec
from repro.fabric.geometry import Grid, Port, row_grid
from repro.fabric.ir import RouterRule, Schedule, SendCtrl, SendRecv
from repro.fabric.simulator import FabricSimulator
from repro.fabric.values import REFUSALS, ValuesRefused, final_buffers
from repro.fabric.vectorized import VectorizedSimulator
from repro.obs import spans
from repro.obs.metrics import METRICS
from test_sim_backends import (
    _VALUE_CLASSES,
    _ZOO,
    _chain_case,
    _chain_schedule,
    _outcome,
    _random_inputs,
    _zoo_cases,
)

#: kinds whose schedules combine; the others move values unchanged.
_COMBINING = ("reduce", "allreduce", "reduce_scatter")
_ZOO_CASES = _zoo_cases()


def _bits(buffers):
    return {pe: np.asarray(buf).view(np.int64).tolist()
            for pe, buf in buffers.items()}


def _assert_values_match(schedule, inputs, label,
                         factories=(FabricSimulator, VectorizedSimulator),
                         **kwargs):
    """The pass equals every backend in ``factories``, or they all fail
    and the pass refuses."""
    combine = kwargs.get("combine")
    with np.errstate(invalid="ignore"):     # inf + -inf is NaN
        outcomes = [_outcome(factory, schedule, inputs, **kwargs)
                    for factory in factories]
        if outcomes[0][0] != "ok":
            with pytest.raises(ValuesRefused) as refused:
                final_buffers(schedule, inputs, combine)
            assert refused.value.reason == "no_progress", label
            return
        got = _bits(final_buffers(schedule, inputs, combine))
    for factory, (status, result) in zip(factories, outcomes):
        assert status == "ok", f"{label}: {factory.__name__}"
        assert got == _bits(result.buffers), f"{label}: {factory.__name__}"


@_ZOO
def test_zoo_values_bit_identical(kind, grid, algorithm, b):
    """Every op × value class against the reference; the vectorized
    backend (~20x the cost on these small grids) takes every value class
    under one op per case, rotating over the ops along the zoo, so each
    op × class pair still meets it on twenty or more schedules."""
    try:
        schedule = build_schedule(kind, grid, algorithm, b)
    except ValueError:
        pytest.skip("infeasible spec")
    ops = list(REDUCE_OPS) if kind in _COMBINING else ["sum"]
    vectorized_op = ops[_ZOO_CASES.index((kind, grid, algorithm, b)) % len(ops)]
    for op in ops:
        factories = (FabricSimulator,)
        if op == vectorized_op:
            factories += (VectorizedSimulator,)
        for label, values in _VALUE_CLASSES.items():
            rng = np.random.default_rng(b)
            inputs = {pe: values(rng, max(schedule.buffer_size, 1))
                      for pe in schedule.programs}
            _assert_values_match(schedule, inputs, f"{op}/{label}",
                                 factories, combine=REDUCE_OPS[op])


@pytest.mark.parametrize(
    "builder", [star_tree, chain_tree, binomial_tree, two_phase_tree])
def test_control_wavelet_trees(builder):
    """Routers advanced by control wavelets rather than counts."""
    tree = builder(8)
    schedule = schedule_tree_reduce(row_grid(8), tree, list(range(8)), 5,
                                    use_control_wavelets=True)
    assert any(type(op) is SendCtrl for prog in schedule.programs.values()
               for op in prog.ops)
    _assert_values_match(schedule, _random_inputs(schedule, 8), "ctrl")


@settings(max_examples=40, deadline=None)
@given(_chain_case())
def test_fuzz_chain_values(case):
    schedule, kwargs, seed = _chain_schedule(case)
    _assert_values_match(schedule, _random_inputs(schedule, seed),
                         "fuzz-chain", **kwargs)


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
# Refusals
# ---------------------------------------------------------------------------


def _overlapping_exchange(b):
    """Two PEs swap vectors with SendRecvs that send and receive the same
    range: what each sends depends on how far its receive has got."""
    s = Schedule(grid=Grid(1, 2), buffer_size=b, name="overlapping-sendrecv")
    for pe, out in ((0, Port.EAST), (1, Port.WEST)):
        prog = s.program(pe)
        prog.router[pe] = [RouterRule(accept=Port.RAMP, forward=(out,))]
        prog.router[1 - pe] = [RouterRule(accept=out, forward=(Port.RAMP,))]
        prog.ops.append(SendRecv(send_color=pe, recv_color=1 - pe, length=b,
                                 combine=True))
    s.validate()
    return s


def test_overlapping_sendrecv_is_refused():
    schedule = _overlapping_exchange(4)
    with pytest.raises(ValuesRefused) as refused:
        final_buffers(schedule, _random_inputs(schedule, 0))
    assert refused.value.reason == "sendrecv_overlap"
    assert refused.value.reason in REFUSALS


def test_unmapped_combine_is_refused():
    schedule = build_schedule("reduce", Grid(1, 4), "tree", 4)
    with pytest.raises(ValuesRefused) as refused:
        final_buffers(schedule, _random_inputs(schedule, 0),
                      combine=lambda a, b: a - b)
    assert refused.value.reason == "unsupported_combine"


def test_telemetry_counts_points_and_refusals():
    schedule = build_schedule("reduce", Grid(1, 4), "chain", 4)
    before = METRICS.snapshot()
    previous = spans.set_enabled(True)
    try:
        with spans.collect() as got:
            final_buffers(schedule, _random_inputs(schedule, 0))
            with pytest.raises(ValuesRefused):
                final_buffers(_overlapping_exchange(2), {})
    finally:
        spans.set_enabled(previous)
    delta = METRICS.delta(before)
    assert delta.get("fabric.values.points") == 1
    assert delta.get("fabric.values.refused{reason=sendrecv_overlap}") == 1
    assert sum(e["name"] == "fabric.values" for e in got.events
               if e["ph"] == "X") == 2
