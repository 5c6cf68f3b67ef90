"""Final buffers pinned bit for bit, and exact reductions on small integers.

``tests/golden_values.json`` holds a SHA-256 of the final buffers of
every collective zoo schedule (``test_sim_backends._zoo_cases``) under
each reduce op and each input value class (normal, NaN, ±inf, −0.0).
It was first written while three engines agreed on every entry: the
reference simulator when it still computed values, the vectorized
backend and the clock-free value pass.  The value pass, which fills
every simulation's buffers, must keep reproducing it through
``simulate(backend="vectorized")``, and on the vectorized backend, never
a fallback.

Inputs drawn from {-2, -1, 1, 2} keep every partial sum and product
exact in float64, so there ``execute`` must equal the NumPy reduction
exactly, whatever order the schedule combines in.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.collectives import build_schedule
from repro.core.api import execute, plan
from repro.core.registry import REDUCE_OPS, CollectiveSpec
from repro.fabric.ir import SendRecv
from repro.fabric.simulator import simulate
from test_sim_backends import _ZOO

GOLDEN = pathlib.Path(__file__).with_name("golden_values.json")

#: The input value classes each zoo case is pinned under.
_VALUE_CLASSES = {
    "normal": lambda rng, n: rng.standard_normal(n),
    "nan": lambda rng, n: np.full(n, np.nan),
    "inf": lambda rng, n: rng.choice([np.inf, -np.inf], n),
    "negzero": lambda rng, n: np.full(n, -0.0),
}

#: NumPy reduction of each registered reduce op.
_NUMPY_OPS = {"sum": np.sum, "max": np.max, "min": np.min, "prod": np.prod}


def golden_key(kind, grid, algorithm, b, op, label) -> str:
    return f"{kind}/{grid.rows}x{grid.cols}/{algorithm}/b{b}/{op}/{label}"


def golden_inputs(schedule, b, label):
    rng = np.random.default_rng(b)
    values = _VALUE_CLASSES[label]
    return {pe: values(rng, max(schedule.buffer_size, 1))
            for pe in sorted(schedule.programs)}


def buffers_sha(buffers) -> str:
    digest = hashlib.sha256()
    for pe in sorted(buffers):
        digest.update(int(pe).to_bytes(4, "little"))
        digest.update(np.ascontiguousarray(buffers[pe], "<f8").tobytes())
    return digest.hexdigest()


def zoo_schedule(kind, grid, algorithm, b):
    """The zoo case's schedule, or ``None`` when the spec is infeasible."""
    try:
        return build_schedule(kind, grid, algorithm, b)
    except ValueError:
        return None


def _simulated_sha(schedule, inputs, op):
    with np.errstate(invalid="ignore"):     # inf + -inf is NaN
        sim = simulate(schedule, inputs=inputs, backend="vectorized",
                       combine=REDUCE_OPS[op])
    assert sim.backend == "vectorized", schedule.name
    return buffers_sha(sim.buffers)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@_ZOO
def test_zoo_buffers_match_golden(golden, kind, grid, algorithm, b):
    schedule = zoo_schedule(kind, grid, algorithm, b)
    if schedule is None:
        pytest.skip("infeasible spec")
    for op in REDUCE_OPS:
        for label in _VALUE_CLASSES:
            key = golden_key(kind, grid, algorithm, b, op, label)
            got = _simulated_sha(schedule, golden_inputs(schedule, b, label), op)
            assert got == golden[key], key


@_ZOO
def test_zoo_schedules_have_no_overlapping_sendrecv(kind, grid, algorithm, b):
    schedule = zoo_schedule(kind, grid, algorithm, b)
    if schedule is None:
        pytest.skip("infeasible spec")
    for prog in schedule.programs.values():
        for op in prog.ops:
            if type(op) is SendRecv:
                assert (op.send_offset >= op.recv_offset + op.length
                        or op.recv_offset >= op.send_offset + op.length), op


def _expected(spec, data, op):
    """What NumPy says ``spec`` computes on ``data`` under ``op``."""
    grid, b = spec.grid, spec.b
    shape = (grid.rows, grid.cols, b) if grid.rows > 1 else (grid.cols, b)
    reduced = _NUMPY_OPS[op](data, axis=0)
    if spec.kind == "reduce":
        return reduced
    if spec.kind == "allreduce":
        return np.broadcast_to(reduced, shape)
    if spec.kind == "broadcast":
        return np.broadcast_to(data, shape)
    if spec.kind in ("gather", "scatter"):
        return data
    if spec.kind == "allgather":
        return np.broadcast_to(data, (grid.size, *data.shape))
    if spec.kind == "reduce_scatter":
        return reduced.reshape(grid.size, b // grid.size)
    raise ValueError(spec.kind)


@_ZOO
def test_zoo_execute_is_exact_on_small_integers(kind, grid, algorithm, b):
    for op in REDUCE_OPS:
        spec = CollectiveSpec(kind, grid, b, algorithm=algorithm, op=op)
        try:
            planned = plan(spec)
        except ValueError:
            pytest.skip("infeasible spec")
        rng = np.random.default_rng(b)
        shape = (b,) if kind == "broadcast" else (grid.size, b)
        data = rng.choice([-2.0, -1.0, 1.0, 2.0], size=shape)
        outcome = execute(planned, data, backend="vectorized")
        assert outcome.sim.backend == "vectorized"
        assert np.array_equal(outcome.result, _expected(spec, data, op)), op
