"""Provenance: the value pass puts every contribution where the
collective's definition says, each exactly once.

The clock-free value pass (:func:`repro.fabric.values.final_buffers`)
runs on inputs coded so that every partial result is an exact float64
integer and its contributors can be read back out of it:

* for the kinds that only move data, PE ``k``'s slot ``j`` holds a
  unique positive integer, so an output slot names its one source;
* for the combining kinds, under ``sum``, two codings.  PE ``k`` holds
  ``8**k`` in every slot, so base-8 digit ``k`` of an output slot counts
  the contributions from PE ``k``.  Then input slot ``j`` holds
  ``32**j`` on every PE, so base-32 digit ``j`` counts the contributions
  from input slot ``j``.  Every PE once and only slot ``j`` together
  say that output slot ``j`` combines exactly ``{(k, j) : every k}``.

Digits stay below their radix while no contribution lands more than
seven (PE coding) or 31 (slot coding) times, and the zoo has at most 16
PEs, so every sum stays below ``2**53`` and every count decodes.  The
same check runs over the hypothesis chain fuzz, whose head PE must end
up holding the tail's vector and every other PE its own.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings

from repro.collectives import build_schedule
from repro.core.api import _extract_result, _prepare_inputs
from repro.core.registry import CollectiveSpec
from repro.fabric.values import ValuesRefused, final_buffers
from test_golden_values import _expected
from test_sim_backends import _ZOO, _chain_case, _chain_schedule

#: kinds whose schedules combine; the others move values unchanged.
_COMBINING = ("reduce", "allreduce", "reduce_scatter")

#: radix of the PE coding and of the slot coding.
_PE_RADIX, _SLOT_RADIX = 8, 32


def _ids(shape) -> np.ndarray:
    """A unique positive integer per element."""
    return np.arange(1, int(np.prod(shape)) + 1, dtype=np.float64).reshape(shape)


def _counts(values: np.ndarray, radix: int, digits: int) -> np.ndarray:
    """Base-``radix`` digits of exact integer ``values``: one count
    vector of length ``digits`` per element."""
    assert np.array_equal(values, np.round(values)), "not an exact integer"
    assert (values >= 0).all() and (values < 2.0 ** 53).all()
    rest = values.astype(np.int64)
    out = np.empty(values.shape + (digits,), dtype=np.int64)
    for d in range(digits):
        rest, out[..., d] = np.divmod(rest, radix)
    assert not rest.any(), "contributions beyond the last digit"
    return out


def _passed(spec, schedule, data) -> np.ndarray:
    """The collective's output, taken from the value pass's buffers."""
    buffers = final_buffers(schedule, _prepare_inputs(spec, data))
    return _extract_result(spec, SimpleNamespace(buffers=buffers))


def _assert_provenance(spec, schedule):
    p, b = spec.grid.size, spec.b
    if spec.kind not in _COMBINING:
        shape = (b,) if spec.kind == "broadcast" else (p, b)
        data = _ids(shape)
        got = _passed(spec, schedule, data)
        assert np.array_equal(got, _expected(spec, data, "sum"))
        return
    codings = (
        (_PE_RADIX, p, np.broadcast_to(
            float(_PE_RADIX) ** np.arange(p)[:, None], (p, b))),
        (_SLOT_RADIX, b, np.broadcast_to(
            float(_SLOT_RADIX) ** np.arange(b), (p, b))),
    )
    for radix, digits, data in codings:
        got = _passed(spec, schedule, np.array(data))
        want = _expected(spec, np.array(data), "sum")
        assert np.array_equal(_counts(got, radix, digits),
                              _counts(want, radix, digits)), radix


@_ZOO
def test_zoo_provenance(kind, grid, algorithm, b):
    try:
        schedule = build_schedule(kind, grid, algorithm, b)
    except ValueError:
        pytest.skip("infeasible spec")
    spec = CollectiveSpec(kind, grid, b, algorithm=algorithm)
    _assert_provenance(spec, schedule)


def test_codings_catch_a_moved_contribution():
    """A contribution counted twice, or taken from the wrong slot, reads
    differently from the definition's count vector."""
    right = np.array([1 + 8 + 64.0])        # PEs 0, 1, 2 once each
    twice = np.array([1 + 8 + 8.0])         # PE 1 twice, PE 2 never
    assert not np.array_equal(_counts(twice, 8, 3), _counts(right, 8, 3))
    slot0 = np.array([3 * 1.0])             # three PEs, slot 0
    slot1 = np.array([2 * 1.0 + 32])        # one of them from slot 1
    assert not np.array_equal(_counts(slot1, 32, 2), _counts(slot0, 32, 2))


@settings(max_examples=40, deadline=None)
@given(_chain_case())
def test_fuzz_chain_provenance(case):
    schedule, _, _ = _chain_schedule(case)
    n, b = schedule.grid.size, schedule.buffer_size
    ids = _ids((n, b))
    inputs = {pe: ids[pe].copy() for pe in schedule.programs}
    if not schedule.programs[0].ops:        # the head's sink was dropped
        with pytest.raises(ValuesRefused):
            final_buffers(schedule, inputs)
        return
    buffers = final_buffers(schedule, inputs)
    want = {pe: ids[pe] for pe in schedule.programs}
    want[0] = ids[n - 1]
    assert sorted(buffers) == sorted(want)
    for pe, vec in want.items():
        assert np.array_equal(buffers[pe], vec), pe
