"""Regenerate ``tests/golden_values.json``: SHA-256s of final buffers.

One entry per collective zoo schedule × reduce op × input value class
(see ``tests/test_golden_values.py``).  While it writes, it asserts that
the reference simulator, ``simulate(backend="vectorized")`` and the
clock-free value pass produce bit-identical buffers, so the file only
ever pins values all three agree on.  Run from the repository root:

    PYTHONPATH=src python tests/make_golden_values.py
"""

from __future__ import annotations

import json

import numpy as np

from repro.core.registry import REDUCE_OPS
from repro.fabric.simulator import simulate
from repro.fabric.values import final_buffers
from test_golden_values import (
    GOLDEN,
    buffers_sha,
    golden_inputs,
    golden_key,
    zoo_schedule,
)
from test_sim_backends import _VALUE_CLASSES, _zoo_cases


def _copies(inputs):
    return {pe: vec.copy() for pe, vec in inputs.items()}


def main() -> None:
    golden = {}
    for kind, grid, algorithm, b in _zoo_cases():
        schedule = zoo_schedule(kind, grid, algorithm, b)
        if schedule is None:
            continue
        for op, combine in REDUCE_OPS.items():
            for label in _VALUE_CLASSES:
                key = golden_key(kind, grid, algorithm, b, op, label)
                inputs = golden_inputs(schedule, b, label)
                with np.errstate(invalid="ignore"):     # inf + -inf is NaN
                    ref = simulate(schedule, _copies(inputs),
                                   backend="reference", combine=combine)
                    vec = simulate(schedule, _copies(inputs),
                                   backend="vectorized", combine=combine)
                    passed = final_buffers(schedule, _copies(inputs), combine)
                assert vec.backend == "vectorized", key
                shas = {buffers_sha(ref.buffers), buffers_sha(vec.buffers),
                        buffers_sha(passed)}
                assert len(shas) == 1, key
                golden[key] = shas.pop()
    GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} entries to {GOLDEN}")


if __name__ == "__main__":
    main()
