"""Regenerate ``tests/golden_values.json``: SHA-256s of final buffers.

One entry per collective zoo schedule × reduce op × input value class
(see ``tests/test_golden_values.py``), written from the clock-free value
pass, the one engine that computes buffers.  Every committed entry must
be reproduced: with no new zoo case the script asserts that its output
equals the committed file byte for byte and leaves it alone, and
otherwise it only adds the new cases' entries.  Run from the repository
root:

    PYTHONPATH=src python tests/make_golden_values.py
"""

from __future__ import annotations

import json

import numpy as np

from repro.core.registry import REDUCE_OPS
from repro.fabric.values import final_buffers
from test_golden_values import (
    _VALUE_CLASSES,
    GOLDEN,
    buffers_sha,
    golden_inputs,
    golden_key,
    zoo_schedule,
)
from test_sim_backends import _zoo_cases


def main() -> None:
    committed = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
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
                    sha = buffers_sha(final_buffers(schedule, inputs, combine))
                assert committed.get(key, sha) == sha, key
                golden[key] = sha
    text = json.dumps(golden, indent=0, sort_keys=True) + "\n"
    if golden.keys() == committed.keys():
        assert text == GOLDEN.read_text(), "golden values moved"
        print(f"{GOLDEN} reproduced byte for byte ({len(golden)} entries)")
        return
    GOLDEN.write_text(text)
    print(f"wrote {len(golden)} entries to {GOLDEN}")


if __name__ == "__main__":
    main()
