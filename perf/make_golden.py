"""Regenerate ``golden_cycles.json`` from the reference simulator.

Run once, by hand, when a workload shape is added:
``python perf/make_golden.py``.  The benchmark then requires the default
backend to report exactly these cycle counts, so a simulator speed-up must
leave every simulated statistic identical.
"""

from __future__ import annotations

import json
import sys

import harness

sys.path.insert(0, str(harness.SRC))

from repro import execute, plan  # noqa: E402
from repro.service.schemas import seeded_input  # noqa: E402

from replay import to_spec  # noqa: E402
from workloads import SIMULATED_SHAPES, spec_key  # noqa: E402


def main() -> int:
    cycles = {}
    for fields in SIMULATED_SHAPES:
        spec = to_spec(fields)
        outcome = execute(plan(spec), seeded_input(spec, 0), backend="reference")
        assert outcome.sim.backend == "reference"
        cycles[spec_key(fields)] = int(outcome.measured_cycles)
        print(spec_key(fields), outcome.measured_cycles, file=sys.stderr)
    path = harness.PERF_DIR / "golden_cycles.json"
    path.write_text(json.dumps(
        {"backend": "reference", "cycles": cycles}, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
