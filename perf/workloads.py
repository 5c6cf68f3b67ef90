"""The five workloads: fixed shapes, and inputs that are a pure function of the seed.

A spec is the tuple ``(kind, rows, cols, b, algorithm)``.  Shapes never
change; ``--seed`` drives input data (through the program's public
``seeded_input``), point order, plan order and the zipf draws.  Only
``random.Random`` with string seeds is used here, so the generated
description is the same on every Python and NumPy version (the self-tests
pin its hash for seeds 0 and 1).  Nothing here imports ``repro``.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Tuple

Spec = Tuple[str, int, int, int, str]

#: name -> why the workload exists (one line; copied into BENCHMARK.json).
WORKLOADS: Dict[str, str] = {
    "sweep_1d": (
        "16 points over 8 shapes at 1x64 PEs through serial run_many, plans warm: "
        "the fig 11/12 regime where the simulator's per-cycle cost is ~all of the time"
    ),
    "sweep_bulk": (
        "12 points of 16x16 broadcast B=4096 and reduce/tree B=1024 through a warm "
        "2-worker EngineSession: bulk inputs beside bulk replies, where transport shows"
    ),
    "plan_cold": (
        "52 distinct algorithm=auto specs planned once each in a fresh process: all "
        "planner, model, autogen and collectives, no simulator"
    ),
    "service_plan_hot": (
        "one closed-loop client, zipf(1.1) over 64 pre-planned specs, POST /plan: "
        "connection set-up, HTTP parse, admission and a cache hit, no simulator"
    ),
    "service_sweep_bulk": (
        "one closed-loop client alternating a 5 MB /sweep reply and a 5 MB /sweep "
        "request: schema encode/decode and JSON beside a short simulation"
    ),
}

SWEEP_1D_SHAPES: List[Spec] = [
    ("reduce", 1, 64, 192, "chain"),
    ("reduce", 1, 64, 192, "tree"),
    ("reduce", 1, 64, 192, "two_phase"),
    ("reduce", 1, 64, 192, "auto"),
    ("allreduce", 1, 64, 192, "chain"),
    ("allreduce", 1, 64, 192, "auto"),
    ("allreduce", 1, 64, 192, "ring"),
    ("reduce", 1, 64, 32, "star"),
]

SWEEP_BULK_SHAPES: List[Spec] = [
    ("broadcast", 16, 16, 4096, "auto"),
    ("reduce", 16, 16, 1024, "tree"),
]

PLAN_COLD_SPECS: List[Spec] = [
    (kind, *shape, "auto")
    for kind in ("reduce", "allreduce")
    for shape in (
        [(1, p, b) for p in (16, 32, 64, 96, 128, 192) for b in (16, 256, 4096)]
        + [(m, n, b) for m, n in ((8, 8), (16, 16), (32, 32), (16, 64))
           for b in (64, 1024)]
    )
]

SERVICE_CATALOGUE: List[Spec] = [
    (kind, 1, p, b, "auto")
    for p in (8, 16, 24, 32, 40, 48, 56, 64)
    for b in (16, 64, 256, 1024)
    for kind in ("reduce", "allreduce")
]

SERVICE_BULK_REPLY: Spec = ("broadcast", 16, 16, 1024, "auto")
SERVICE_BULK_REQUEST: Spec = ("reduce", 1, 64, 4096, "chain")

#: Every shape that is simulated, for ``golden_cycles.json``.
SIMULATED_SHAPES: List[Spec] = (
    SWEEP_1D_SHAPES + SWEEP_BULK_SHAPES
    + [SERVICE_BULK_REPLY, SERVICE_BULK_REQUEST]
)

ZIPF_EXPONENT = 1.1
ZIPF_DRAWS = 32768
PLAN_ORDERS = 16


def spec_key(spec: Spec) -> str:
    kind, rows, cols, b, algorithm = spec
    return f"{kind}/{algorithm}/{rows}x{cols}/b{b}"


def _data_seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 31)


def generate(workload: str, seed: int, smoke: bool = False) -> Dict[str, object]:
    """The inputs of one run of ``workload``: a JSON-able description.

    ``smoke`` shrinks the batch so the self-tests finish quickly; the
    shapes stay the same.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep_1d":
        shapes = SWEEP_1D_SHAPES * 2
        rng.shuffle(shapes)
        points = [[list(shape), _data_seed(rng)] for shape in shapes]
        return {"points": points[:4] if smoke else points}
    if workload == "sweep_bulk":
        points = [[list(SWEEP_BULK_SHAPES[i % 2]), _data_seed(rng)]
                  for i in range(12)]
        return {"points": points[:4] if smoke else points}
    if workload == "plan_cold":
        orders = []
        for _ in range(PLAN_ORDERS):
            order = list(range(len(PLAN_COLD_SPECS)))
            rng.shuffle(order)
            if smoke:   # a dozen specs whose DP tables build in milliseconds
                order = [i for i in order
                         if PLAN_COLD_SPECS[i][1] * PLAN_COLD_SPECS[i][2] <= 64][:12]
            orders.append(order)
        return {"specs": [list(s) for s in PLAN_COLD_SPECS], "orders": orders}
    if workload == "service_plan_hot":
        weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT
                   for rank in range(len(SERVICE_CATALOGUE))]
        draws = rng.choices(range(len(SERVICE_CATALOGUE)), weights=weights,
                            k=ZIPF_DRAWS)
        return {"catalogue": [list(s) for s in SERVICE_CATALOGUE],
                "draws": draws}
    if workload == "service_sweep_bulk":
        replies = [_data_seed(rng) for _ in range(4)]
        requests = [_data_seed(rng) for _ in range(2)]
        return {
            "reply": {"spec": list(SERVICE_BULK_REPLY),
                      "seeds": replies[:1] if smoke else replies},
            "request": {"spec": list(SERVICE_BULK_REQUEST),
                        "seeds": requests[:1] if smoke else requests},
        }
    raise ValueError(f"unknown workload {workload!r}; "
                     f"expected one of {sorted(WORKLOADS)}")


def fingerprint(workload: str, seed: int) -> str:
    """SHA-256 of the generated description (what the self-tests pin)."""
    blob = json.dumps(generate(workload, seed), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()
