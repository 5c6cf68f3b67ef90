"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python perf/compare.py A.json B.json     # B against the base A
    python perf/compare.py A.json            # spreads of one set of runs

Each file holds the records ``run.py --out`` appends (one JSON object per
line, or one JSON array).  For every metric x workload the table gives each
side's median and quartiles, the change of B's median against A's as a
ratio with its base, and a verdict against the bound ``BENCHMARK.json``
fixes for that metric:

    ok          B's median is no worse than A's by more than the bound
    regressed   it is worse by more than the bound
    unresolved  the run-to-run spread (quartile distance / median) of either
                side is wider than the bound, so neither claim can be made --
                unless every run of B reads better than every run of A
    info        a per-layer metric: no bound, reported only

Exit code 1 when any row is ``regressed``, 2 when none is but some row is
``unresolved``.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import harness

Key = Tuple[str, str]  # (workload, metric)


def load(path: str) -> Dict[Key, List[float]]:
    text = open(path).read().strip()
    if text.startswith("["):
        records = json.loads(text)
    else:
        records = [json.loads(line) for line in text.splitlines() if line.strip()]
    values: Dict[Key, List[float]] = defaultdict(list)
    for entry in records:
        for name, metric in entry["metrics"].items():
            values[(entry["workload"], name)].append(float(metric["value"]))
    return values


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median (0 for an exact repeat)."""
    q1, mid, q3 = harness.quartiles(values)
    return abs(q3 - q1) / abs(mid) if mid else 0.0


def worsening(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def verdict(a: List[float], b: List[float], better: str,
            bound: Optional[float]) -> str:
    if bound is None:
        return "info"
    worse = worsening(harness.median(a), harness.median(b), better)
    if max(spread(a), spread(b)) > bound:
        all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
        return "ok" if all_better else "unresolved"
    return "regressed" if worse > bound else "ok"


def fmt(values: List[float]) -> str:
    q1, mid, q3 = harness.quartiles(values)
    return f"{mid:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def main(argv: List[str]) -> int:
    if len(argv) not in (1, 2):
        sys.exit(__doc__)
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base = load(argv[0])
    other = load(argv[1]) if len(argv) == 2 else None
    states = []
    for (workload, name) in sorted(base):
        meta = declared.get(name, {"better": "lower"})
        bound = meta.get("bound")
        a = base[(workload, name)]
        row = f"{workload:<20} {name:<40} A {fmt(a)}"
        if other is None:
            share = spread(a)
            state = "info" if bound is None else (
                "steady" if share <= bound / 3 else
                "within bound" if share <= bound else "unresolved")
            row += f"  spread {100 * share:.2f}%"
            if bound is not None:
                row += f" of bound {100 * bound:.0f}%"
            row += f"  {state}"
        else:
            b = other.get((workload, name))
            if not b:
                continue
            state = verdict(a, b, meta["better"], bound)
            a_mid, b_mid = harness.median(a), harness.median(b)
            ratio = b_mid / a_mid if a_mid else float("nan")
            row += (f"  B {fmt(b)}  B/A {ratio:.4f} (base A={a_mid:.5g}, "
                    f"{meta['better']} is better")
            if bound is not None:
                row += f", bound {100 * bound:.0f}%"
            row += f")  {state}"
        states.append(state)
        print(row)
    return 1 if "regressed" in states else 2 if "unresolved" in states else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
