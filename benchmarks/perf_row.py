"""Append one row to ``BENCH_perf.json``, the repo's one perf trajectory.

    python benchmarks/perf_row.py --pr N     # measure the committed HEAD
    python benchmarks/perf_row.py --show     # print the trajectory

A row is ``{pr, commit, host, workloads}``: for each workload the medians
of the four end-to-end metrics of ``BENCHMARK.json`` over 20 untraced
``perf/run.py`` runs (seeds 0-9, twice, at the contract's
``run_seconds``), the method of ``perf/baseline.json``.  Rows are only
measured on a clean checkout, so ``commit`` names exactly the code that
ran; commit the change first, then append its row.  The file is
append-only.  Its first row holds ``perf/baseline.json``'s medians.

Rows compare only within a series: consecutive rows with the same host
fingerprint (cores, python, numpy, machine).  A row with another
fingerprint starts a new series; it is not a regression.  This script is
not collected by pytest.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from statistics import median
from typing import Dict, List

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_perf.json"
RUN = ROOT / "perf" / "run.py"
#: One all-workload ``perf/run.py`` run per entry, as ``perf/baseline.json``.
SEEDS = tuple(range(10)) * 2


def contract() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def fingerprint(host: Dict[str, object]) -> Dict[str, object]:
    return {k: host[k] for k in ("host.cores", "python", "numpy", "machine")}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True,
                          check=True, cwd=str(ROOT)).stdout.strip()


def clean_head() -> str:
    """HEAD's commit; exits if a tracked file differs from it."""
    if git("status", "--porcelain", "--untracked-files=no"):
        sys.exit("perf_row: the checkout has uncommitted changes; commit them first")
    return git("rev-parse", "HEAD")


def measure(out: str) -> None:
    """Append one untraced run per workload and seed to ``out``."""
    for seed in SEEDS:
        subprocess.run([sys.executable, str(RUN), "--seed", str(seed),
                        "--trace", "0", "--out", out],
                       check=True, cwd=str(ROOT), stdout=subprocess.DEVNULL)


def summarise(records: List[Dict[str, object]], pr: int, commit: str) -> Dict[str, object]:
    names = [m["name"] for m in contract()["end_to_end"]]
    if any(r["failed"] for r in records):
        sys.exit("perf_row: a run had failed ops; no row written")
    if {r["host"]["git_commit"] for r in records} != {commit}:
        sys.exit("perf_row: the runs did not all measure HEAD; no row written")
    hosts = {json.dumps(fingerprint(r["host"]), sort_keys=True) for r in records}
    if len(hosts) != 1:
        sys.exit("perf_row: the runs come from more than one host")
    workloads = {}
    for entry in contract()["workloads"]:
        runs = [r for r in records if r["workload"] == entry["name"]]
        if len(runs) != len(SEEDS):
            sys.exit(f"perf_row: {entry['name']} has {len(runs)} runs, not {len(SEEDS)}")
        workloads[entry["name"]] = {
            m: median(r["metrics"][m]["value"] for r in runs) for m in names}
    return {"pr": pr, "commit": commit,
            "host": fingerprint(records[0]["host"]), "workloads": workloads}


def show(rows: List[Dict[str, object]]) -> None:
    """Each row's medians, with the ratio to the previous row of its series."""
    previous = None
    for row in rows:
        if previous is None or row["host"] != previous["host"]:
            print(f"-- series: {row['host']}")
            previous = None
        print(f"PR {row['pr']} @ {row['commit'][:10]}")
        for w, metrics in row["workloads"].items():
            cells = []
            for m, v in metrics.items():
                cell = f"{m}={v:.4g}"
                if previous is not None and w in previous["workloads"]:
                    cell += f" ({v / previous['workloads'][w][m]:.2f}x)"
                cells.append(cell)
            print(f"  {w:<20} " + "  ".join(cells))
        previous = row


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--pr", type=int, help="the PR the new row belongs to")
    parser.add_argument("--show", action="store_true")
    args = parser.parse_args(argv)
    rows = json.loads(TRAJECTORY.read_text())
    if args.show:
        show(rows)
        return 0
    if args.pr is None:
        parser.error("--pr is required to append a row")
    commit = clean_head()
    fd, path = tempfile.mkstemp(suffix=".jsonl")
    os.close(fd)
    try:
        measure(path)
        text = pathlib.Path(path).read_text()
    finally:
        os.unlink(path)
    if clean_head() != commit:
        sys.exit("perf_row: HEAD moved during the runs; no row written")
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    rows.append(summarise(records, args.pr, commit))
    TRAJECTORY.write_text(json.dumps(rows, indent=1) + "\n")
    show(rows[-2:])
    return 0


if __name__ == "__main__":
    sys.exit(main())
