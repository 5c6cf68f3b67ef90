"""The repo's benchmark: one command, every metric by name, outputs checked.

    python perf/run.py --workload sweep_1d --seed 0 --seconds 20 --trace 0
    python perf/run.py --seed 0 [--traced] [--smoke] [--out runs.json]
    python perf/run.py --list

With ``--workload`` it runs one workload and prints, as the last line of
stdout, ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` for ``--trace 0``, the per-layer metrics for
``--trace 1``.  Without it, every workload runs in turn.  Each run happens
in a fresh process with a scrubbed environment (see ``bench.py``); this
file never imports the program.  Exit code 1 means an output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

import harness
from harness import median
from workloads import WORKLOADS

#: Fresh-process set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170


def contract() -> Dict[str, object]:
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def hermetic_env(cache_dir: str) -> Dict[str, str]:
    """The environment every child runs in: no ambient ``REPRO_*`` knob."""
    if os.environ.get("REPRO_FAULTS"):
        sys.exit("perf: refusing to benchmark under REPRO_FAULTS (fault injection)")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({
        "PYTHONPATH": str(harness.SRC),
        "PYTHONHASHSEED": "0",
        # Python 3.11 warns about segments the program already unlinked
        "PYTHONWARNINGS": "ignore::UserWarning",
        "REPRO_CACHE_DIR": cache_dir,      # no user TuneDB warms the cache
        "REPRO_SERVICE_DB": "-",
        "REPRO_SERVICE_RATE": "1e9",       # admission never answers 429
        "REPRO_SERVICE_BURST": "1000000000",
    })
    return env


def run_worker(env: Dict[str, str], workload: str, seed: int, seconds: float,
               trace: int, suite: int, smoke: bool,
               setup_only: bool = False) -> Dict[str, object]:
    command = [sys.executable, str(harness.PERF_DIR / "bench.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--suite", str(suite), "--spawned-at", repr(time.monotonic())]
    if smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    done = subprocess.run(command, capture_output=True, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S, cwd=str(harness.ROOT))
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        sys.exit(f"perf: worker for {workload!r} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_one(env: Dict[str, str], workload: str, seed: int, seconds: float,
            trace: int, suite: int, smoke: bool) -> Dict[str, object]:
    """One run of one workload, set-up repeated for a steady ``setup_s``."""
    setups: List[float] = []
    repeats = 1 if (trace or smoke or workload in ("plan_cold", "none")) else SETUP_REPEATS
    for _ in range(repeats - 1):
        setups.append(run_worker(env, workload, seed, seconds, 0, 0, smoke,
                                 setup_only=True)["setup_s"])
    result = run_worker(env, workload, seed, seconds, trace, suite, smoke)
    if "setup_s" in result["metrics"]:
        setups.append(result["metrics"]["setup_s"])
        result["metrics"]["setup_s"] = median(setups)
        result["setups"] += len(setups) - 1
    return result


def with_units(metrics: Dict[str, float], declared: List[Dict[str, str]],
               strict: bool) -> Dict[str, Dict[str, object]]:
    """``metrics`` restricted to the declared names, each with its unit."""
    out = {}
    for entry in declared:
        name = entry["name"]
        if name not in metrics:
            if strict:
                sys.exit(f"perf: metric {name!r} was not measured")
            continue
        out[name] = harness.metric(metrics[name], entry["unit"])
    return out


def print_table(result: Dict[str, object], shown: Dict[str, Dict[str, object]]) -> None:
    head = f"== {result['workload']} seed={result['seed']} trace={result['trace']}"
    if "samples" in result:
        head += (f"  ops={result['ops']} samples={result['samples']} "
                 f"window={result['window_s']:.1f}s setups={result.get('setups', 1)}")
    print(head)
    for name, entry in shown.items():
        print(f"  {name:<44} {entry['value']:>16.6g} {entry['unit']}")
    if "tail" in result:
        tail = result["tail"]
        print(f"  {'op_p' + format(tail['percentile'], 'g') + '_ms':<44} "
              f"{tail['ms']:>16.6g} ms   (highest percentile with >=10 samples beyond)")
    if "ledger_ms" in result:
        rows = result["ledger_ms"]
        parts = ", ".join(f"{k}={v:.3f}" for k, v in rows.items() if k != "op")
        print(f"  ledger per op (ms): op={rows['op']:.3f} = {parts}")
        print(f"  trace: {result['trace_file']}")
    print(f"  attempted={result['attempted']} failed={result['failed']} "
          f"fail_ratio={result['failed'] / max(result['attempted'], 1):.6f}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    host = result["host"]
    print(f"  host: cores={host['host.cores']} python={host['python']} "
          f"numpy={host['numpy']} commit={host['git_commit'][:12]}")


def record(result: Dict[str, object], shown) -> Dict[str, object]:
    return {"workload": result["workload"], "seed": result["seed"],
            "trace": result["trace"], "metrics": shown,
            "attempted": result["attempted"], "failed": result["failed"],
            "host": result["host"]}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="all-workloads mode: also run each workload traced")
    parser.add_argument("--smoke", action="store_true",
                        help="small batches and 1 s windows (self-tests)")
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--out", help="append one JSON line per run to this file")
    args = parser.parse_args(argv)

    spec = contract()
    if args.list:
        for entry in spec["workloads"]:
            print(f"{entry['name']:<20} {entry['why']}")
        return 0
    if not (harness.SRC / "repro" / "__init__.py").exists():
        sys.exit("perf: src/repro is not in this checkout; nothing to measure")
    seconds = args.seconds if args.seconds is not None else (
        1.0 if args.smoke else float(spec["run_seconds"]))

    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=harness.OUT_DIR)
    records: List[Dict[str, object]] = []
    try:
        env = hermetic_env(cache_dir)
        if args.workload:
            result = run_one(env, args.workload, args.seed, seconds,
                             args.trace, args.trace, args.smoke)
            declared = spec["per_layer"] if args.trace else spec["end_to_end"]
            shown = with_units(result["metrics"], declared, strict=True)
            print_table(result, shown)
            records.append(record(result, shown))
            final = {"correct": result["failed"] == 0,
                     "attempted": result["attempted"],
                     "failed": result["failed"], "metrics": shown}
        else:
            plan = [(name, 0) for name in WORKLOADS]
            if args.traced:
                plan += [(name, 1) for name in WORKLOADS] + [("none", 1)]
            attempted = failed = 0
            for name, trace in plan:
                result = run_one(env, name, args.seed, seconds, trace,
                                 1 if name == "none" else 0, args.smoke)
                declared = spec["per_layer"] if trace else spec["end_to_end"]
                shown = with_units(result["metrics"], declared, strict=False)
                print_table(result, shown)
                records.append(record(result, shown))
                attempted += result["attempted"]
                failed += result["failed"]
            final = {"correct": failed == 0, "attempted": attempted,
                     "failed": failed,
                     "metrics": {f"{r['workload']}/{name}": entry
                                 for r in records
                                 for name, entry in r["metrics"].items()}}
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if args.out:
        with open(args.out, "a") as sink:
            for entry in records:
                sink.write(json.dumps(entry) + "\n")
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
