"""The whole benchmark at smoke scale: fast, correct, every metric emitted."""

import json
import subprocess
import sys
import time

import harness
from workloads import WORKLOADS

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def test_smoke_run_emits_every_metric_in_under_30s(tmp_path):
    out = tmp_path / "runs.json"
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(harness.PERF_DIR / "run.py"), "--smoke", "--traced",
         "--seed", "5", "--out", str(out)],
        capture_output=True, text=True, timeout=120, cwd=str(harness.ROOT))
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert elapsed < 30, f"smoke run took {elapsed:.1f}s"
    final = json.loads(done.stdout.strip().splitlines()[-1])
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0
    assert set(final) == {"correct", "attempted", "failed", "metrics"}

    records = [json.loads(line) for line in out.read_text().splitlines()]
    end_to_end = {e["name"] for e in SPEC["end_to_end"]}
    per_layer = {e["name"] for e in SPEC["per_layer"]}
    for workload in WORKLOADS:
        plain = next(r for r in records if r["workload"] == workload and r["trace"] == 0)
        assert set(plain["metrics"]) == end_to_end
        assert all(m["value"] > 0 for m in plain["metrics"].values())
    traced = {}
    for entry in records:
        if entry["trace"] == 1:
            traced.update(entry["metrics"])
    assert set(traced) == per_layer
    for name in ("host.cores", "host.calib_python_s", "host.calib_numpy_s"):
        assert traced[name]["value"] > 0
    assert all("git_commit" in r["host"] for r in records)
    for workload in WORKLOADS:
        trace = harness.OUT_DIR / f"trace_{workload}.json"
        events = json.loads(trace.read_text())["traceEvents"]
        assert events and {"name", "cat", "ph", "ts", "dur", "args"} <= set(events[0])


def test_list_names_the_workloads():
    done = subprocess.run([sys.executable, str(harness.PERF_DIR / "run.py"), "--list"],
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0
    assert [line.split()[0] for line in done.stdout.splitlines()] == list(WORKLOADS)


def test_refuses_fault_injection():
    done = subprocess.run(
        [sys.executable, str(harness.PERF_DIR / "run.py"), "--smoke",
         "--workload", "sweep_1d"],
        capture_output=True, text=True, timeout=60,
        env={"REPRO_FAULTS": "seed=1;kill@1", "PATH": "/usr/bin:/bin"})
    assert done.returncode != 0 and "REPRO_FAULTS" in done.stderr
    assert not done.stdout.strip()
