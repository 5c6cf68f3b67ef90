"""Span arithmetic, the percentile rule, and compare's verdicts."""

import time

import pytest

import compare
import harness
from harness import Recorder, ledger


def test_percentile_rule():
    # a percentile needs >= 10 samples beyond it
    assert not harness.percentile_allowed(999, 99.0)
    assert harness.percentile_allowed(1000, 99.0)
    assert harness.percentile_allowed(20, 50.0)
    assert not harness.percentile_allowed(19, 50.0)
    assert harness.highest_percentile(5) is None
    assert harness.highest_percentile(45) == 75.0
    assert harness.highest_percentile(15000) == 99.9
    assert harness.guarded_percentile(list(range(100)), 99.0) is None
    assert harness.guarded_percentile(list(range(1001)), 99.0) == pytest.approx(990.0)
    assert harness.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5


def test_children_lie_inside_parent_and_self_times_sum():
    rec = Recorder("t")
    with rec.span("op", "perf", op=7) as root:
        with rec.span("a", "core"):
            time.sleep(0.002)
            with rec.span("b", "fabric"):
                time.sleep(0.003)
        with rec.span("c", "fabric"):
            time.sleep(0.001)
    for record in rec.spans:
        assert record["op"] == 7
        if record["parent"] is not None:
            outer = rec.spans[record["parent"]]
            assert outer["start"] <= record["start"] <= record["end"] <= outer["end"]
    assert sum(rec.self_times()) == pytest.approx(rec.duration(root))
    rows = ledger(rec, 1, ("core", "fabric"))
    assert rows["core"] + rows["fabric"] + rows["unexplained"] == pytest.approx(rows["op"])
    assert rows["fabric"] >= 4.0 and rows["core"] >= 2.0
    assert rows["unexplained"] >= 0.0


def test_added_spans_are_clamped_into_their_parent():
    rec = Recorder("t")
    with rec.span("op", "perf", op=0) as root:
        time.sleep(0.001)
    start = rec.spans[root]["start"]
    child = rec.add("replayed", "service", start, start + 10.0, parent=root)
    assert rec.spans[child]["end"] == rec.spans[root]["end"]
    assert rec.spans[child]["op"] == 0
    rows = ledger(rec, 1, ("service",))
    assert rows["service"] == pytest.approx(rows["op"])
    assert rows["unexplained"] == pytest.approx(0.0, abs=1e-9)


def test_chrome_trace_shape():
    rec = Recorder("w")
    with rec.span("op", "perf", op=1):
        with rec.span("x", "core"):
            pass
    events = rec.chrome_trace()["traceEvents"]
    assert [e["ph"] for e in events] == ["X", "X"]
    assert events[1]["args"] == {"workload": "w", "op": 1, "span": 1, "parent": 0}
    assert events[0]["ts"] == 0.0 and events[1]["dur"] >= 0.0


def test_quartiles_and_spread():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, mid, q3 = harness.quartiles(values)
    assert (q1, mid, q3) == (11.75, 14.5, 17.25)
    assert compare.spread(values) == pytest.approx(5.5 / 14.5)
    assert compare.spread([3.0, 3.0, 3.0]) == 0.0


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [x * 1.05 for x in steady], "lower", 0.10) == "ok"
    assert compare.verdict(steady, [x * 1.20 for x in steady], "lower", 0.10) == "regressed"
    assert compare.verdict(steady, [x * 0.80 for x in steady], "higher", 0.10) == "regressed"
    assert compare.verdict(steady, [x * 1.20 for x in steady], "higher", 0.10) == "ok"
    noisy = [100.0, 140.0, 70.0, 120.0, 85.0]
    assert compare.verdict(noisy, noisy, "lower", 0.10) == "unresolved"
    # wide spread, but every run of B beats every run of A
    assert compare.verdict(noisy, [x / 3 for x in noisy], "lower", 0.10) == "ok"
    assert compare.verdict(steady, steady, "lower", None) == "info"
