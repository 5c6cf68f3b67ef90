"""Worker: one workload, in this fresh process, against the public API.

``run.py`` spawns this file once per run (and per repeated set-up), with a
scrubbed environment.  It sets the workload up, measures a window of ops
(plain, or decomposed under spans when ``--trace 1``), checks every output,
tears down, and prints one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from repro import execute, plan, run_many
from repro.engine import EngineSession, shm
from repro.service import ServiceClient, ServiceError
from repro.service.schemas import PlanResponse, SpecRequest, SweepItem, seeded_input

import harness
import layers
from layers import timed
from harness import Recorder, guarded_percentile, ledger, median
from replay import LAYERS, Gate, to_spec, traced_execute
from service_proc import Server
from workloads import WORKLOADS, generate

#: Spans kept in the written trace (the ledger always uses every span).
TRACE_SPAN_CAP = 20000
#: Throughput is the median over slices of at least this many busy seconds.
SLICE_S = 1.0
#: A traced run alternates this many plain and traced slices.
TRACE_SLICES = 3


def run_plan_child(specs: List[list], mode: str) -> Dict[str, object]:
    """Plan ``specs`` in a fresh interpreter (see ``plan_child.py``)."""
    done = subprocess.run(
        [sys.executable, str(harness.PERF_DIR / "plan_child.py")],
        input=json.dumps({"specs": specs, "mode": mode}),
        capture_output=True, text=True, timeout=170, env=dict(os.environ),
    )
    if done.returncode != 0:
        raise RuntimeError(f"plan child failed: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class Window:
    """What one measured window saw."""

    def __init__(self) -> None:
        self.ops = 0
        self.batches: List[tuple] = []   # (ops, seconds inside the timed ops)
        self.samples: List[float] = []   # per-op latency samples, seconds
        self.elapsed = 0.0

    @property
    def ops_per_s(self) -> float:
        """Median rate over ~1 s slices of the window.

        The host slows down in bursts that last seconds; a median over
        slices ignores a burst where a total over the window averages it in.
        """
        rates, ops, busy = [], 0, 0.0
        for batch_ops, batch_busy in self.batches:
            ops += batch_ops
            busy += batch_busy
            if busy >= SLICE_S:
                rates.append(ops / busy)
                ops, busy = 0, 0.0
        if not rates and busy:
            rates.append(ops / busy)
        return median(rates)


def measure(batch, seconds: float, window: Optional[Window] = None) -> Window:
    """Run ``batch()`` until another one would overrun ``seconds``.

    Adds to ``window`` when given one, so slices of a run accumulate.
    """
    window = window or Window()
    start = time.perf_counter()
    batches = 0
    while True:
        ops, busy, samples = batch()
        batches += 1
        window.ops += ops
        window.batches.append((ops, busy))
        window.samples.extend(samples)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / batches > seconds:
            window.elapsed += elapsed
            return window


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool, gate: Gate) -> None:
        self.seed = seed
        self.smoke = smoke
        self.gate = gate
        self.desc = generate(self.name, seed, smoke)
        #: per-layer metrics this workload measures itself (override the suite)
        self.layer_metrics: Dict[str, float] = {}
        self.replay = Recorder(f"{self.name}.replay")
        #: set-up times this workload measured itself, if it repeats set-up
        self.setups: List[float] = []

    def setup(self) -> None: ...
    def batch(self): raise NotImplementedError
    def traced_batch(self, rec: Recorder): raise NotImplementedError
    def explain(self, rec: Recorder) -> None: ...
    def finish(self) -> None: ...
    def teardown(self) -> None: ...

    def setup_s(self, measured: float) -> float:
        return median(self.setups) if self.setups else measured

    def check_points(self, fields, specs, datas, outcomes, exact=None) -> None:
        for i, outcome in enumerate(outcomes):
            self.gate.point(
                fields[i], specs[i], datas[i], outcome.result,
                outcome.measured_cycles, outcome.predicted_cycles,
                outcome.sim.backend, exact=None if exact is None else exact[i])


class _Sweep(Workload):
    """Points from the generated description, plans warm."""

    def setup(self) -> None:
        points = self.desc["points"]
        self.fields = [tuple(fields) for fields, _ in points]
        self.specs = [to_spec(fields) for fields in self.fields]
        self.datas = [seeded_input(spec, data_seed)
                      for spec, (_, data_seed) in zip(self.specs, points)]
        for spec in self.specs:
            plan(spec)


class Sweep1D(_Sweep):
    name = "sweep_1d"

    def batch(self):
        busy, outcomes = timed(lambda: run_many(self.specs, self.datas))
        self.check_points(self.fields, self.specs, self.datas, outcomes)
        return len(outcomes), busy, [busy / len(outcomes)]

    def traced_batch(self, rec: Recorder):
        samples = []
        for op, (fields, spec, data) in enumerate(
                zip(self.fields, self.specs, self.datas)):
            with rec.span("sweep_1d.point", "perf", op=op) as root:
                result, sim, built = traced_execute(rec, spec, data)
            samples.append(rec.duration(root))
            self.gate.point(fields, spec, data, result, sim.cycles,
                            built.predicted_cycles, sim.backend)
        return len(samples), sum(samples), samples


class SweepBulk(_Sweep):
    name = "sweep_bulk"

    def setup(self) -> None:
        super().setup()
        self.session = EngineSession(workers=2)
        self.session.attach()
        if not self.smoke:      # fork the workers and fault their pages in
            self.session.sweep(self.specs[:4], self.datas[:4])

    def batch(self):
        busy, self.last = timed(lambda: self.session.sweep(self.specs, self.datas))
        self.check_points(self.fields, self.specs, self.datas, self.last)
        return len(self.last), busy, [busy / len(self.last)]

    def finish(self) -> None:
        # one point of each kind must be bit-identical to serial run_many
        serial = run_many(self.specs[:2], self.datas[:2])
        self.check_points(self.fields[:2], self.specs[:2], self.datas[:2],
                          self.last[:2], exact=[o.result for o in serial])

    def traced_batch(self, rec: Recorder):
        n = len(self.specs)
        with rec.span("sweep_bulk.batch", "perf") as root:
            with rec.span("engine.session.sweep", "engine") as sweep:
                outcomes = self.session.sweep(self.specs, self.datas)
        # beside it: the same batch serially, decomposed, then the transports
        replay = self.replay
        fabric_before = replay.layer_self_seconds().get("fabric", 0.0)
        serial_s, exact = 0.0, []
        for op, (spec, data) in enumerate(zip(self.specs, self.datas)):
            with replay.span("serial.point", "perf", op=op) as point:
                result, _, _ = traced_execute(replay, spec, data)
            serial_s += replay.duration(point)
            exact.append(result)
        self.check_points(self.fields, self.specs, self.datas, outcomes, exact=exact)
        fabric_s = replay.layer_self_seconds()["fabric"] - fabric_before
        with replay.span("engine.pickle.roundtrip", "engine") as pickled:
            blob = pickle.dumps(outcomes, pickle.HIGHEST_PROTOCOL)
            pickle.loads(blob)
        bulk = [d for d in self.datas if d.nbytes >= shm.DEFAULT_THRESHOLD_BYTES]
        with replay.span("engine.shm.pack", "engine") as packed:
            segment, refs = shm.pack(bulk)
        try:
            with replay.span("engine.shm.read", "engine") as read:
                shm.read(segment, refs)
        finally:
            shm.unlink(segment.name)
        start = rec.spans[sweep]["start"]
        rec.add("fabric.simulate (serial replay / 2 workers)", "fabric",
                start, start + fabric_s / 2, parent=sweep)
        busy = rec.duration(root)
        mb = sum(d.nbytes for d in bulk) / layers.MB
        self.layer_metrics.update({
            "engine.parallel_speedup": serial_s / busy,
            "engine.pickle.roundtrip_ms_per_mb":
                1e3 * replay.duration(pickled) / (len(blob) / layers.MB),
            "engine.shm.pack_ms_per_mb": 1e3 * replay.duration(packed) / mb,
            "engine.shm.read_ms_per_mb": 1e3 * replay.duration(read) / mb,
        })
        return n, busy, [busy / n]

    def explain(self, rec: Recorder) -> None:
        self.layer_metrics.update(layers.engine_counts(self.session.stats.as_dict()))

    def teardown(self) -> None:
        self.session.close()


class PlanCold(Workload):
    name = "plan_cold"

    def setup(self) -> None:
        self.sample = 0
        self.cache = {"hits": 0, "misses": 0}

    def _child(self, mode: str):
        order = self.desc["orders"][self.sample % len(self.desc["orders"])]
        self.sample += 1
        specs = [self.desc["specs"][i] for i in order]
        spawned = time.monotonic()
        child = run_plan_child(specs, mode)
        # the set-up users pay here is each sample's spawn + import
        self.setups.append(child["ready_mono"] - spawned)
        self.gate.attempted += len(specs)
        for failure in child["failures"]:
            self.gate.fail(failure)
        return child

    def batch(self):
        child = self._child("plain")
        for key in self.cache:
            self.cache[key] += child["cache"][key]
        return len(child["plan_s"]), sum(child["plan_s"]), child["plan_s"]

    def traced_batch(self, rec: Recorder):
        child = self._child("traced")
        base = len(rec.roots())
        samples = []
        for op, (start, end) in enumerate(child["ops"]):
            root = rec.add("plan_cold.plan", "perf", start, end, None, op=base + op)
            for name, layer, s, e, owner in child["spans"]:
                if owner == op:
                    rec.add(name, layer, s, e, parent=root)
            samples.append(end - start)
        return len(samples), sum(samples), samples

    def explain(self, rec: Recorder) -> None:
        total = self.cache["hits"] + self.cache["misses"]
        self.layer_metrics.update({
            "core.cache.hits": float(self.cache["hits"]),
            "core.cache.misses": float(self.cache["misses"]),
            "core.cache.hit_ratio": self.cache["hits"] / max(total, 1),
        })


class _Service(Workload):
    """A server subprocess and one closed-loop client."""

    endpoint = ""

    def setup(self) -> None:
        self.server = Server(dict(os.environ))
        self.client = ServiceClient(self.server.host, self.server.port)
        self.client.wait_ready(timeout=30)
        self.before: Optional[Dict[str, object]] = None
        self.count = 0

    def finish(self) -> None:
        counts = layers.service_counts(self.client.stats().metrics)
        bad = (counts["service.requests.4xx"] + counts["service.requests.5xx"]
               + counts["service.rejected"])
        if bad:
            self.gate.problem(f"server counted {bad:.0f} refused or failed requests")

    def explain(self, rec: Recorder) -> None:
        stats = self.client.stats().metrics
        self.server_side_s = layers.server_side(stats, self.before, self.endpoint)
        cache_hits = stats.get("plan_cache.hits", 0)
        cache_misses = stats.get("plan_cache.misses", 0)
        self.layer_metrics.update({
            **layers.service_counts(stats),
            "service.boot_s": self.server.boot_s,
            "service.server_side_ms_mean": 1e3 * self.server_side_s,
            "core.cache.hits": float(cache_hits),
            "core.cache.misses": float(cache_misses),
            "core.cache.hit_ratio": cache_hits / max(cache_hits + cache_misses, 1),
        })

    def teardown(self) -> None:
        for problem in self.server.stop():
            self.gate.problem(problem)

    def traced_batch(self, rec: Recorder):
        if self.before is None:
            self.before = self.client.stats().metrics
        with rec.span(f"client{self.endpoint}", "perf", op=self.count) as root:
            outcome = self.request()
        self.verify(outcome, root)
        busy = rec.duration(root)
        return 1, busy, [busy]

    def batch(self):
        busy, outcome = timed(self.request)
        self.verify(outcome, None)
        return 1, busy, [busy]

    def request(self):
        """One request; the reply, or the exception that replaced it."""
        self.count += 1
        try:
            return self.send()
        except (ServiceError, OSError, ValueError) as exc:
            return exc

    def send(self): raise NotImplementedError
    def verify(self, outcome, root: Optional[int]) -> None: raise NotImplementedError


class ServicePlanHot(_Service):
    name = "service_plan_hot"
    endpoint = "/plan"

    def setup(self) -> None:
        super().setup()
        self.requests = [SpecRequest.from_spec(to_spec(fields))
                         for fields in self.desc["catalogue"]]
        self.answers = [self.client.plan(request) for request in self.requests]
        self.draws = self.desc["draws"]

    def send(self):
        self.index = self.draws[(self.count - 1) % len(self.draws)]
        return self.client.plan(self.requests[self.index])

    def verify(self, outcome, root) -> None:
        self.gate.attempted += 1
        want = self.answers[self.index]
        if isinstance(outcome, Exception):
            self.gate.fail(f"/plan failed: {outcome}")
        elif not outcome.cached:
            self.gate.fail("a pre-planned spec was not served from the cache")
        elif (outcome.algorithm, outcome.predicted_cycles) != (
                want.algorithm, want.predicted_cycles):
            self.gate.fail("a cached /plan answer changed between requests")

    def finish(self) -> None:
        super().finish()
        rng = np.random.default_rng(self.seed)
        for index in rng.choice(len(self.requests), size=4, replace=False):
            local = plan(self.requests[index].to_spec())
            answer = self.answers[index]
            self.gate.attempted += 1
            if (local.algorithm, local.predicted_cycles) != (
                    answer.algorithm, answer.predicted_cycles):
                self.gate.fail("service plan differs from the library's plan")

    def explain(self, rec: Recorder) -> None:
        super().explain(rec)
        request, answer = self.requests[0], self.answers[0]
        raw = json.dumps(answer.to_payload())

        def codec():
            json.dumps(request.to_payload())
            PlanResponse.from_payload(json.loads(raw))

        codec_s = median([timed(codec)[0] for _ in range(200)])
        for root in rec.roots():
            start = rec.spans[root]["start"]
            mid = rec.add("service.server_side (/stats histogram mean)",
                          "service", start, start + self.server_side_s, root)
            end = rec.spans[mid]["end"]
            rec.add("service.client codec (replayed)", "service",
                    end, end + codec_s, root)


class ServiceSweepBulk(_Service):
    name = "service_sweep_bulk"
    endpoint = "/sweep"

    def setup(self) -> None:
        super().setup()
        self.variants = []      # (kind, fields, data seed, item)
        for kind in ("reply", "request"):
            part = self.desc[kind]
            request = SpecRequest.from_spec(to_spec(part["spec"]))
            for data_seed in part["seeds"]:
                if kind == "reply":
                    item = SweepItem(spec=request, seed=data_seed)
                else:
                    data = seeded_input(request.to_spec(), data_seed)
                    item = SweepItem.from_payload(
                        {"spec": request.to_payload(), "data": data.tolist()})
                self.variants.append((kind, tuple(part["spec"]), data_seed, item))
        self.replies = [v for v in self.variants if v[0] == "reply"]
        self.bulk_requests = [v for v in self.variants if v[0] == "request"]
        self.first: Dict[int, object] = {}     # variant index -> first outcome
        if not self.smoke:      # the server plans both specs and warms its codecs
            for variant in (self.replies[0], self.bulk_requests[0]):
                self.client.sweep([variant[3]], return_results=True)

    # The two kinds take different times, so a median over single requests
    # would flip between them; one latency sample is the mean of a pair.
    def batch(self):
        (_, first, _), (_, second, _) = super().batch(), super().batch()
        return 2, first + second, [(first + second) / 2]

    def traced_batch(self, rec: Recorder):
        (_, first, _), (_, second, _) = (super().traced_batch(rec),
                                         super().traced_batch(rec))
        return 2, first + second, [(first + second) / 2]

    def send(self):
        turn = self.count - 1
        pool = self.replies if turn % 2 == 0 else self.bulk_requests
        self.variant = pool[(turn // 2) % len(pool)]
        return self.client.sweep([self.variant[3]], return_results=True)

    def verify(self, outcome, root) -> None:
        self.gate.attempted += 1
        if isinstance(outcome, Exception):
            self.gate.fail(f"/sweep failed: {outcome}")
            return
        first = self.first.setdefault(self.variants.index(self.variant),
                                      outcome.outcomes[0])
        if outcome.outcomes[0] != first:
            self.gate.fail("the same /sweep request gave two different replies")

    def finish(self) -> None:
        super().finish()
        # the first reply per variant, against the library in this process
        for index, first in self.first.items():
            _, fields, data_seed, _ = self.variants[index]
            spec = to_spec(fields)
            data = seeded_input(spec, data_seed)
            local = execute(plan(spec), data)
            self.gate.point(fields, spec, data, first.result_array(),
                            first.measured_cycles, first.predicted_cycles,
                            first.backend, exact=np.asarray(local.result))

    def explain(self, rec: Recorder) -> None:
        super().explain(rec)
        steps = {}
        for kind, fields, data_seed, _ in (self.replies[0], self.bulk_requests[0]):
            codec = layers.schema_replay(fields, data_seed, kind == "request",
                                         self.gate)
            spec = to_spec(fields)
            before = self.replay.layer_self_seconds()
            with self.replay.span(f"local.execute ({kind})", "perf"):
                traced_execute(self.replay, spec, seeded_input(spec, data_seed))
            after = self.replay.layer_self_seconds()
            steps[kind] = (codec, {layer: after.get(layer, 0.0) - before.get(layer, 0.0)
                                   for layer in ("core", "fabric")})
        for turn, root in enumerate(rec.roots()):
            codec, executed = steps["reply" if turn % 2 == 0 else "request"]
            cursor = rec.spans[root]["start"]
            for name, layer, seconds in (
                    ("service.client req encode (replayed)", "service", codec["client_encode_s"]),
                    ("service.schemas req decode (replayed)", "service", codec["server_decode_s"]),
                    ("core.execute (replayed)", "core", executed["core"]),
                    ("fabric.simulate (replayed)", "fabric", executed["fabric"]),
                    ("service.schemas resp encode (replayed)", "service", codec["server_encode_s"]),
                    ("service.client resp decode (replayed)", "service", codec["client_decode_s"])):
                index = rec.add(name, layer, cursor, cursor + seconds, root)
                cursor = rec.spans[index]["end"]


CLASSES = {cls.name: cls for cls in
           (Sweep1D, SweepBulk, PlanCold, ServicePlanHot, ServiceSweepBulk)}
assert set(CLASSES) == set(WORKLOADS)


def write_trace(name: str, recorders: List[Recorder]) -> str:
    events = []
    for tid, recorder in enumerate(recorders, start=1):
        for event in recorder.chrome_trace()["traceEvents"][:TRACE_SPAN_CAP]:
            event["tid"] = tid
            events.append(event)
    path = harness.OUT_DIR / f"trace_{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
    return str(path.relative_to(harness.ROOT))


def end_to_end(workload: Workload, window: Window, setup_s: float) -> Dict[str, float]:
    return {
        "setup_s": workload.setup_s(setup_s),
        "ops_per_s": window.ops_per_s,
        "op_p50_ms": 1e3 * median(window.samples),
    }


def traced_run(workload: Workload, seconds: float, result: Dict[str, object]) -> Dict[str, float]:
    """Plain and traced windows, alternating; returns the ledger's metrics.

    The two kinds of window alternate in slices so that drift of the host
    (or of a warming server) lands on both sides of the overhead ratio.
    """
    gate = workload.gate
    rec = Recorder(workload.name)
    plain, traced = Window(), Window()
    slices = 1 if workload.smoke else TRACE_SLICES
    for _ in range(slices):
        measure(workload.batch, seconds / (2 * slices), plain)
        measure(lambda: workload.traced_batch(rec), seconds / (2 * slices), traced)
    workload.explain(rec)
    workload.finish()
    rows = ledger(rec, traced.ops, LAYERS)
    result["trace_file"] = write_trace(workload.name, [rec, workload.replay])
    result["ledger_ms"] = rows
    out = {
        "ledger.op_ms": rows["op"],
        "ledger.untraced_op_ms": 1e3 / plain.ops_per_s,
        "ledger.unexplained_ms": rows["unexplained"],
        "ledger.share_pct.unexplained": 100 * rows["unexplained"] / rows["op"],
        "obs.tracing_overhead_pct": 100 * (plain.ops_per_s / traced.ops_per_s - 1),
        "sim.cycles_total": float(gate.cycles),
        "model.err_pct_p50": 100 * median(gate.model_errors),
    }
    for layer in LAYERS:
        out[f"ledger.share_pct.{layer}"] = 100 * rows[layer] / rows["op"]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["none"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=time.monotonic())
    args = parser.parse_args()

    golden = json.loads((harness.PERF_DIR / "golden_cycles.json").read_text())
    gate = Gate(golden["cycles"])
    result: Dict[str, object] = {"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace}
    metrics: Dict[str, float] = {}
    if args.workload != "none":
        workload = CLASSES[args.workload](args.seed, args.smoke, gate)
        try:
            workload.setup()
            setup_s = time.monotonic() - args.spawned_at
            if args.setup_only:
                result["setup_s"] = setup_s
            elif args.trace:
                metrics.update(traced_run(workload, args.seconds, result))
            else:
                window = measure(workload.batch, args.seconds)
                workload.finish()
                metrics.update(end_to_end(workload, window, setup_s))
                result["samples"] = len(window.samples)
                result["setups"] = max(len(workload.setups), 1)
                result["ops"] = window.ops
                result["window_s"] = window.elapsed
                top = harness.highest_percentile(len(window.samples))
                if top is not None and top > 50.0:
                    result["tail"] = {
                        "percentile": top,
                        "ms": 1e3 * guarded_percentile(window.samples, top)}
        finally:
            workload.teardown()
        leaked = harness.shm_segments()
        if leaked:
            gate.problem(f"shared-memory segments left behind: {leaked[:4]}")
    if args.suite:
        metrics.update(layers.run_suite(args.seed, gate, dict(os.environ),
                                        run_plan_child, args.smoke))
    if args.workload != "none":
        metrics.update(workload.layer_metrics)   # its own rows win over the probe's
    if not args.trace and not args.setup_only and args.workload != "none":
        metrics["peak_rss_mb"] = harness.peak_rss_mb()
    result.update({
        "metrics": metrics, "attempted": gate.attempted, "failed": gate.failed,
        "failures": gate.failures, "host": harness.host_fingerprint(),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
