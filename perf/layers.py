"""The layer suite: one micro-bench per layer, timed from outside.

Every traced run ends with this suite, so each layer has its own
trajectory and a regression is attributed, not just detected.  The probes
are small and fixed; ``--seed`` drives their input data.  Each probe calls
only public functions of the layer it measures.
"""

from __future__ import annotations

import json
import pickle
import threading
import time
from typing import Callable, Dict, List

import numpy as np

from repro import PLAN_CACHE, execute, plan, run_many, simulate, use_telemetry
from repro.collectives import build_schedule
from repro.core.api import REDUCE_OPS
from repro.engine import EngineSession, shm
from repro.fabric.ir import lower_arrays
from repro.obs import METRICS
from repro.service import ServiceClient, ServiceError
from repro.service.schemas import (
    SpecRequest,
    SweepItem,
    SweepOutcome,
    SweepRequest,
    SweepResponse,
    seeded_input,
)

import harness
from harness import Recorder, guarded_percentile, median
from replay import Gate, extract_result, prepare_inputs, to_spec, traced_execute
from service_proc import Server
from workloads import (
    PLAN_COLD_SPECS,
    SERVICE_BULK_REPLY,
    SERVICE_CATALOGUE,
    spec_key,
)

#: The fabric/engine probe points: the small-grid regime of sweep_1d.
PROBE_SHAPES = [
    ("reduce", 1, 64, 192, "chain"),
    ("reduce", 1, 64, 192, "tree"),
    ("reduce", 1, 64, 192, "two_phase"),
    ("reduce", 1, 64, 192, "auto"),
]
PHASES = ("drain", "deliver", "route", "procs", "stride")
MB = 1e6


def timed(fn: Callable[[], object]):
    """``(seconds, value)`` of one call."""
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def _timeit(fn: Callable[[], object], reps: int) -> List[float]:
    return [timed(fn)[0] for _ in range(reps)]


def host_probe() -> Dict[str, float]:
    out = dict(harness.calibrate())
    out["host.cores"] = float(harness.host_fingerprint()["host.cores"])
    return out


def planner_probe(seed: int, run_child, smoke: bool) -> Dict[str, float]:
    """Cold ``plan`` and its sub-calls in a fresh process; hot ``plan`` here."""
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(PLAN_COLD_SPECS), size=4 if smoke else 12,
                       replace=False)
    child = run_child([list(PLAN_COLD_SPECS[i]) for i in picks], "layers")
    cold = [1e3 * s for s in child["cold_plan_s"]]
    hot_spec = to_spec(PLAN_COLD_SPECS[0])
    plan(hot_spec)
    before = PLAN_CACHE.stats()
    hot = _timeit(lambda: plan(hot_spec), 300 if smoke else 3000)
    after = PLAN_CACHE.stats()
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return {
        "autogen.dp.tables_ms.p64": 1e3 * child["tables_s_p64"],
        "autogen.dp.tables_ms.p192": 1e3 * child["tables_s_p192"],
        "core.plan.cold_ms_p50": median(cold),
        "core.plan.cold_ms_max": max(cold),
        "core.planner.rank_ms_p50": 1e3 * median(child["rank_s"]),
        "collectives.build_ms_p50": 1e3 * median(child["build_s"]),
        "model.predict_us_p50": 1e6 * median(child["predict_s"]),
        "core.cache.misses": float(child["cache"]["misses"]),
        "core.plan.hot_us_p50": 1e6 * median(hot),
        "core.cache.hits": float(hits),
        "core.cache.hit_ratio": hits / max(hits + misses, 1),
    }


def execute_overhead_ms(seed: int, reps: int) -> float:
    """What ``execute`` does besides simulating, on a bulk reply.

    Timed in the decomposed replay (plan hit + input copies + result
    stacking), because ``execute`` minus ``simulate`` is a ~1 ms
    difference of two ~50 ms calls and drowns in their noise.
    """
    spec = to_spec(SERVICE_BULK_REPLY)
    data = seeded_input(spec, seed)
    overheads = []
    for _ in range(reps):
        rec = Recorder("probe")
        traced_execute(rec, spec, data)
        overheads.append(rec.layer_self_seconds()["core"])
    return 1e3 * median(overheads)


def fabric_probe(seed: int, gate: Gate, smoke: bool) -> Dict[str, float]:
    """Lowering, the vectorized simulator and the reference oracle."""
    shapes = PROBE_SHAPES[:1] if smoke else PROBE_SHAPES
    lower_cold, lower_memo, sim_s, us_per_cycle = [], [], [], []
    for index, fields in enumerate(shapes):
        spec = to_spec(fields)
        built = plan(spec)
        data = seeded_input(spec, seed + index)
        # a schedule that was never lowered: build it again, publicly
        fresh = build_schedule(spec.kind, spec.grid, built.algorithm, spec.b,
                               params=spec.params, xy=spec.xy)
        lower_cold.append(timed(lambda: lower_arrays(fresh))[0])
        lower_memo.extend(_timeit(lambda: lower_arrays(fresh), 50))
        run_s, sim = timed(lambda: simulate(
            built.schedule, inputs=prepare_inputs(spec, data),
            params=spec.params, combine=REDUCE_OPS[spec.op]))
        outcome = execute(built, data)
        sim_s.append(run_s)
        us_per_cycle.append(1e6 * run_s / sim.cycles)
        gate.point(fields, spec, data, outcome.result, outcome.measured_cycles,
                   outcome.predicted_cycles, outcome.sim.backend,
                   exact=extract_result(spec, sim))
    out = {
        "fabric.ir.lower_cold_ms_p50": 1e3 * median(lower_cold),
        "fabric.ir.lower_memo_us_p50": 1e6 * median(lower_memo),
        "fabric.vectorized.sim_ms_p50": 1e3 * median(sim_s),
        "fabric.vectorized.us_per_cycle": median(us_per_cycle),
        "core.execute.overhead_ms_p50": execute_overhead_ms(seed, 3),
    }

    # The registry the program already keeps, read under use_telemetry only.
    spec = to_spec(shapes[0])
    data = seeded_input(spec, seed)
    before = METRICS.snapshot()
    with use_telemetry():
        telemetered = execute(plan(spec), data)
    delta = METRICS.delta(before)
    out["fabric.vectorized.cycles_stepped"] = float(delta.get("sim.cycles.stepped", 0))
    out["fabric.vectorized.cycles_strided"] = float(delta.get("sim.cycles.strided", 0))
    for phase in PHASES:
        out[f"fabric.vectorized.phase_s.{phase}"] = float(
            delta.get(f"sim.phase.seconds{{phase={phase}}}", 0.0))
    out["fabric.sim.fallbacks"] = float(gate.fallbacks + sum(
        value for key, value in delta.items()
        if key.startswith("sim.fallback") and isinstance(value, (int, float))))

    ref_s, reference = timed(lambda: execute(plan(spec), data, backend="reference"))
    out["fabric.reference.sim_ms"] = 1e3 * ref_s
    same = (np.array_equal(reference.result, telemetered.result)
            and reference.measured_cycles == telemetered.measured_cycles
            and reference.measured_cycles == gate.golden.get(spec_key(shapes[0])))
    gate.attempted += 1
    if not same:
        gate.fail("vectorized and reference backends disagree on the probe")
    return out


def engine_probe(seed: int, gate: Gate, smoke: bool) -> Dict[str, float]:
    """Transport round trips, pool cold start, and serial vs parallel."""
    rng = np.random.default_rng(seed)
    block = rng.normal(size=(256, 2048))            # 4 MB, like a bulk input
    mb = block.nbytes / MB
    pack_s, (segment, refs) = timed(lambda: shm.pack([block]))
    try:
        read_s, arrays = timed(lambda: shm.read(segment, refs))
    finally:
        shm.unlink(segment.name)
    if not np.array_equal(arrays[0], block):
        gate.problem("shm.read did not return what shm.pack wrote")

    # small points plus a bulk reply (4 MB pickled), each shape twice
    shapes = (PROBE_SHAPES[:1] if smoke else PROBE_SHAPES) + [SERVICE_BULK_REPLY]
    specs = [to_spec(f) for f in shapes for _ in range(2)]
    datas = [seeded_input(s, seed + i) for i, s in enumerate(specs)]
    for spec in specs:
        plan(spec)
    serial_s, serial = timed(lambda: run_many(specs, datas))
    blob_s, blob = timed(lambda: pickle.dumps(serial, pickle.HIGHEST_PROTOCOL))
    load_s, _ = timed(lambda: pickle.loads(blob))

    session = EngineSession(workers=2)
    try:
        session.attach()
        cold_s, _ = timed(lambda: session.sweep(specs[:2], datas[:2]))
        again_s, _ = timed(lambda: session.sweep(specs[:2], datas[:2]))
        warm_s, parallel = timed(lambda: session.sweep(specs, datas))
        stats = session.stats.as_dict()
    finally:
        session.close()
    for a, b in zip(serial, parallel):
        gate.attempted += 1
        if not (np.array_equal(a.result, b.result)
                and a.measured_cycles == b.measured_cycles):
            gate.fail("parallel outcome differs from serial run_many")
    return {
        "engine.shm.pack_ms_per_mb": 1e3 * pack_s / mb,
        "engine.shm.read_ms_per_mb": 1e3 * read_s / mb,
        "engine.pickle.roundtrip_ms_per_mb": 1e3 * (blob_s + load_s) / (len(blob) / MB),
        # first sweep on a new pool, less the same sweep repeated warm
        "engine.session.cold_start_s": max(cold_s - again_s, 0.0),
        "engine.parallel_speedup": serial_s / warm_s,
        **engine_counts(stats),
    }


def engine_counts(stats: Dict[str, object]) -> Dict[str, float]:
    return {
        "engine.chunks": float(stats["chunks"]),
        "engine.shm.chunks": float(stats["shm_chunks"]),
        "engine.shm.bytes": float(stats["shm_bytes"]),
        "engine.retries": float(stats["retries"]),
        "engine.timeouts": float(stats["timeouts"]),
        "engine.quarantined": float(stats["quarantined"]),
        "engine.pool_replacements": float(stats["pool_replacements"]),
    }


def service_counts(metrics: Dict[str, object]) -> Dict[str, float]:
    """The service's own counters, out of a ``/stats`` snapshot."""
    out = {"service.requests.2xx": 0.0, "service.requests.4xx": 0.0,
           "service.requests.5xx": 0.0, "service.rejected": 0.0,
           "service.coalesced": float(metrics.get("service.coalesced", 0))}
    for key, value in metrics.items():
        if key.startswith("service.requests{"):
            status = key.split("status=")[1][0]
            out[f"service.requests.{status}xx"] += value
        elif key.startswith("service.rejected"):
            out["service.rejected"] += value
    return out


def server_side(metrics: Dict[str, object], before: Dict[str, object],
                endpoint: str) -> float:
    """Mean seconds the server spent per ``endpoint`` request since ``before``."""
    key = f"service.latency_seconds{{endpoint={endpoint}}}"
    now, then = metrics.get(key, {}), before.get(key, {})
    count = now.get("count", 0) - then.get("count", 0)
    return (now.get("sum", 0.0) - then.get("sum", 0.0)) / count if count else 0.0


def schema_replay(spec_fields, data_seed: int, explicit: bool,
                  gate: Gate) -> Dict[str, float]:
    """Offline encode/decode of one ``/sweep`` exchange, on real payloads.

    Returns seconds per step and payload sizes; the steps mirror what the
    client and the server do with the body and the reply.
    """
    spec_req = SpecRequest.from_spec(to_spec(spec_fields))
    spec = spec_req.to_spec()
    data = seeded_input(spec, data_seed)
    if explicit:
        item = SweepItem(spec=spec_req, data=SweepItem.from_payload(
            {"spec": spec_req.to_payload(), "data": data.tolist()}).data)
    else:
        item = SweepItem(spec=spec_req, seed=data_seed)
    request = SweepRequest(items=(item,), return_results=True)
    enc_s, body = timed(lambda: json.dumps(request.to_payload()))

    def decode_request():
        parsed = SweepRequest.from_payload(json.loads(body))
        return [entry.input_array() for entry in parsed.items]

    dec_s, inputs = timed(decode_request)
    if not np.array_equal(inputs[0], data):
        gate.problem("request decode does not round-trip the input exactly")
    outcome = execute(plan(spec), inputs[0])

    def encode_response():
        frozen = SweepOutcome.from_payload({
            "algorithm": outcome.algorithm,
            "predicted_cycles": outcome.predicted_cycles,
            "measured_cycles": outcome.measured_cycles,
            "backend": outcome.sim.backend,
            "result": np.asarray(outcome.result).tolist(),
        })
        return json.dumps(SweepResponse((frozen,)).to_payload()).encode()

    resp_s, raw = timed(encode_response)
    cdec_s, decoded = timed(
        lambda: SweepResponse.from_payload(json.loads(raw.decode())))
    if not np.array_equal(decoded.outcomes[0].result_array(),
                          np.asarray(outcome.result)):
        gate.problem("response decode does not round-trip the result exactly")
    return {"client_encode_s": enc_s, "server_decode_s": dec_s,
            "server_encode_s": resp_s, "client_decode_s": cdec_s,
            "request_mb": len(body) / MB, "response_mb": len(raw) / MB}


def service_probe(seed: int, gate: Gate, env: dict, smoke: bool) -> Dict[str, float]:
    """Boot, the HTTP floor, a cache hit, coalescing, and the JSON codecs."""
    server = Server(env)
    try:
        client = ServiceClient(server.host, server.port)
        client.wait_ready(timeout=30)
        health = _timeit(client.healthz, 30 if smoke else 300)

        # 32 concurrent identical cold /plan -> how many planner calls?
        cold = SpecRequest.from_spec(to_spec(("reduce", 1, 96, 4096, "auto")))
        misses_before = client.stats().metrics.get("plan_cache.misses", 0)
        answers: List[object] = []

        def ask():
            try:
                answers.append(client.plan(cold))
            except (ServiceError, OSError) as exc:
                answers.append(exc)

        threads = [threading.Thread(target=ask) for _ in range(32)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        planner_calls = client.stats().metrics.get("plan_cache.misses", 0) - misses_before
        gate.attempted += 32
        bad = [a for a in answers if not hasattr(a, "algorithm")]
        if bad or len(answers) != 32:
            gate.fail(f"{len(bad) + 32 - len(answers)} of 32 concurrent /plan failed",
                      ops=max(len(bad), 1))
        if planner_calls != 1:
            gate.problem(f"32 identical concurrent /plan made {planner_calls} planner calls")

        hot = SpecRequest.from_spec(to_spec(SERVICE_CATALOGUE[seed % len(SERVICE_CATALOGUE)]))
        client.plan(hot)
        before = client.stats().metrics
        hits = _timeit(lambda: client.plan(hot), 1000 if smoke else 1500)
        after = client.stats().metrics
        out = {
            "service.boot_s": server.boot_s,
            "service.http.healthz_ms_p50": 1e3 * median(health),
            "service.plan.hit_ms_p50": 1e3 * median(hits),
            "service.plan.p99_ms": 1e3 * guarded_percentile(hits, 99.0),
            "service.server_side_ms_mean": 1e3 * server_side(after, before, "/plan"),
            "core.cache.coalesced_planner_calls": float(planner_calls),
            **service_counts(after),
        }
    finally:
        for problem in server.stop():
            gate.problem(problem)

    reply = schema_replay(("broadcast", 16, 16, 256, "auto"), seed, False, gate)
    request = schema_replay(("reduce", 1, 64, 1024, "chain"), seed, True, gate)
    out["service.schemas.req_decode_ms_per_mb"] = (
        1e3 * request["server_decode_s"] / request["request_mb"])
    out["service.schemas.resp_encode_ms_per_mb"] = (
        1e3 * reply["server_encode_s"] / reply["response_mb"])
    out["service.client.resp_decode_ms_per_mb"] = (
        1e3 * reply["client_decode_s"] / reply["response_mb"])
    return out


def run_suite(seed: int, gate: Gate, env: dict, run_child, smoke: bool) -> Dict[str, float]:
    """Every layer probe; returns ``{metric name: value}``."""
    out: Dict[str, float] = {}
    out.update(host_probe())
    out.update(planner_probe(seed, run_child, smoke))
    out.update(fabric_probe(seed, gate, smoke))
    out.update(engine_probe(seed, gate, smoke))
    out.update(service_probe(seed, gate, env, smoke))
    out["engine.shm.leaked_segments"] = float(len(harness.shm_segments()))
    out["model.lb_ratio_p50"] = median(gate.lb_ratios)
    out["model.lb_violations"] = float(gate.lb_violations)
    return out
