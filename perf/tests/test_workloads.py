"""Workload generation is a pure function of the seed."""

import pytest

from workloads import PLAN_COLD_SPECS, SERVICE_CATALOGUE, WORKLOADS, fingerprint, generate

PINNED = {
    ("sweep_1d", 0): "d9c0fbab32be94d4c154b94e6d6fb1451f2f73e7631974a98a078c8afd74fd17",
    ("sweep_1d", 1): "c603a819f17d7cc316b5fad74ba4a0780b971e0ff188b9fe68b59e8ee680557c",
    ("sweep_bulk", 0): "a9cc9f0148e6eadec6c76110df638e745282f8d17a39d0acde93d46da4bff8d5",
    ("sweep_bulk", 1): "d5ab4e77bb0ba8429e312b8f69fc51756517595cb06f8222e86d5d9cd7b92969",
    ("plan_cold", 0): "fa6053714c02a9b5e38afe789cd58117036421ca9a4dc3856cd1cb7e08bdc1e3",
    ("plan_cold", 1): "d749db63a086e7e2a61ac21b8c0e3986182c422755cce5f80e09394eca8b6c48",
    ("service_plan_hot", 0): "b5ebdc41cc9ce58c60e805a2e947186dac0590959087cdf2b1d55a52e68b6eba",
    ("service_plan_hot", 1): "6ee5615a5cca67adc06a1880ab6c1684bfb13e7abd3a72c20548120539d75ccb",
    ("service_sweep_bulk", 0): "1df2e2a9ef28bd02f721bd7353850206c5b8e45f147a0486e918896da26a61ac",
    ("service_sweep_bulk", 1): "dbc2a61ebf5a302c22663ecbf0f28ef6e38a07603dffa3e94ec163c4a172939f",
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_inputs(workload):
    assert generate(workload, 3) == generate(workload, 3)
    assert generate(workload, 3) != generate(workload, 4)


@pytest.mark.parametrize("workload,seed", sorted(PINNED))
def test_pinned_hashes(workload, seed):
    assert fingerprint(workload, seed) == PINNED[(workload, seed)]


def test_every_workload_is_pinned_for_seeds_0_and_1():
    assert set(PINNED) == {(w, s) for w in WORKLOADS for s in (0, 1)}


def test_shapes():
    assert len(PLAN_COLD_SPECS) == 52 == len(set(PLAN_COLD_SPECS))
    assert len(SERVICE_CATALOGUE) == 64 == len(set(SERVICE_CATALOGUE))
    points = generate("sweep_1d", 0)["points"]
    assert len(points) == 16 and len({tuple(p[0]) for p in points}) == 8
    bulk = generate("sweep_bulk", 0)["points"]
    assert [p[0][0] for p in bulk] == ["broadcast", "reduce"] * 6
    draws = generate("service_plan_hot", 0)["draws"]
    assert min(draws) == 0 and max(draws) < 64
    # zipf: the most popular spec is drawn far more often than the median one
    assert draws.count(0) > 5 * draws.count(32)


def test_smoke_scale_shrinks_batches_not_shapes():
    assert generate("sweep_1d", 0, smoke=True)["points"] == generate("sweep_1d", 0)["points"][:4]
    assert all(len(o) == 12 for o in generate("plan_cold", 0, smoke=True)["orders"])
