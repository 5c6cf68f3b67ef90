"""Cold planning computes each thing once.

* :func:`~repro.autogen.hybrid.best_reduce_tree` is memoized per
  ``(p, b, params)`` and its trees are shared read-only by ranking,
  prediction and the row and column phases of a build;
* a plan takes its predicted cycles from the ranking instead of
  predicting again;
* every :func:`~repro.collectives.build_schedule` call validates its
  schedule exactly once, on the final schedule.
"""

import pytest

from repro import CollectiveSpec, Grid
from repro.autogen.hybrid import best_reduce_tree
from repro.collectives import COLLECTIVE_KINDS, build_schedule
from repro.core import registry
from repro.core.api import plan
from repro.core.registry import CollectiveEntry
from repro.fabric.ir import Schedule
from repro.model.params import CS2

#: The 52 ``algorithm="auto"`` specs of the ``plan_cold`` workload.
PLAN_COLD_SPECS = [
    (kind, *shape)
    for kind in ("reduce", "allreduce")
    for shape in (
        [(1, p, b) for p in (16, 32, 64, 96, 128, 192) for b in (16, 256, 4096)]
        + [(m, n, b) for m, n in ((8, 8), (16, 16), (32, 32), (16, 64))
           for b in (64, 1024)]
    )
]

ZOO_GRIDS = [Grid(1, 8), Grid(1, 16), Grid(4, 4), Grid(3, 5), Grid(8, 16)]
ZOO_BS = [16, 64]


def feasible_specs(grid, b):
    """Every registered algorithm (and X-Y variant) that can build here."""
    dims = 1 if grid.rows == 1 else 2
    for kind in COLLECTIVE_KINDS:
        for name, entry in registry.entries_for(kind, dims).items():
            for xy in ((False, True) if (kind, dims) == ("allreduce", 2)
                       else (False,)):
                spec = CollectiveSpec(kind, grid, b, algorithm=name, xy=xy)
                if entry.feasible(spec):
                    yield entry, spec


class TestBestTreeMemo:
    def test_shared_trees_survive_the_whole_zoo(self):
        best_reduce_tree.cache_clear()
        for grid in ZOO_GRIDS:
            for b in ZOO_BS:
                for entry, spec in feasible_specs(grid, b):
                    entry.build(spec)
                    entry.predict(spec)
                for kind in ("reduce", "allreduce"):
                    plan(CollectiveSpec(kind, grid, b), use_cache=False)
        keys = {(side, b, CS2) for grid in ZOO_GRIDS for b in ZOO_BS
                for side in {grid.rows, grid.cols} - {1}}
        misses = best_reduce_tree.cache_info().misses
        shared = {key: best_reduce_tree(*key) for key in keys}
        # Every key was memoized by the zoo: these are the shared objects.
        assert best_reduce_tree.cache_info().misses == misses
        best_reduce_tree.cache_clear()
        for key, tree in shared.items():
            assert best_reduce_tree(*key) == tree, key

    @pytest.mark.parametrize("kind", ["reduce", "allreduce"])
    @pytest.mark.parametrize("algorithm", ["auto", "autogen"])
    def test_cold_2d_plan_searches_each_side_once(self, kind, algorithm):
        best_reduce_tree.cache_clear()
        spec = CollectiveSpec(kind, Grid(8, 16), 64, algorithm=algorithm)
        plan(spec, use_cache=False)
        info = best_reduce_tree.cache_info()
        assert info.misses == 2  # P = 16 for the rows, P = 8 for column 0
        if algorithm == "autogen":
            # Ranking searched both sides; the build reused both trees.
            assert info.hits >= 2

    def test_call_forms_share_one_entry(self):
        best_reduce_tree.cache_clear()
        first = best_reduce_tree(24, 100)
        assert best_reduce_tree(24, 100, CS2) is first
        assert best_reduce_tree(24, b=100, params=CS2) is first
        assert best_reduce_tree.cache_info().misses == 1

    def test_square_grid_shares_the_row_and_column_tree(self):
        best_reduce_tree.cache_clear()
        plan(CollectiveSpec("reduce", Grid(8, 8), 64, algorithm="autogen"),
             use_cache=False)
        assert best_reduce_tree.cache_info().misses == 1


class TestPredictedCyclesFromRanking:
    @pytest.mark.parametrize("fields", PLAN_COLD_SPECS,
                             ids=lambda f: "-".join(map(str, f)))
    def test_plan_cold_specs(self, fields):
        kind, rows, cols, b = fields
        spec = CollectiveSpec(kind, Grid(rows, cols), b)
        built = plan(spec, use_cache=False)
        entry = registry.get_entry(kind, spec.dims, built.algorithm)
        assert built.choice is not None
        assert built.predicted_cycles == entry.predict(
            spec.with_algorithm(built.algorithm))

    @pytest.mark.parametrize("grid", [Grid(1, 16), Grid(8, 8), Grid(4, 16)],
                             ids=str)
    def test_forced_algorithms(self, grid):
        for entry, spec in feasible_specs(grid, 64):
            built = plan(spec, use_cache=False)
            assert built.predicted_cycles == entry.predict(spec), spec

    def test_plan_predicts_each_candidate_once(self, monkeypatch):
        calls = []
        original = CollectiveEntry.predict

        def counting(self, spec):
            calls.append(spec.algorithm)
            return original(self, spec)

        monkeypatch.setattr(CollectiveEntry, "predict", counting)
        built = plan(CollectiveSpec("allreduce", Grid(8, 8), 64),
                     use_cache=False)
        assert sorted(calls) == sorted(built.choice.candidates)


@pytest.mark.parametrize("grid", [Grid(1, 8), Grid(4, 4)], ids=str)
@pytest.mark.parametrize("kind", COLLECTIVE_KINDS)
def test_build_schedule_validates_once(grid, kind, monkeypatch):
    calls = []
    original = Schedule.validate

    def counting(self):
        calls.append(self.name)
        return original(self)

    monkeypatch.setattr(Schedule, "validate", counting)
    specs = [spec for _, spec in feasible_specs(grid, 64) if spec.kind == kind]
    if not specs:
        pytest.skip(f"no {kind} algorithm on a {grid.rows}x{grid.cols} grid")
    for spec in specs:
        calls.clear()
        schedule = build_schedule(kind, grid, spec.algorithm, spec.b,
                                  xy=spec.xy)
        assert calls == [schedule.name], (spec.algorithm, spec.xy)
