"""Tests for repro.engine.partition: the pure chunking of a sweep batch.

``partition`` decides which points travel together; its contract —
every index in exactly one chunk, one spec per chunk, bounded chunk
size — is stated by ``verify_assignments``, so the property test runs
every generated batch through the checker, and the checker itself is
shown to reject each way a partition can be wrong.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import CollectiveSpec, Grid
from repro.engine.partition import (
    CHUNKS_PER_WORKER,
    chunk_bound,
    partition,
    verify_assignments,
)

SPECS = [
    CollectiveSpec("reduce", Grid(1, 8), 16),
    CollectiveSpec("reduce", Grid(1, 8), 16, algorithm="chain"),
    CollectiveSpec("broadcast", Grid(1, 6), 12),
    CollectiveSpec("allreduce", Grid(2, 2), 8),
]


@given(
    picks=st.lists(st.integers(0, len(SPECS) - 1), max_size=60),
    workers=st.integers(1, 9),
)
def test_partition_satisfies_its_checker(picks, workers):
    specs = [SPECS[i] for i in picks]
    chunks = partition(specs, workers)
    verify_assignments(specs, chunks, workers)
    # Not part of the checker's contract, but promised by partition.
    assert all(indices == sorted(indices) for _, indices in chunks)


def test_bound_targets_a_fixed_chunk_count_per_worker():
    specs = [SPECS[0]] * 64
    chunks = partition(specs, workers=4)
    assert len(chunks) == 4 * CHUNKS_PER_WORKER
    assert chunk_bound(64, 4) == 4
    assert chunk_bound(0, 4) == 1          # never a zero-sized bound


def test_groups_keep_first_appearance_order():
    specs = [SPECS[2], SPECS[0]] * 4
    assert partition(specs, workers=1) == [
        (SPECS[2], [0, 2]), (SPECS[2], [4, 6]),
        (SPECS[0], [1, 3]), (SPECS[0], [5, 7]),
    ]


class TestVerifyAssignmentsRejects:
    specs = [SPECS[0]] * 4 + [SPECS[2]] * 4      # bound: 2 per chunk

    def good(self):
        return partition(self.specs, workers=1)

    def test_accepts_the_real_partition(self):
        verify_assignments(self.specs, self.good(), workers=1)

    def test_a_dropped_index(self):
        chunks = self.good()
        chunks[0] = (chunks[0][0], chunks[0][1][:-1])
        with pytest.raises(ValueError, match="exactly once"):
            verify_assignments(self.specs, chunks, workers=1)

    def test_a_duplicated_index(self):
        chunks = self.good()
        chunks.append((SPECS[2], [7]))
        with pytest.raises(ValueError, match="exactly once"):
            verify_assignments(self.specs, chunks, workers=1)

    def test_an_index_under_the_wrong_spec(self):
        with pytest.raises(ValueError, match="mixes specs"):
            verify_assignments(self.specs, [
                (SPECS[0], [0, 1]), (SPECS[0], [2, 4]),
                (SPECS[2], [3, 5]), (SPECS[2], [6, 7]),
            ], workers=1)

    def test_an_oversized_chunk(self):
        specs = [SPECS[0]] * 8
        assert chunk_bound(8, 1) == 2
        with pytest.raises(ValueError, match="outside 1..2"):
            verify_assignments(specs, [(SPECS[0], list(range(8)))], workers=1)

    def test_an_empty_chunk(self):
        chunks = self.good() + [(SPECS[0], [])]
        with pytest.raises(ValueError, match="holds 0 points"):
            verify_assignments(self.specs, chunks, workers=1)
