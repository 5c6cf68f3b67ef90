"""Pure chunking of a sweep batch: which points travel together.

A sweep is a list of ``(spec, data)`` points; the pool schedules
*chunks* — runs of point indices that share one spec, hence one plan.
:func:`partition` decides the chunks and nothing else: no pool, no
arrays, no I/O.  :func:`verify_assignments` is the independent checker
of its contract (every point in exactly one chunk, one spec per chunk,
bounded chunk size), so the partitioning policy can change without the
scheduler or the transport knowing.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from ..core.registry import CollectiveSpec

__all__ = ["CHUNKS_PER_WORKER", "Chunk", "chunk_bound", "partition",
           "verify_assignments"]

#: Chunks targeted per worker: enough slack that the pool load-balances
#: when one spec dominates the batch, few enough that per-chunk
#: transport overhead stays amortized.
CHUNKS_PER_WORKER = 4

#: One schedulable unit: a spec and the batch indices that run under it.
Chunk = Tuple[CollectiveSpec, List[int]]


def chunk_bound(points: int, workers: int) -> int:
    """Most points one chunk may hold for a batch of ``points``."""
    return max(1, math.ceil(points / (workers * CHUNKS_PER_WORKER)))


def partition(specs: Sequence[CollectiveSpec], workers: int) -> List[Chunk]:
    """Split a batch into chunks of one spec and bounded size.

    Points are grouped by spec in order of first appearance and each
    group is cut into runs of at most :func:`chunk_bound` indices, so
    specs are never mixed inside a chunk (one plan per chunk) and
    indices ascend within every chunk.
    """
    groups: Dict[CollectiveSpec, List[int]] = {}
    for index, spec in enumerate(specs):
        groups.setdefault(spec, []).append(index)
    bound = chunk_bound(len(specs), workers)
    return [
        (spec, indices[start:start + bound])
        for spec, indices in groups.items()
        for start in range(0, len(indices), bound)
    ]


def verify_assignments(
    specs: Sequence[CollectiveSpec], chunks: Sequence[Chunk], workers: int
) -> None:
    """Raise ``ValueError`` unless ``chunks`` is a valid partition.

    Valid means: every index of ``specs`` appears in exactly one chunk,
    every index in a chunk carries that chunk's spec, and no chunk is
    empty or exceeds :func:`chunk_bound`.
    """
    assigned = sorted(i for _, indices in chunks for i in indices)
    if assigned != list(range(len(specs))):
        raise ValueError(
            f"chunks assign indices {assigned}; expected each of "
            f"0..{len(specs) - 1} exactly once"
        )
    bound = chunk_bound(len(specs), workers)
    for number, (spec, indices) in enumerate(chunks):
        if not 1 <= len(indices) <= bound:
            raise ValueError(f"chunk {number} holds {len(indices)} points, "
                             f"outside 1..{bound}")
        if any(specs[index] != spec for index in indices):
            raise ValueError(f"chunk {number} mixes specs")
