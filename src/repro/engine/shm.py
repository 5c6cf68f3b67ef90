"""Shared-memory data plane: ship array descriptors, not pickled bytes.

At large ``B`` a sweep chunk's cost is dominated not by simulation but by
transport — per-PE input rows pickled into the pool's call pipe on the
way out, and per-PE result buffers pickled back on the way in.  This
module moves those arrays through ``multiprocessing.shared_memory``
instead: the sender packs them back-to-back into one named segment and
ships only :class:`ArrayRef` descriptors ``(offset, shape, dtype)``
plus the :class:`Segment` name; the receiver maps the segment and reads
the arrays straight out of it.  Bytes are copied verbatim, so results
are bit-identical to in-process execution.

Ownership protocol (what keeps ``/dev/shm`` leak-free):

* the *creator* packs and closes its own mapping; it never unlinks;
* the *consumer* attaches, copies what it needs, closes, and **unlinks**;
* whoever orchestrates (the sweep engine) unlinks every segment it
  created in a ``finally`` — including when a worker raised and the
  consumer never ran — via the idempotent :func:`unlink`.

Segment names are ``repro_shm_<pid>_<seq>``, so a test (or an operator)
can audit ``/dev/shm`` for leaks by prefix.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from multiprocessing import shared_memory as _shared_memory
from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "DEFAULT_THRESHOLD_BYTES",
    "NAME_PREFIX",
    "ArrayRef",
    "Segment",
    "pack",
    "read",
    "unlink",
]

#: Arrays of at least this many bytes count as bulk in transport
#: micro-benchmarks; every chunk ships through a segment whatever its size.
DEFAULT_THRESHOLD_BYTES = 1 << 20  # 1 MiB

#: Every segment this module creates is named with this prefix.
NAME_PREFIX = "repro_shm"

_SEQUENCE = itertools.count()


@dataclass(frozen=True)
class ArrayRef:
    """Where one array lives inside a segment: offset, shape, dtype str."""

    offset: int
    shape: Tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape)))


@dataclass(frozen=True)
class Segment:
    """A shared-memory segment's identity; this is what crosses processes."""

    name: str
    nbytes: int


def _fresh_name() -> str:
    return f"{NAME_PREFIX}_{os.getpid()}_{next(_SEQUENCE)}"


def pack(arrays: Sequence[np.ndarray]) -> Tuple[Segment, List[ArrayRef]]:
    """Copy ``arrays`` back-to-back into a new segment; return descriptors.

    The creating process's own mapping is closed before returning — the
    segment persists until someone calls :func:`unlink` on its name.  The
    caller therefore *owns* the unlink obligation from this point on.
    """
    contiguous = [np.ascontiguousarray(a) for a in arrays]
    total = sum(a.nbytes for a in contiguous)
    mem = None
    # A forked child inherits the parent's _SEQUENCE counter, so a name
    # collision is possible; retry with fresh names instead of failing.
    for _ in range(64):
        try:
            mem = _shared_memory.SharedMemory(
                create=True, name=_fresh_name(), size=max(1, total)
            )
            break
        except FileExistsError:
            continue
    if mem is None:  # pragma: no cover - 64 straight collisions
        raise RuntimeError("could not allocate a shared-memory segment name")
    try:
        refs: List[ArrayRef] = []
        offset = 0
        for array in contiguous:
            view = np.ndarray(
                array.shape, dtype=array.dtype, buffer=mem.buf, offset=offset
            )
            view[...] = array
            refs.append(ArrayRef(offset, array.shape, array.dtype.str))
            offset += array.nbytes
        segment = Segment(mem.name, max(1, total))
    except BaseException:
        # Never leave a half-written segment behind on a packing failure.
        mem.close()
        unlink(mem.name)
        raise
    mem.close()
    return segment, refs


def read(segment: Segment, refs: Sequence[ArrayRef], copy: bool = True):
    """Attach ``segment`` and materialize every ref, then detach.

    With ``copy=True`` (the default) the returned arrays own their data
    and the mapping is closed before returning — the right mode for a
    consumer that will immediately :func:`unlink`.  With ``copy=False``
    the arrays are read-only views and the *mapping object* is returned
    alongside them; the caller must keep it alive while the views are in
    use and ``close()`` it afterwards.
    """
    mem = _shared_memory.SharedMemory(name=segment.name)
    try:
        arrays = []
        for ref in refs:
            view = np.ndarray(
                ref.shape,
                dtype=np.dtype(ref.dtype),
                buffer=mem.buf,
                offset=ref.offset,
            )
            if copy:
                arrays.append(view.copy())
            else:
                view.flags.writeable = False
                arrays.append(view)
    except BaseException:
        mem.close()
        raise
    if copy:
        mem.close()
        return arrays
    return arrays, mem


def unlink(name: str) -> bool:
    """Remove the named segment; idempotent (missing names are fine)."""
    try:
        mem = _shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    except ValueError:
        # A creator killed between creating and sizing its segment
        # leaves it empty, and an empty segment cannot be mapped.
        try:
            os.unlink(os.path.join("/dev/shm", name))
        except FileNotFoundError:  # pragma: no cover - lost a race
            return False
        return True
    try:
        mem.unlink()
    except FileNotFoundError:  # pragma: no cover - lost a race, same result
        pass
    finally:
        mem.close()
    return True
