"""Ring AllReduce mapped onto a mesh row (Section 6.2, Figure 7).

The classic ring is ``P-1`` reduce-scatter rounds followed by ``P-1``
allgather rounds, each moving ``B/P``-wavelet chunks around the ring.  The
mesh has no wraparound link, so the paper proposes two mappings:

* **simple** — ring order equals physical order; the wrap edge from the
  rightmost to the leftmost PE rides a dedicated color through every
  router (Figure 7a).
* **distance-preserving** — even PEs ascending then odd PEs descending, so
  every ring edge spans at most two physical hops (Figure 7b).

Both use static router configurations (ring roles never change), with
edge colors chosen greedily so that no router carries two roles on one
color.  Rounds are full-duplex: each PE's
:class:`~repro.fabric.ir.SendRecv` op sends one chunk while receiving the
next, which is what makes a round cost one chunk, not two (Lemma 6.1).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..fabric.geometry import Grid, Port
from ..fabric.ir import RouterRule, Schedule, SendRecv
from .lanes import validate_lane

__all__ = ["ring_allreduce_schedule", "ring_order", "RING_MAPPINGS"]

RING_MAPPINGS = ("simple", "distance_preserving")


def ring_order(p: int, mapping: str) -> List[int]:
    """Ring traversal order over lane positions ``0 .. p-1``.

    ``simple``: physical order with a long wrap edge.
    ``distance_preserving``: evens ascending, odds descending — every edge
    (including the wrap) spans at most two lane positions.
    """
    if p < 2:
        raise ValueError(f"ring needs at least 2 PEs, got {p}")
    if mapping == "simple":
        return list(range(p))
    if mapping == "distance_preserving":
        evens = list(range(0, p, 2))
        odds = list(range(1, p, 2))[::-1]
        return evens + odds
    raise ValueError(f"unknown ring mapping {mapping!r}; expected {RING_MAPPINGS}")


def _edge_routes(
    order: Sequence[int], lane: Sequence[int]
) -> List[List[int]]:
    """Physical PE route of each ring edge ``e_k = order[k] -> order[k+1]``."""
    p = len(order)
    routes = []
    for k in range(p):
        a, b = order[k], order[(k + 1) % p]
        step = 1 if b > a else -1
        routes.append([lane[pos] for pos in range(a, b + step, step)])
    return routes


def _color_edges(routes: List[List[int]], palette: Sequence[int]) -> List[int]:
    """Greedy conflict coloring: edges sharing any router get distinct colors."""
    touched: Dict[int, List[int]] = {}
    for k, route in enumerate(routes):
        for pe in route:
            touched.setdefault(pe, []).append(k)
    coloring = [-1] * len(routes)
    for k in range(len(routes)):
        banned = set()
        for pe in routes[k]:
            for other in touched[pe]:
                if coloring[other] >= 0:
                    banned.add(coloring[other])
        for color in palette:
            if color not in banned:
                coloring[k] = color
                break
        else:
            raise ValueError(
                f"ring edge coloring needs more than {len(palette)} colors"
            )
    return coloring


def ring_allreduce_schedule(
    grid: Grid,
    b: int,
    row: int = 0,
    length: int | None = None,
    mapping: str = "simple",
    palette: Sequence[int] = (0, 1, 2, 3, 4, 5),
    name: str | None = None,
    lane: Sequence[int] | None = None,
    validate: bool = True,
) -> Schedule:
    """Ring AllReduce over one grid row (or an explicit ``lane``); every
    participating PE ends with the full sum.

    Requires ``b`` divisible by the ring size (the classic algorithm's
    chunking; the public API pads otherwise).
    """
    if lane is None:
        lane = [
            grid.index(row, c)
            for c in range(grid.cols if length is None else length)
        ]
    validate_lane(grid, lane)
    p = len(lane)
    if p < 2:
        raise ValueError("ring AllReduce needs at least 2 PEs")
    if b % p != 0:
        raise ValueError(f"vector length {b} not divisible by ring size {p}")
    chunk = b // p

    order = ring_order(p, mapping)
    routes = _edge_routes(order, lane)
    colors = _color_edges(routes, palette)

    schedule = Schedule(
        grid=grid,
        buffer_size=b,
        name=name or f"ring-allreduce-{mapping}",
    )

    # Static router rules per edge.
    for k, route in enumerate(routes):
        color = colors[k]
        for idx, pe in enumerate(route):
            prog = schedule.program(pe)
            rules = prog.router.setdefault(color, [])
            if idx == 0:
                accept: int = Port.RAMP
            else:
                accept = grid.step_port(pe, route[idx - 1])
            if idx == len(route) - 1:
                forward: Tuple[int, ...] = (Port.RAMP,)
            else:
                forward = (grid.step_port(pe, route[idx + 1]),)
            rule = RouterRule(accept=accept, forward=forward, count=None)
            for existing in rules:
                if existing.accept != rule.accept or existing.forward != rule.forward:
                    raise ValueError(
                        f"conflicting static ring rules on PE {pe}, color {color}"
                    )
            if not rules:
                rules.append(rule)

    # Per-PE rounds.  Ring index of each lane position:
    ring_index = {order[k]: k for k in range(p)}
    for pos in range(p):
        pe = lane[pos]
        k = ring_index[pos]
        send_color = colors[k]
        recv_color = colors[(k - 1) % p]
        prog = schedule.program(pe)
        # reduce-scatter: after round r, chunk (k - r) mod p has been sent.
        for r in range(p - 1):
            send_chunk = (k - r) % p
            recv_chunk = (k - 1 - r) % p
            prog.ops.append(
                SendRecv(
                    send_color=send_color,
                    recv_color=recv_color,
                    length=chunk,
                    send_offset=send_chunk * chunk,
                    recv_offset=recv_chunk * chunk,
                    combine=True,
                )
            )
        # allgather: forward the fully reduced chunks around.
        for r in range(p - 1):
            send_chunk = (k + 1 - r) % p
            recv_chunk = (k - r) % p
            prog.ops.append(
                SendRecv(
                    send_color=send_color,
                    recv_color=recv_color,
                    length=chunk,
                    send_offset=send_chunk * chunk,
                    recv_offset=recv_chunk * chunk,
                    combine=False,
                )
            )
    if validate:
        schedule.validate()
    return schedule
