"""Pre-order reduction trees (Section 5.5, Figure 6).

A reduction execution on a row of ``P`` PEs is described by a tree whose
vertices are the PEs labelled in pre-order: the subtree of every vertex
covers a contiguous interval of PEs, vertex ``v``'s children partition
``[v+1, v+size)`` left to right, and ``v`` receives its children's messages
in that order (the rightmost child's message arrives last and is streamed
through ``v``'s own send).  Star, Chain, binomial Tree and Two-Phase are
all special cases; the Auto-Gen tree is reconstructed from the DP of
:mod:`repro.autogen.dp`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

import numpy as np

from ..model.costs import equation_1
from ..model.params import CS2, MachineParams
from .dp import AutogenSolution, autogen_best_params, autogen_tables

__all__ = [
    "ReductionTree",
    "autogen_tree",
    "Message",
    "star_tree",
    "chain_tree",
    "binomial_tree",
    "two_phase_tree",
    "TREE_BUILDERS",
]


@dataclass(frozen=True)
class Message:
    """One tree edge: ``src`` sends its subtree's partial sum to ``dst``."""

    src: int
    dst: int

    @property
    def span(self) -> Tuple[int, int]:
        """Closed interval of PE positions the message traverses."""
        return (min(self.src, self.dst), max(self.src, self.dst))


@dataclass
class ReductionTree:
    """A reduction tree over PEs ``0 .. p-1`` with root ``0``.

    ``children[v]`` lists ``v``'s children in receive order (first received
    first).  The structural invariants required by the paper — pre-order
    labelling, contiguous subtrees, in-order receives — are enforced by
    :meth:`validate`, which every builder calls.
    """

    p: int
    children: List[List[int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if not self.children:
            self.children = [[] for _ in range(self.p)]
        if len(self.children) != self.p:
            raise ValueError(
                f"children has {len(self.children)} entries for p={self.p}"
            )

    # -- structural queries -------------------------------------------------

    def parent_array(self) -> np.ndarray:
        """Parent of each vertex (root maps to -1)."""
        parent = np.full(self.p, -1, dtype=np.int64)
        for v, kids in enumerate(self.children):
            for c in kids:
                parent[c] = v
        return parent

    def subtree_sizes(self) -> np.ndarray:
        """Number of vertices in each subtree (computed leaves-up)."""
        sizes = np.ones(self.p, dtype=np.int64)
        for v in range(self.p - 1, -1, -1):
            for c in self.children[v]:
                sizes[v] += sizes[c]
        return sizes

    def depths(self) -> np.ndarray:
        """Distance (in tree edges) of each vertex from the root."""
        depth = np.zeros(self.p, dtype=np.int64)
        for v in range(self.p):
            for c in self.children[v]:
                depth[c] = depth[v] + 1
        return depth

    def depth(self) -> int:
        """Tree depth = the paper's depth cost term ``D``."""
        return int(self.depths().max()) if self.p > 1 else 0

    def contention(self) -> int:
        """Maximum number of messages any PE receives (``C`` for B = 1)."""
        if self.p == 1:
            return 0
        return max(len(kids) for kids in self.children)

    def energy(self) -> int:
        """Total scalar energy: sum of hop distances of all messages."""
        return sum(m.src - m.dst for m in self.messages())

    def messages(self) -> Iterator[Message]:
        """All tree edges as messages (unordered)."""
        for v in range(self.p):
            for c in self.children[v]:
                yield Message(src=c, dst=v)

    def message_post_order(self) -> List[Message]:
        """Messages in execution (completion) order.

        A vertex's message is sent only after the messages of all its
        children, and children complete in receive order — i.e. a
        post-order traversal with children visited left to right.  This is
        the order in which streams cross any given router, and therefore
        the order of that router's configuration sequence.
        """
        # Iterative: a chain is p - 1 levels deep, past Python's recursion
        # limit at paper scale.  Each stack entry is (vertex, next child).
        order: List[Message] = []
        stack = [(0, 0)]
        while stack:
            v, k = stack[-1]
            kids = self.children[v]
            if k < len(kids):
                stack[-1] = (v, k + 1)
                stack.append((kids[k], 0))
                continue
            stack.pop()
            if stack:
                order.append(Message(src=v, dst=stack[-1][0]))
        return order

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        """Check all structural invariants; raise ``ValueError`` if violated.

        * every non-root vertex has exactly one parent;
        * pre-order labelling: each subtree covers a contiguous interval and
          children intervals partition ``[v+1, v+size)`` in increasing order;
        * no vertex index out of range or duplicated.
        """
        seen = np.zeros(self.p, dtype=bool)
        seen[0] = True
        for v, kids in enumerate(self.children):
            for c in kids:
                if not 0 < c < self.p:
                    raise ValueError(f"child {c} of {v} out of range")
                if seen[c]:
                    raise ValueError(f"vertex {c} has multiple parents")
                seen[c] = True
        if not seen.all():
            missing = np.flatnonzero(~seen)
            raise ValueError(f"unreachable vertices: {missing.tolist()}")

        sizes = self.subtree_sizes()
        for v, kids in enumerate(self.children):
            cursor = v + 1
            for c in kids:
                if c != cursor:
                    raise ValueError(
                        f"children of {v} are not in pre-order: expected "
                        f"child interval to start at {cursor}, got {c}"
                    )
                cursor += sizes[c]
            if cursor != v + sizes[v]:
                raise ValueError(
                    f"subtree of {v} is not contiguous: covers up to "
                    f"{cursor - 1}, size says {v + sizes[v] - 1}"
                )

    # -- model evaluation -------------------------------------------------------

    def model_time(self, b, params: MachineParams = CS2):
        """Equation-(1) runtime of executing this tree on a ``b``-vector.

        Uses the Auto-Gen synthesis (§5.5): westward links only, so
        ``N = P - 1``; the distance term is the ``P - 1`` hops of the
        rightmost PE's data.  An array of vector lengths gives an array
        of times (for ``P > 1``).
        """
        if self.p == 1:
            return 0.0
        if np.any(np.asarray(b) < 1):
            raise ValueError(f"b must be >= 1, got {b}")
        t = equation_1(b * self.energy(), self.p - 1, self.depth(),
                       b * self.contention(), self.p - 1, params)
        return float(t) if np.ndim(t) == 0 else t

    def describe(self) -> str:
        """One-line summary used by examples and reports."""
        return (
            f"ReductionTree(p={self.p}, depth={self.depth()}, "
            f"contention={self.contention()}, energy={self.energy()})"
        )


# ---------------------------------------------------------------------------
# Fixed-pattern trees (Section 5.1-5.4): special cases of the pre-order
# formulation, used both as collectives in their own right and as hybrid
# candidates for the Auto-Gen search (the DP "generalizes every algorithm
# we have presented so far").
# ---------------------------------------------------------------------------


def star_tree(p: int) -> ReductionTree:
    """All PEs send directly to the root (Lemma 5.1, Figure 5a)."""
    tree = ReductionTree(p=p)
    tree.children[0] = list(range(1, p))
    tree.validate()
    return tree


def chain_tree(p: int) -> ReductionTree:
    """A path ``p-1 -> ... -> 0`` (Lemma 5.2, the vendor pattern)."""
    tree = ReductionTree(p=p)
    for v in range(p - 1):
        tree.children[v] = [v + 1]
    tree.validate()
    return tree


def binomial_tree(p: int) -> ReductionTree:
    """Binomial tree of the round-halving Tree Reduce (Lemma 5.3).

    ``v``'s children are ``v + 1, v + 2, v + 4, ...`` within ``v``'s block,
    received in that order — the in-order rounds of Figure 5c, valid for
    any ``p``.
    """
    tree = ReductionTree(p=p)

    # Recursion depth is the tree depth, ceil(log2 p): safe at any scale.
    def build(base: int, size: int) -> None:
        offset = 1
        while offset < size:
            child = base + offset
            block = min(offset, size - offset)
            tree.children[base].append(child)
            build(child, block)
            offset *= 2

    build(0, p)
    tree.validate()
    return tree


def two_phase_tree(p: int, group_size: int | None = None) -> ReductionTree:
    """Two-Phase Reduce (Lemma 5.4, Figure 5d).

    Groups of ``S`` consecutive PEs are carved from the right end
    (``S = sqrt(P)`` by default); each group chain-reduces to its leftmost
    PE, and the leaders (plus the root's leftover group) chain towards PE
    0.  A leader receives its own group first and streams the next
    leader's message through its send — the phase overlap of Figure 5d.
    """
    from ..model.analytic import two_phase_group_size

    s = two_phase_group_size(p) if group_size is None else group_size
    if not 1 <= s <= max(p, 1):
        raise ValueError(f"group size {s} out of range for p={p}")
    tree = ReductionTree(p=p)

    leaders = []
    first = p - s
    while first > 0:
        leaders.append(first)
        first -= s
    leaders.reverse()

    def add_group_chain(leader: int, size: int) -> None:
        for v in range(leader, leader + size - 1):
            tree.children[v].append(v + 1)

    root_group = leaders[0] if leaders else p
    add_group_chain(0, root_group)
    for idx, leader in enumerate(leaders):
        size = (leaders[idx + 1] if idx + 1 < len(leaders) else p) - leader
        add_group_chain(leader, size)
        parent = leaders[idx - 1] if idx > 0 else 0
        tree.children[parent].append(leader)
    tree.validate()
    return tree


#: Builders keyed by the paper's algorithm names (Auto-Gen is separate
#: because it also depends on ``b``; see
#: :func:`repro.autogen.hybrid.best_reduce_tree`).
TREE_BUILDERS = {
    "star": star_tree,
    "chain": chain_tree,
    "tree": binomial_tree,
    "two_phase": two_phase_tree,
}


def autogen_tree(
    p: int,
    b: int,
    params: MachineParams = CS2,
    d_max: int | None = None,
    c_max: int | None = None,
) -> Tuple[ReductionTree, AutogenSolution]:
    """Reconstruct the optimal Auto-Gen tree for ``(P, B)``.

    Backtracks through the DP of :func:`repro.autogen.dp.autogen_tables`:
    at state ``(p, d, c)`` the minimizing split ``i`` makes the rightmost
    ``p - i`` PEs a depth-``(d-1)`` subtree whose root (at offset ``i``)
    becomes the *last* child of the current root, while the leftmost ``i``
    PEs recurse with contention budget ``c - 1``.
    """
    sol = autogen_best_params(p, b, params, d_max, c_max)
    tree = ReductionTree(p=p)
    if p == 1:
        return tree, sol

    table = autogen_tables(p, d_max, c_max)

    # Each call lowers d or c by one, so recursion depth is at most d + c:
    # about 8 sqrt(p) at the default caps.  Uncapped tables deep enough to
    # reach the recursion limit would not fit in memory.
    def split(base: int, size: int, d: int, c: int) -> None:
        """Attach the subtree structure for PEs [base, base+size)."""
        if size == 1:
            return
        i = np.arange(1, size)
        cand = (
            table[d, c - 1, 1:size]
            + i
            + table[d - 1, c, size - 1 : 0 : -1]
        )
        best = int(np.argmin(cand)) + 1
        if not np.isfinite(cand[best - 1]):
            raise RuntimeError(
                f"infeasible DP state (p={size}, d={d}, c={c}); "
                "caps too tight for reconstruction"
            )
        # Left part: same root, one less message allowed.
        split(base, best, d, c - 1)
        # Right part: rooted at base+best, one less depth, attached last.
        tree.children[base].append(base + best)
        split(base + best, size - best, d - 1, c)

    split(0, p, sol.depth, sol.contention)
    tree.validate()
    return tree, sol
