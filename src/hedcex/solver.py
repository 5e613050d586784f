"""Exact decision searches with node budgets and three-valued verdicts.

Every search answers ``some`` (witness found), ``none`` (exhaustive proof of
nonexistence) or ``exhausted`` (node budget hit first).  ``exhausted`` is
never collapsed into ``none``; callers must treat it as "no verdict".

Colorability is backtracking with forward checking on int32 neighbor arrays:
the graph's cached CSR form (``ptr``/``dst`` of ``graphs.neighbor_arrays``).
The graphs searched are the H of a counterexample (at most 165 vertices)
and the census graphs (at most 300 at its defaults).  Every vertex keeps a
domain bitmask; coloring a vertex removes its color from its uncolored
neighbors' domains, an empty domain refutes the branch and a one-color
domain is colored at once (singleton propagation).  A maximal greedy clique
is pre-colored the same way.  The search branches on the smallest domain,
ties broken by lowest vertex index, trying colors ascending and capped at
one fresh color beyond those already in use (interchangeable-color
symmetry), as DSATUR (Brelaz 1979) does.  Before the first branch and after
each, the undecided vertices of the current subproblem are split into
connected components by one plain search per seed, each solved on its own
(component search as in Bayardo & Pehoushek, AAAI 2000), smallest first: one
component with no coloring refutes the branch, and a component already
solved is never searched again.  The budget is a node count, so with
identical inputs and budgets the transcript (verdict, node count, witness,
reason) is identical run to run, on any machine.

The components live in one table, a row (parent, vertices ascending) per
component, and the branching vertex is found by scanning its component's
row.  On graphs of a few hundred vertices that beats a priority queue; a
long sparse graph that branches pays the component's order per branch
(a 20,000-vertex path at 3 colors takes tens of seconds); a split walks
the component once more, edges included.

The search keeps its own explicit stack and trail, so search depth is
bounded by memory, not by the interpreter's recursion limit, and memory
grows with the trail, not with depth times order.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, edge_arrays, neighbor_arrays

__all__ = [
    "SOME",
    "NONE",
    "EXHAUSTED",
    "SearchBudget",
    "ColoringResult",
    "greedy_clique",
    "find_coloring",
    "verify_coloring",
]

SOME = "some"
NONE = "none"
EXHAUSTED = "exhausted"

MAX_COLORS = 62  # color sets live in machine-word bitmasks


@dataclass(frozen=True)
class SearchBudget:
    """The node limit of one exact search; the default fits the shipped
    pipelines."""

    node_limit: int = 100_000_000


DEFAULT_BUDGET = SearchBudget()


@dataclass
class ColoringResult:
    status: str
    colors: int
    assignment: list[int] | None
    nodes: int
    reason: str | None = None


class _BudgetHit(Exception):
    """The node count passed the budget's limit."""


def _neighbor_arrays(g: Graph) -> tuple[array, array]:
    """``neighbor_arrays(g)`` as int32 ``array`` objects, whose items index
    faster from Python than numpy scalars do."""
    ptr, dst = neighbor_arrays(g)
    return array("i", ptr.tobytes()), array("i", dst.tobytes())


def _clique_from(ptr: array, dst: array) -> list[int]:
    # a vertex joins iff every member so far is its neighbor, tracked as a
    # per-vertex count of adjacent members
    degree = np.diff(np.frombuffer(ptr, dtype=np.int32))
    touching = [0] * degree.size
    clique: list[int] = []
    for v in np.argsort(-degree, kind="stable").tolist():
        if touching[v] == len(clique):
            clique.append(v)
            for u in dst[ptr[v] : ptr[v + 1]]:
                touching[u] += 1
    return clique


def greedy_clique(g: Graph) -> list[int]:
    """Maximal clique grown greedily by descending degree, ties low index."""
    return _clique_from(*_neighbor_arrays(g))


def verify_coloring(g: Graph, assignment: list[int], c: int) -> bool:
    """Linear scan, independent of the search: proper c-coloring or not."""
    if len(assignment) != g.n:
        return False
    if g.n == 0:
        return True
    arr = np.asarray(assignment, dtype=np.int64)
    if arr.min() < 1 or arr.max() > c:
        return False
    eu, ev = edge_arrays(g)
    return bool(np.all(np.take(arr, eu) != np.take(arr, ev)))


def find_coloring(g: Graph, c: int, budget: SearchBudget = DEFAULT_BUDGET) -> ColoringResult:
    """Decide c-colorability exactly, within the budget.

    A graph with a loop is immediately uncolorable for every c, and a zero
    node limit returns ``exhausted`` before any work.  The node count tallies
    color assignments: the clique pre-coloring, every branch and every color
    forced by propagation.
    """
    if c < 0:
        raise ValueError("color count must be nonnegative")
    if c > MAX_COLORS:
        raise ValueError(f"color count above supported {MAX_COLORS}")
    if g.has_loop():
        return ColoringResult(NONE, c, None, 0, reason="loop")
    if g.n == 0:
        return ColoringResult(SOME, c, [], 0)
    if c == 0:
        return ColoringResult(NONE, c, None, 0, reason="no-colors")
    if budget.node_limit <= 0:
        return ColoringResult(EXHAUSTED, c, None, 0, reason="nodes")

    ptr, dst = _neighbor_arrays(g)
    clique = _clique_from(ptr, dst)
    if len(clique) > c:
        return ColoringResult(NONE, c, None, 0, reason="clique")

    n = g.n
    limit = budget.node_limit
    nodes = 0
    color = [0] * n
    dom = [(1 << (c + 1)) - 2] * n  # bit k set iff color k is still allowed
    comp = [0] * n  # component of each uncolored vertex
    # comps[cid] = (parent cid, vertices ascending): row 0 is the whole graph
    # and every split appends one row per component it peels off; undo
    # truncates the table, handing each dropped row's vertices back
    comps: list[tuple[int, list[int]]] = [(0, list(range(n)))]
    # trail entries: ``u << 6 | k`` removed color k from dom[u]; ``~v``
    # colored v
    trail: list[int] = []
    seen = [0] * n  # search stamp, so no per-split clearing
    stamp = 0
    forced: list[int] = []
    touched: list[int] = []  # uncolored neighbors of newly colored vertices

    def assign(v: int, col: int) -> bool:
        # color v, drop col from its uncolored neighbors' domains and queue
        # the ones left with one color; False on a wiped-out domain
        nonlocal nodes
        nodes += 1
        if nodes > limit:
            raise _BudgetHit
        color[v] = col
        trail.append(~v)
        bit = 1 << col
        for u in dst[ptr[v] : ptr[v + 1]]:
            if color[u]:
                continue
            touched.append(u)
            d = dom[u]
            if d & bit:
                d ^= bit
                dom[u] = d
                trail.append(u << 6 | col)
                if not d:
                    return False
                if not d & (d - 1):
                    forced.append(u)
        return True

    def propagate(v: int, col: int) -> int:
        # assign v, then every singleton domain that follows; returns the
        # highest color placed, or 0 on a wipe-out
        forced.clear()
        touched.clear()
        if not assign(v, col):
            return 0
        top = col
        for u in forced:  # grows while it is walked
            if not color[u]:
                k = dom[u].bit_length() - 1
                if not assign(u, k):
                    return 0
                top = max(top, k)
        return top

    def undo(trail_mark: int, comp_mark: int) -> None:
        while len(trail) > trail_mark:
            e = trail.pop()
            if e < 0:
                color[~e] = 0
            else:
                dom[e >> 6] |= 1 << (e & 63)
        while len(comps) > comp_mark:
            parent, members = comps.pop()
            for u in members:
                comp[u] = parent

    def pick(cid: int) -> int:
        # smallest domain, lowest index: the members ascend, so the first
        # vertex of the smallest size wins; -1 once all are colored
        best, size = -1, c + 1
        for v in comps[cid][1]:
            if not color[v] and comp[v] == cid and (k := dom[v].bit_count()) < size:
                best, size = v, k
        return best

    def peel(cid: int, members: list[int]) -> int:
        new = len(comps)
        for u in members:
            comp[u] = new
        members.sort()
        comps.append((cid, members))
        return new

    def split(cid: int) -> list[int]:
        """Move the components of cid's undecided vertices that the branch
        just cut off to new ids and return those, smallest last; cid keeps
        the first largest.

        Every new component holds a seed (an uncolored neighbor of a newly
        colored vertex, or at the root any vertex), so one search from each
        seed not yet reached finds them all.  The split stops as soon as the
        first search has reached every seed: there is one component and
        nothing moves.  A split walks the component at most once, as ``pick``
        scans it on every branch anyway.
        """
        nonlocal stamp
        seeds = [u for u in dict.fromkeys(touched) if not color[u]]
        if len(seeds) < 2:
            return []
        stamp += 1
        unreached = set(seeds[1:])  # seeds the first search has not reached
        parts: list[list[int]] = []
        for s in seeds:
            if seen[s] == stamp:
                continue
            seen[s] = stamp
            part = [s]
            for x in part:  # grows while it is walked
                for u in dst[ptr[x] : ptr[x + 1]]:
                    if not color[u] and seen[u] != stamp:
                        seen[u] = stamp
                        part.append(u)
                        if not parts and u in unreached:
                            unreached.remove(u)
                            if not unreached:
                                return []  # one component
            parts.append(part)
        parts.sort(key=len, reverse=True)  # stable: ties keep seed order
        return [peel(cid, part) for part in parts[1:]]

    # One frame per branch: [vertex, untried colors, component, parent frame,
    # colors in use, trail mark, component table length, todo mark].  todo
    # holds the components still to solve as (component, frame that split it
    # off, colors in use there); a component that fails sends the search back
    # to that frame, past any sibling already solved.
    stack: list[list[int]] = []
    todo: list[tuple[int, int, int]] = []
    try:
        for i, v in enumerate(clique):
            # only the last member can have been forced, and then to i + 1
            if not color[v] and not (dom[v] >> (i + 1) & 1 and propagate(v, i + 1)):
                return ColoringResult(NONE, c, None, nodes, reason="search")
        # every vertex seeds the root split, which finds what the clique left
        touched[:] = range(n)
        used = max(color)
        todo = [(0, -1, used)] + [(k, -1, used) for k in split(0)]

        while todo:
            cid, parent, used = todo.pop()
            v = pick(cid)
            if v < 0:
                continue  # nothing left to color
            cap = min(c, used + 1)
            stack.append(
                [v, dom[v] & ((2 << cap) - 2), cid, parent, used, len(trail), len(comps), len(todo)]
            )
            while True:
                frame = stack[-1]
                v, avail, cid, parent, used, trail_mark, comp_mark, todo_mark = frame
                undo(trail_mark, comp_mark)
                del todo[todo_mark:]
                if not avail:
                    if parent < 0:
                        return ColoringResult(NONE, c, None, nodes, reason="search")
                    del stack[parent + 1 :]
                    continue
                bit = avail & -avail
                frame[1] = avail ^ bit
                top = propagate(v, bit.bit_length() - 1)
                if top:
                    here, used = len(stack) - 1, max(used, top)
                    todo.append((cid, here, used))
                    todo.extend((k, here, used) for k in split(cid))
                    break
    except _BudgetHit:
        return ColoringResult(EXHAUSTED, c, None, nodes, reason="nodes")

    witness = list(color)
    if not verify_coloring(g, witness, c):  # defensive; scan is independent
        raise RuntimeError("search produced an improper coloring")
    return ColoringResult(SOME, c, witness, nodes)
