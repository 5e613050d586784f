"""Exact decision searches with node budgets and three-valued verdicts.

Every search answers ``some`` (witness found), ``none`` (exhaustive proof of
nonexistence) or ``exhausted`` (node budget hit first).  ``exhausted`` is
never collapsed into ``none``; callers must treat it as "no verdict".

Colorability is backtracking with forward checking on plain adjacency
lists, each vertex's neighbors ascending, built once per search.
The graphs searched are the H of a counterexample (at most 165 vertices)
and the census graphs (at most 300 at its defaults).  Every vertex keeps a
domain bitmask; coloring a vertex removes its color from its uncolored
neighbors' domains, an empty domain refutes the branch and a one-color
domain is colored at once (singleton propagation).  A maximal greedy clique
is pre-colored the same way; that is the one place interchangeable-color
symmetry is broken.  The search branches on the smallest domain, ties
broken by lowest vertex index, as DSATUR (Brelaz 1979) does, and each
branch tries every color left in its vertex's domain, ascending.  Before
the first branch and after each, the undecided vertices of the current
subproblem are split into connected components by one plain search per
seed, each solved on its own (component search as in Bayardo & Pehoushek,
AAAI 2000), smallest first: one component with no coloring refutes the
branch, and a component already solved is never searched again.  The
budget is a node count, so with identical inputs and budgets the transcript
(verdict, node count, witness, reason) is identical run to run, on any
machine.

A component is carried as its vertex list, ascending, and the branching
vertex is found by scanning that list; a split that leaves one part hands
the list on unchanged, colored vertices and all.  On graphs of a few
hundred vertices that beats a priority queue; a long sparse graph that
branches pays the component's order per branch, so its cost is quadratic
(a 20,000-vertex path at 3 colors takes 13 to 20 s on one core of a
2-vCPU machine); a split walks the part once more, edges included, and
sorts each part it finds.

The search keeps its own explicit stack and trail, so search depth is
bounded by memory, not by the interpreter's recursion limit, and memory
grows with the trail, not with depth times order.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .graphs import Graph

__all__ = [
    "SOME",
    "NONE",
    "EXHAUSTED",
    "SearchBudget",
    "ColoringResult",
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
    assignment: list[int] | None
    nodes: int
    reason: str | None = None


class _BudgetHit(Exception):
    """The node count passed the budget's limit."""


def _neighbor_lists(g: Graph) -> list[list[int]]:
    """The neighbors of each vertex of ``g``, ascending, a loop listed once.

    The edges come ascending with u <= v, so each list is appended in order.
    """
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges():
        adj[u].append(v)
        if u != v:
            adj[v].append(u)
    return adj


def _clique_from(adj: list[list[int]]) -> list[int]:
    """Maximal clique grown greedily by descending degree, ties low index,
    on the lists of ``_neighbor_lists``."""
    # a vertex joins iff every member so far is its neighbor, tracked as a
    # per-vertex count of adjacent members
    touching = [0] * len(adj)
    clique: list[int] = []
    for v in sorted(range(len(adj)), key=lambda v: -len(adj[v])):
        if touching[v] == len(clique):
            clique.append(v)
            for u in adj[v]:
                touching[u] += 1
    return clique


def verify_coloring(g: Graph, assignment: list[int], c: int) -> bool:
    """Linear scan, independent of the search: proper c-coloring or not."""
    if len(assignment) != g.n or not all(1 <= col <= c for col in assignment):
        return False
    return all(assignment[u] != assignment[v] for u, v in g.edges())


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
        return ColoringResult(NONE, None, 0, reason="loop")
    if g.n == 0:
        return ColoringResult(SOME, [], 0)
    if c == 0:
        return ColoringResult(NONE, None, 0, reason="no-colors")
    if budget.node_limit <= 0:
        return ColoringResult(EXHAUSTED, None, 0, reason="nodes")

    adj = _neighbor_lists(g)
    clique = _clique_from(adj)
    if len(clique) > c:
        return ColoringResult(NONE, None, 0, reason="clique")

    n = g.n
    limit = budget.node_limit
    nodes = 0
    color = [0] * n
    dom = [(1 << (c + 1)) - 2] * n  # bit k set iff color k is still allowed
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
        for u in adj[v]:
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

    def propagate(v: int, col: int) -> bool:
        # assign v, then every singleton domain that follows; False on a
        # wipe-out
        forced.clear()
        touched.clear()
        if not assign(v, col):
            return False
        for u in forced:  # grows while it is walked
            if not color[u] and not assign(u, dom[u].bit_length() - 1):
                return False
        return True

    def undo(trail_mark: int) -> None:
        while len(trail) > trail_mark:
            e = trail.pop()
            if e < 0:
                color[~e] = 0
            else:
                dom[e >> 6] |= 1 << (e & 63)

    def pick(members: list[int]) -> int:
        # smallest domain, lowest index: the members ascend, so the first
        # vertex of the smallest size wins; -1 once all are colored
        best, size = -1, c + 1
        for v in members:
            if not color[v] and (k := dom[v].bit_count()) < size:
                best, size = v, k
        return best

    def split(members: list[int], seeds: Iterable[int]) -> list[list[int]]:
        """The parts the uncolored vertices of component ``members`` fall
        into, each ascending, largest first (ties in seed order); the list
        ``[members]`` itself when they form one part.

        Every part holds a seed (an uncolored neighbor of a newly colored
        vertex, or at the root any vertex), so one search from each seed not
        yet reached finds them all.  The split stops as soon as the first
        search has reached every seed: there is one part.  A split walks the
        component at most once, as ``pick`` scans it on every branch anyway.
        """
        nonlocal stamp
        seeds = [u for u in dict.fromkeys(seeds) if not color[u]]
        if len(seeds) < 2:
            return [members]
        stamp += 1
        unreached = set(seeds[1:])  # seeds the first search has not reached
        parts: list[list[int]] = []
        for s in seeds:
            if seen[s] == stamp:
                continue
            seen[s] = stamp
            part = [s]
            for x in part:  # grows while it is walked
                for u in adj[x]:
                    if not color[u] and seen[u] != stamp:
                        seen[u] = stamp
                        part.append(u)
                        if not parts and u in unreached:
                            unreached.remove(u)
                            if not unreached:
                                return [members]  # one part
            parts.append(sorted(part))
        parts.sort(key=len, reverse=True)  # stable: ties keep seed order
        return parts

    # One frame per branch: [vertex, untried colors, component, parent frame,
    # trail mark, todo mark]; the untried colors start as the vertex's whole
    # domain.  todo holds the components still to solve as (component, frame
    # that split it off); a component that fails sends the search back to
    # that frame, past any sibling already solved.
    stack: list[list] = []
    todo: list[tuple[list[int], int]] = []
    try:
        for i, v in enumerate(clique):
            # only the last member can have been forced, and then to i + 1
            if not color[v] and not (dom[v] >> (i + 1) & 1 and propagate(v, i + 1)):
                return ColoringResult(NONE, None, nodes, reason="search")
        # every vertex seeds the root split, which finds what the clique left
        todo = [(part, -1) for part in split(list(range(n)), range(n))]

        while todo:
            members, parent = todo.pop()
            v = pick(members)
            if v < 0:
                continue  # nothing left to color
            stack.append([v, dom[v], members, parent, len(trail), len(todo)])
            while True:
                frame = stack[-1]
                v, avail, members, parent, trail_mark, todo_mark = frame
                undo(trail_mark)
                del todo[todo_mark:]
                if not avail:
                    if parent < 0:
                        return ColoringResult(NONE, None, nodes, reason="search")
                    del stack[parent + 1 :]
                    continue
                bit = avail & -avail
                frame[1] = avail ^ bit
                if propagate(v, bit.bit_length() - 1):
                    todo.extend((part, len(stack) - 1) for part in split(members, touched))
                    break
    except _BudgetHit:
        return ColoringResult(EXHAUSTED, None, nodes, reason="nodes")

    witness = list(color)
    if not verify_coloring(g, witness, c):  # defensive; scan is independent
        raise RuntimeError("search produced an improper coloring")
    return ColoringResult(SOME, witness, nodes)
