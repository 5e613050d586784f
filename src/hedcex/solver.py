"""Exact decision searches with explicit budgets and three-valued verdicts.

Every search answers ``some`` (witness found), ``none`` (exhaustive proof of
nonexistence) or ``exhausted`` (budget hit first).  ``exhausted`` is never
collapsed into ``none``; callers must treat it as "no verdict".

Colorability is DSATUR (Brelaz 1979) backtracking on int32 neighbor arrays:
the edge arrays are turned once per search into CSR form (``ptr``/``dst``),
so a search over a host with tens of thousands of vertices never needs the
graph's bitset rows.  It branches on the uncolored vertex seeing the most
distinct neighbor colors, ties broken by lowest vertex index (kept in one
lazily cleaned heap per saturation level), tries candidate colors ascending
and capped at one fresh color beyond those already in use
(interchangeable-color symmetry).  A maximal greedy clique is pre-colored
first unless the budget disables it.  With identical inputs and budgets the
transcript (verdict, node count, witness, reason) is identical run to run.

Homomorphism search maps source vertices in a fixed connectivity-aware order
over the same neighbor arrays, with forward-checked target domains held as
bitmasks over the target's bitset rows, so the target must be small.
Coloring is the special case of a complete target, which the tests
cross-check.

Both searches keep their own explicit stack, so search depth is bounded by
memory, not by the interpreter's recursion limit.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

import numpy as np

from .graphs import Graph, edge_arrays

__all__ = [
    "SOME",
    "NONE",
    "EXHAUSTED",
    "SearchBudget",
    "ColoringResult",
    "HomResult",
    "ChromaticResult",
    "greedy_clique",
    "find_coloring",
    "chromatic_number",
    "find_homomorphism",
    "verify_coloring",
    "verify_homomorphism",
]

SOME = "some"
NONE = "none"
EXHAUSTED = "exhausted"

MAX_COLORS = 62  # color sets live in machine-word bitmasks


@dataclass(frozen=True)
class SearchBudget:
    """Limits for one exact search; defaults fit the shipped pipelines."""

    node_limit: int = 100_000_000
    time_limit: float = 600.0
    use_clique: bool = True


DEFAULT_BUDGET = SearchBudget()


@dataclass
class ColoringResult:
    status: str
    colors: int
    assignment: list[int] | None
    nodes: int
    reason: str | None = None


@dataclass
class HomResult:
    status: str
    mapping: list[int] | None
    nodes: int
    reason: str | None = None


@dataclass
class ChromaticResult:
    status: str  # "value" | "unknown" | "none_in_range" | "no_finite"
    value: int | None
    assignment: list[int] | None
    nodes: int
    decisions: list[tuple[int, str]] = field(default_factory=list)


class _BudgetHit(Exception):
    def __init__(self, which: str):
        self.which = which


class _Meter:
    """Node and wall-clock accounting shared by both searches."""

    __slots__ = ("nodes", "limit", "deadline", "started")

    def __init__(self, budget: SearchBudget):
        self.nodes = 0
        self.limit = budget.node_limit
        self.started = time.perf_counter()
        self.deadline = self.started + budget.time_limit

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.limit:
            raise _BudgetHit("nodes")
        if self.nodes & 1023 == 0 and time.perf_counter() > self.deadline:
            raise _BudgetHit("time")


def _neighbor_arrays(g: Graph) -> tuple[array, array]:
    """Symmetric adjacency of ``g`` in CSR form: the neighbors of ``v`` are
    ``dst[ptr[v]:ptr[v + 1]]``, ascending, with a loop listed once."""
    eu, ev = edge_arrays(g)
    inner = eu != ev
    # reversed arcs first: a stable sort by source then leaves each row's
    # smaller neighbors (from the reversed half) before its larger ones
    src = np.concatenate((ev[inner], eu))
    dst = np.concatenate((eu[inner], ev))
    order = np.argsort(src, kind="stable")
    ptr = np.zeros(g.n + 1, dtype=np.int32)
    np.cumsum(np.bincount(src, minlength=g.n), out=ptr[1:])
    return array("i", ptr.tobytes()), array("i", dst[order].tobytes())


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
    if eu.size == 0:
        return True
    return bool(np.all(arr[eu] != arr[ev]))


def verify_homomorphism(g: Graph, h: Graph, mapping: list[int]) -> bool:
    """Edge-preservation scan for a claimed map V(G) -> V(H)."""
    if len(mapping) != g.n:
        return False
    if any(not (0 <= t < h.n) for t in mapping):
        return False
    for u, v in g.edges():
        if not h.has_edge(mapping[u], mapping[v]):
            return False
    return True


def find_coloring(g: Graph, c: int, budget: SearchBudget = DEFAULT_BUDGET) -> ColoringResult:
    """Decide c-colorability exactly, within the budget.

    A graph with a loop is immediately uncolorable for every c.  The node
    count tallies color assignment attempts, including the clique
    pre-coloring.
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

    ptr, dst = _neighbor_arrays(g)
    clique: list[int] = []
    if budget.use_clique:
        clique = _clique_from(ptr, dst)
        if len(clique) > c:
            return ColoringResult(NONE, c, None, 0, reason="clique")

    meter = _Meter(budget)
    color = [0] * g.n
    forbid = [0] * g.n  # bit k set iff a colored neighbor has color k
    sat = [0] * g.n  # popcount of forbid
    # buckets[s] holds every uncolored vertex of saturation s, plus stale
    # entries that pick() discards when they surface; range(n) is a heap
    buckets: list[list[int]] = [list(range(g.n))] + [[] for _ in range(c)]
    trail: list[int] = []

    def pick() -> int:
        # highest saturation, lowest index: np.argmax over the saturations
        for s in range(c, -1, -1):
            heap = buckets[s]
            while heap:
                v = heap[0]
                if not color[v] and sat[v] == s:
                    return v
                heappop(heap)
        return -1

    def assign(v: int, col: int) -> int:
        meter.tick()
        color[v] = col
        bit = 1 << col
        mark = len(trail)
        for u in dst[ptr[v] : ptr[v + 1]]:
            if not color[u] and not forbid[u] & bit:
                forbid[u] |= bit
                s = sat[u] + 1
                sat[u] = s
                heappush(buckets[s], u)
                trail.append(u)
        return mark

    def retract(v: int, mark: int) -> None:
        bit = 1 << color[v]
        for u in trail[mark:]:
            forbid[u] ^= bit
            s = sat[u] - 1
            sat[u] = s
            heappush(buckets[s], u)
        del trail[mark:]
        color[v] = 0
        heappush(buckets[sat[v]], v)

    # one frame per branching vertex: [vertex, untried colors, used, mark]
    stack: list[list[int]] = []
    try:
        for i, v in enumerate(clique):
            assign(v, i + 1)
        used = len(clique)
        while (v := pick()) >= 0:
            cap = min(c, used + 1)
            stack.append([v, ~forbid[v] & ((1 << (cap + 1)) - 2), used, -1])  # bits 1..cap
            while stack:
                frame = stack[-1]
                v, avail, used, mark = frame
                if mark >= 0:
                    retract(v, mark)
                if not avail:
                    stack.pop()
                    continue
                low = avail & -avail
                frame[1] = avail ^ low
                col = low.bit_length() - 1
                frame[3] = assign(v, col)
                used = max(used, col)
                break
            else:
                return ColoringResult(NONE, c, None, meter.nodes, reason="search")
    except _BudgetHit as hit:
        return ColoringResult(EXHAUSTED, c, None, meter.nodes, reason=hit.which)

    witness = list(color)
    if not verify_coloring(g, witness, c):  # defensive; scan is independent
        raise RuntimeError("search produced an improper coloring")
    return ColoringResult(SOME, c, witness, meter.nodes)


def chromatic_number(
    g: Graph,
    lo: int = 1,
    hi: int | None = None,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> ChromaticResult:
    """Smallest c in [lo, hi] admitting a coloring, if the range resolves.

    Walks c upward, so a ``some`` at c together with ``none`` below it pins
    the value.  Any ``exhausted`` decision stops the walk with status
    ``unknown``; a graph with a loop reports ``no_finite``.
    """
    if g.has_loop():
        return ChromaticResult("no_finite", None, None, 0)
    if g.n == 0:
        return ChromaticResult("value", 0, [], 0)
    if hi is None:
        hi = g.n
    if not (0 <= lo <= hi):
        raise ValueError(f"bad range [{lo}, {hi}]")
    total = 0
    transcript: list[tuple[int, str]] = []
    for c in range(lo, hi + 1):
        res = find_coloring(g, c, budget)
        total += res.nodes
        transcript.append((c, res.status))
        if res.status == SOME:
            return ChromaticResult("value", c, res.assignment, total, transcript)
        if res.status == EXHAUSTED:
            return ChromaticResult("unknown", None, None, total, transcript)
    return ChromaticResult("none_in_range", None, None, total, transcript)


def _hom_order(ptr: array, dst: array) -> list[int]:
    # max degree first, then greedily the vertex with most ordered neighbors
    # (ties: higher degree, then lower index); keeps propagation connected.
    # Counts only grow, so a heap of (-count, -degree, v) whose stale entries
    # are skipped yields the maximum each time.
    n = len(ptr) - 1
    degree = [ptr[v + 1] - ptr[v] for v in range(n)]
    placed = [0] * n  # ordered neighbors of each vertex
    done = [False] * n
    heap = [(0, -degree[v], v) for v in range(n)]
    heapify(heap)
    order: list[int] = []
    while heap:
        count, _, v = heappop(heap)
        if done[v] or -count != placed[v]:
            continue
        done[v] = True
        order.append(v)
        for u in dst[ptr[v] : ptr[v + 1]]:
            if not done[u]:
                placed[u] += 1
                heappush(heap, (-placed[u], -degree[u], u))
    return order


def find_homomorphism(g: Graph, h: Graph, budget: SearchBudget = DEFAULT_BUDGET) -> HomResult:
    """Search for an edge-preserving map V(G) -> V(H), within the budget."""
    if g.n == 0:
        return HomResult(SOME, [], 0)
    if h.n == 0:
        return HomResult(NONE, None, 0, reason="empty-target")

    full = (1 << h.n) - 1
    looped = 0
    for t in range(h.n):
        if h.has_edge(t, t):
            looped |= 1 << t
    dom = [full] * g.n
    eu, ev = edge_arrays(g)
    for v in eu[eu == ev].tolist():
        dom[v] = looped
    if any(d == 0 for d in dom):
        return HomResult(NONE, None, 0, reason="loop-unmatchable")

    ptr, dst = _neighbor_arrays(g)
    order = _hom_order(ptr, dst)
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    mapping = [-1] * g.n
    meter = _Meter(budget)
    # per depth p: targets still to try for order[p], and the domains its
    # current target narrowed, to restore before the next one
    untried = [0] * g.n
    saved: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]

    try:
        p = 0
        untried[0] = dom[order[0]]
        while p >= 0:
            v = order[p]
            for u, d in saved[p]:
                dom[u] = d
            saved[p].clear()
            if not untried[p]:
                p -= 1
                continue
            low = untried[p] & -untried[p]
            untried[p] ^= low
            t = low.bit_length() - 1
            meter.tick()
            mapping[v] = t
            ok = True
            for u in dst[ptr[v] : ptr[v + 1]]:
                if pos[u] <= p:
                    continue
                nd = dom[u] & h.adj[t]
                if nd != dom[u]:
                    saved[p].append((u, dom[u]))
                    dom[u] = nd
                    if nd == 0:
                        ok = False
                        break
            if ok:
                p += 1
                if p == g.n:
                    break
                untried[p] = dom[order[p]]
    except _BudgetHit as hit:
        return HomResult(EXHAUSTED, None, meter.nodes, reason=hit.which)

    if p < 0:
        return HomResult(NONE, None, meter.nodes, reason="search")
    out = list(mapping)
    if not verify_homomorphism(g, h, out):
        raise RuntimeError("search produced a non-homomorphism")
    return HomResult(SOME, out, meter.nodes)
