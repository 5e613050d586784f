"""Slow reference implementations the tests check the fast code against.

Everything here favors being obviously right over being usable at scale:
plain backtracking with no ordering heuristics, dense numpy walk matrices,
and quadratic scans.  The exceptions are ``reference_coloring``, a recursive
DSATUR on bitset rows whose verdicts ``find_coloring`` must match, and
``reference_homomorphism``, the recursive bitset-row search whose exact
transcript (verdict, node count, witness, reason) the iterative
``find_homomorphism`` must reproduce.
"""

from __future__ import annotations

import time

import numpy as np

from hedcex.graphs import Graph, iter_bits
from hedcex.solver import (
    EXHAUSTED,
    MAX_COLORS,
    NONE,
    SOME,
    ColoringResult,
    HomResult,
    SearchBudget,
)


def brute_coloring(g: Graph, c: int) -> list[int] | None:
    """First proper c-coloring in vertex order, or None."""
    assignment = [0] * g.n

    def place(v: int) -> bool:
        if v == g.n:
            return True
        for color in range(1, c + 1):
            if any(assignment[u] == color for u in iter_bits(g.adj[v]) if u < v):
                continue
            if g.adj[v] >> v & 1:
                return False  # loop
            assignment[v] = color
            if place(v + 1):
                return True
        assignment[v] = 0
        return False

    return assignment if place(0) else None


def reference_greedy_clique(g: Graph) -> list[int]:
    """Maximal clique grown greedily by descending degree, ties low index,
    tested on bitset rows."""
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    clique: list[int] = []
    mask = 0
    for v in order:
        if mask & ~g.adj[v] == 0:
            clique.append(v)
            mask |= 1 << v
    return clique


class _Stop(Exception):
    def __init__(self, which: str):
        self.which = which


def reference_coloring(g: Graph, c: int, budget: SearchBudget = SearchBudget()) -> ColoringResult:
    """Recursive DSATUR on bitset rows, with no propagation or components.

    Branches on the uncolored vertex of highest saturation (``np.argmax``
    over a score of -1 once colored, so ties go to the lowest index), tries
    colors ascending up to one beyond those in use, and pre-colors the greedy
    clique.  Every assignment counts one node, and the search stops once the
    count passes the node limit.
    """
    if c < 0 or c > MAX_COLORS:
        raise ValueError("color count out of range")
    if any(row >> v & 1 for v, row in enumerate(g.adj)):
        return ColoringResult(NONE, c, None, 0, reason="loop")
    if g.n == 0:
        return ColoringResult(SOME, c, [], 0)
    if c == 0:
        return ColoringResult(NONE, c, None, 0, reason="no-colors")

    nodes = 0
    deadline = time.perf_counter() + budget.time_limit
    color = [0] * g.n
    forbid = [0] * g.n
    score = np.zeros(g.n, dtype=np.int32)  # -1 once colored, else saturation
    uncolored = (1 << g.n) - 1
    trail: list[int] = []

    def assign(v: int, col: int) -> int:
        nonlocal uncolored, nodes
        nodes += 1
        if nodes > budget.node_limit:
            raise _Stop("nodes")
        if nodes & 1023 == 0 and time.perf_counter() > deadline:
            raise _Stop("time")
        color[v] = col
        score[v] = -1
        uncolored ^= 1 << v
        bit = 1 << col
        mark = len(trail)
        for u in iter_bits(g.adj[v] & uncolored):
            if not forbid[u] & bit:
                forbid[u] |= bit
                score[u] += 1
                trail.append(u)
        return mark

    def retract(v: int, mark: int) -> None:
        nonlocal uncolored
        bit = 1 << color[v]
        while len(trail) > mark:
            u = trail.pop()
            forbid[u] ^= bit
            score[u] -= 1
        color[v] = 0
        uncolored |= 1 << v
        score[v] = forbid[v].bit_count()

    clique: list[int] = []
    if budget.use_clique:
        clique = reference_greedy_clique(g)
        if len(clique) > c:
            return ColoringResult(NONE, c, None, 0, reason="clique")

    def solve(used: int) -> bool:
        v = int(np.argmax(score))
        if score[v] < 0:
            return True
        cap = min(c, used + 1)
        avail = ~forbid[v] & ((1 << (cap + 1)) - 2)  # color bits 1..cap
        for col in iter_bits(avail):
            mark = assign(v, col)
            if solve(max(used, col)):
                return True
            retract(v, mark)
        return False

    try:
        for i, v in enumerate(clique):
            assign(v, i + 1)
        found = solve(len(clique))
    except _Stop as stop:
        return ColoringResult(EXHAUSTED, c, None, nodes, reason=stop.which)
    if found:
        return ColoringResult(SOME, c, list(color), nodes)
    return ColoringResult(NONE, c, None, nodes, reason="search")


def reference_homomorphism(
    g: Graph, h: Graph, budget: SearchBudget = SearchBudget()
) -> HomResult:
    """Recursive forward-checking homomorphism search on bitset rows.

    Maps vertices in the order: max degree first, then the vertex with most
    already-mapped neighbors (ties: higher degree, lower index); targets are
    tried ascending and each try counts one node.
    """
    if g.n == 0:
        return HomResult(SOME, [], 0)
    if h.n == 0:
        return HomResult(NONE, None, 0, reason="empty-target")
    looped = sum(1 << t for t in range(h.n) if h.has_edge(t, t))
    dom = [looped if g.has_edge(v, v) else (1 << h.n) - 1 for v in range(g.n)]
    if 0 in dom:
        return HomResult(NONE, None, 0, reason="loop-unmatchable")

    pool = set(range(g.n))
    order = [max(pool, key=lambda v: (g.degree(v), -v))]
    pool.discard(order[0])
    placed = 1 << order[0]
    while pool:
        nxt = max(pool, key=lambda v: ((g.adj[v] & placed).bit_count(), g.degree(v), -v))
        order.append(nxt)
        pool.discard(nxt)
        placed |= 1 << nxt
    pos = {v: i for i, v in enumerate(order)}
    mapping = [-1] * g.n
    nodes = 0

    def solve(p: int) -> bool:
        nonlocal nodes
        if p == len(order):
            return True
        v = order[p]
        for t in iter_bits(dom[v]):
            nodes += 1
            if nodes > budget.node_limit:
                raise _Stop("nodes")
            mapping[v] = t
            saved = []
            ok = True
            for u in iter_bits(g.adj[v]):
                if pos[u] <= p:
                    continue
                nd = dom[u] & h.adj[t]
                if nd != dom[u]:
                    saved.append((u, dom[u]))
                    dom[u] = nd
                    if nd == 0:
                        ok = False
                        break
            if ok and solve(p + 1):
                return True
            for u, d in saved:
                dom[u] = d
            mapping[v] = -1
        return False

    try:
        found = solve(0)
    except _Stop as stop:
        return HomResult(EXHAUSTED, None, nodes, reason=stop.which)
    if found:
        return HomResult(SOME, list(mapping), nodes)
    return HomResult(NONE, None, nodes, reason="search")


def brute_homomorphism(g: Graph, h: Graph) -> list[int] | None:
    """First edge-preserving map V(G) -> V(H) in vertex order, or None."""
    mapping = [-1] * g.n

    def place(v: int) -> bool:
        if v == g.n:
            return True
        for target in range(h.n):
            ok = True
            for u in iter_bits(g.adj[v]):
                if u == v and not (h.adj[target] >> target & 1):
                    ok = False
                    break
                if u < v and not (h.adj[mapping[u]] >> target & 1):
                    ok = False
                    break
            if ok:
                mapping[v] = target
                if place(v + 1):
                    return True
        mapping[v] = -1
        return False

    return mapping if place(0) else None


def adjacency_matrix(g: Graph) -> np.ndarray:
    m = np.zeros((g.n, g.n), dtype=bool)
    for u, v in g.edges():
        m[u, v] = m[v, u] = True
    return m


def walk_matrix(g: Graph, d: int) -> np.ndarray:
    """Boolean matrix of 'a walk of length exactly d joins u and v'."""
    a = adjacency_matrix(g)
    out = np.eye(g.n, dtype=bool)
    for _ in range(d):
        out = (out.astype(np.uint8) @ a.astype(np.uint8)) > 0
    return out


def exact_shell(g: Graph, members: int, d: int) -> int:
    """Bitmask of vertices reached from the member set by length-d walks."""
    w = walk_matrix(g, d)
    hit = np.zeros(g.n, dtype=bool)
    for s in iter_bits(members):
        hit |= w[s]
    return sum(1 << v for v in np.flatnonzero(hit))


def collision_free(g: Graph, c: int, t1, t2) -> bool:
    """Exponential-graph adjacency, checked edge by edge in pure Python."""
    for u, v in g.edges():
        if t1[u] == t2[v] or t1[v] == t2[u]:
            return False
    return True
