"""Slow reference implementations the tests check the fast code against.

Everything here favors being obviously right over being usable at scale:
bitset rows read off the edge list, plain backtracking with no ordering
heuristics, dense numpy walk matrices, and quadratic scans.  The exception
is ``reference_coloring``, a recursive DSATUR on bitset rows whose verdicts
``find_coloring`` must match.  Also here: the ``%``-formatted DIMACS text
that the byte emitter of ``hedcex.graphs`` must reproduce, the small named
graphs the tests use as fixtures, the ``np.unique`` coding of vertex
types that the build's counting coder must match, the one-pair edge scan
that the collision matrix is checked against, the edge pass over a host's
written edges that the type pairs read off its grid are checked against,
the edge scan that independence read off shells is checked against, the
four wideness conditions as stated, the set-tuple form of the adjoint
(which the tuple form in ``hedcex.families`` is checked against), the codes
of a block of the tuple form summed digit by digit, and the adjunction test
built on both forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator

import numpy as np

from hedcex.families import omega_tuples
from hedcex.graphs import Graph, edge_slices, new_graph
from hedcex.solver import EXHAUSTED, MAX_COLORS, NONE, SOME, ColoringResult, SearchBudget


def rows(g: Graph) -> list[int]:
    """Bitset rows: bit u of ``rows(g)[v]`` is set iff uv is an edge; bit v
    itself marks a loop."""
    out = [0] * g.n
    for u, v in g.edges():
        out[u] |= 1 << v
        out[v] |= 1 << u
    return out


def bits(mask: int) -> Iterator[int]:
    """The set bit positions of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def edge_ends(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """(eu, ev): both ends of every edge of ``g``, a loop listed once, in
    the order of ``edge_slices`` (ascending, u <= v), joined into two intp
    arrays."""
    slices = [(np.zeros(0, dtype=np.intp),) * 2, *edge_slices(g)]
    return np.concatenate([u for u, _ in slices]), np.concatenate([v for _, v in slices])


def edge_type_pairs(g: Graph, codings) -> list[np.ndarray]:
    """The explicit edge pass: for each coding (code, K) of the vertices of
    ``g`` into types 0..K-1, the (K, K) flags of the type pairs that edges
    join, in either orientation, marked one ``edge_slices`` slice at a
    time."""
    realized = [np.zeros((size, size), dtype=bool) for _, size in codings]
    for u, v in edge_slices(g):
        for (code, _), pairs in zip(codings, realized):
            pairs[np.take(code, u), np.take(code, v)] = True
    return [pairs | pairs.T for pairs in realized]


def unique_type_code(lead: np.ndarray, flags: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(code, first): the sort-based coding of vertex types, each vertex's
    ``lead`` value followed by one bit per array of ``flags``, as one
    ``np.unique`` on int64 words gives it: the inverse numbers the distinct
    words ascending, and ``first`` is the first vertex of each."""
    words = lead.astype(np.int64)
    for flag in flags:
        words = words << 1 | flag
    _, first, code = np.unique(words, return_index=True, return_inverse=True)
    return code, first


def reference_dimacs(g: Graph) -> str:
    """The canonical DIMACS body (no comments) by ``%`` formatting, one
    ``e u v`` line per edge of ``edge_ends``, 1-based."""
    eu, ev = edge_ends(g)
    ends = tuple((np.column_stack((eu, ev)).astype(np.int64) + 1).ravel().tolist())
    return f"p edge {g.n} {g.edge_count}\n" + "e %d %d\n" * g.edge_count % ends


# -- named graphs ---------------------------------------------------------------


def complete_graph(n: int) -> Graph:
    """K_n, loopless."""
    return new_graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def cycle_graph(n: int) -> Graph:
    """C_n for n >= 3; C_2 degenerates to one edge and C_1 to one loop."""
    if n < 1:
        raise ValueError("cycle needs at least one vertex")
    return new_graph(n, ((v, (v + 1) % n) for v in range(n)))


def kneser_graph(c: int, k: int) -> Graph:
    """Kneser graph KG(c, k): k-subsets of a c-set, adjacent iff disjoint."""
    sets = [frozenset(s) for s in combinations(range(1, c + 1), k)]
    edges = [
        (i, j)
        for i in range(len(sets))
        for j in range(i + 1, len(sets))
        if not (sets[i] & sets[j])
    ]
    return new_graph(len(sets), edges)


def tuple_vertices(n: int, d: int) -> list[tuple[int, ...]]:
    """The vertices of ``omega_tuples(n, d)`` in lexicographic order: tuples
    over 0..d+1 with exactly one 0 and at least one 1."""
    return [t for t in product(range(d + 2), repeat=n) if t.count(0) == 1 and 1 in t]


def block_codes(n: int, d: int, p: int, q: int, values: np.ndarray) -> np.ndarray:
    """Codes of the tuples with 0 at p, 1 at q and ``values`` at each other
    coordinate, in code order, summed digit by digit: one outer sum of
    ``values`` times the coordinate's base-(d+2) place per coordinate."""
    codes = np.array([(d + 2) ** (n - 1 - q)])
    for j in range(n):
        if j != p and j != q:
            codes = np.add.outer(codes, values * (d + 2) ** (n - 1 - j)).ravel()
    return codes


# -- coloring -------------------------------------------------------------------


def brute_coloring(g: Graph, c: int) -> list[int] | None:
    """First proper c-coloring in vertex order, or None."""
    adj = rows(g)
    assignment = [0] * g.n

    def place(v: int) -> bool:
        if v == g.n:
            return True
        for color in range(1, c + 1):
            if any(assignment[u] == color for u in bits(adj[v]) if u < v):
                continue
            if adj[v] >> v & 1:
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
    adj = rows(g)
    order = sorted(range(g.n), key=lambda v: (-adj[v].bit_count(), v))
    clique: list[int] = []
    mask = 0
    for v in order:
        if mask & ~adj[v] == 0:
            clique.append(v)
            mask |= 1 << v
    return clique


class _Stop(Exception):
    """The node count passed the budget's limit."""


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
    adj = rows(g)
    if any(row >> v & 1 for v, row in enumerate(adj)):
        return ColoringResult(NONE, None, 0, reason="loop")
    if g.n == 0:
        return ColoringResult(SOME, [], 0)
    if c == 0:
        return ColoringResult(NONE, None, 0, reason="no-colors")

    nodes = 0
    color = [0] * g.n
    forbid = [0] * g.n
    score = np.zeros(g.n, dtype=np.int32)  # -1 once colored, else saturation
    uncolored = (1 << g.n) - 1
    trail: list[int] = []

    def assign(v: int, col: int) -> int:
        nonlocal uncolored, nodes
        nodes += 1
        if nodes > budget.node_limit:
            raise _Stop
        color[v] = col
        score[v] = -1
        uncolored ^= 1 << v
        bit = 1 << col
        mark = len(trail)
        for u in bits(adj[v] & uncolored):
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

    clique = reference_greedy_clique(g)
    if len(clique) > c:
        return ColoringResult(NONE, None, 0, reason="clique")

    def solve(used: int) -> bool:
        v = int(np.argmax(score))
        if score[v] < 0:
            return True
        cap = min(c, used + 1)
        avail = ~forbid[v] & ((1 << (cap + 1)) - 2)  # color bits 1..cap
        for col in bits(avail):
            mark = assign(v, col)
            if solve(max(used, col)):
                return True
            retract(v, mark)
        return False

    try:
        for i, v in enumerate(clique):
            assign(v, i + 1)
        found = solve(len(clique))
    except _Stop:
        return ColoringResult(EXHAUSTED, None, nodes, reason="nodes")
    if found:
        return ColoringResult(SOME, list(color), nodes)
    return ColoringResult(NONE, None, nodes, reason="search")


# -- homomorphisms --------------------------------------------------------------


def reference_homomorphism(g: Graph, h: Graph) -> list[int] | None:
    """First edge-preserving map V(G) -> V(H) found by a recursive
    forward-checking search on bitset rows, or None.

    Maps vertices in the order: max degree first, then the vertex with most
    already-mapped neighbors (ties: higher degree, lower index); targets are
    tried ascending.
    """
    if g.n == 0:
        return []
    gadj, hadj = rows(g), rows(h)
    looped = sum(1 << t for t in range(h.n) if hadj[t] >> t & 1)
    dom = [looped if gadj[v] >> v & 1 else (1 << h.n) - 1 for v in range(g.n)]
    if 0 in dom:
        return None

    def degree(v: int) -> int:
        return gadj[v].bit_count()

    pool = set(range(g.n))
    order = [max(pool, key=lambda v: (degree(v), -v))]
    pool.discard(order[0])
    placed = 1 << order[0]
    while pool:
        nxt = max(pool, key=lambda v: ((gadj[v] & placed).bit_count(), degree(v), -v))
        order.append(nxt)
        pool.discard(nxt)
        placed |= 1 << nxt
    pos = {v: i for i, v in enumerate(order)}
    mapping = [-1] * g.n

    def solve(p: int) -> bool:
        if p == len(order):
            return True
        v = order[p]
        for t in bits(dom[v]):
            mapping[v] = t
            saved = []
            ok = True
            for u in bits(gadj[v]):
                if pos[u] <= p:
                    continue
                nd = dom[u] & hadj[t]
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

    return list(mapping) if solve(0) else None


def brute_homomorphism(g: Graph, h: Graph) -> list[int] | None:
    """First edge-preserving map V(G) -> V(H) in vertex order, or None."""
    gadj, hadj = rows(g), rows(h)
    mapping = [-1] * g.n

    def place(v: int) -> bool:
        if v == g.n:
            return True
        for target in range(h.n):
            ok = True
            for u in bits(gadj[v]):
                if u == v and not (hadj[target] >> target & 1):
                    ok = False
                    break
                if u < v and not (hadj[mapping[u]] >> target & 1):
                    ok = False
                    break
            if ok:
                mapping[v] = target
                if place(v + 1):
                    return True
        mapping[v] = -1
        return False

    return mapping if place(0) else None


# -- walks ----------------------------------------------------------------------


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


def power_graph(g: Graph, d: int) -> Graph:
    """The walk power: endpoints of walks of length exactly d joined."""
    return new_graph(g.n, np.argwhere(np.triu(walk_matrix(g, d))))


def exact_shell(g: Graph, members: np.ndarray, d: int) -> np.ndarray:
    """Boolean array of vertices reached from ``members`` by length-d walks."""
    return walk_matrix(g, d)[members].any(axis=0)


def is_independent(g: Graph, members: np.ndarray) -> bool:
    """True iff no edge, loops included, joins two vertices of ``members``,
    a boolean array over V(g): the edge-by-edge reference that reading
    independence off the next shell is checked against."""
    eu, ev = edge_ends(g)
    return not (members[eu] & members[ev]).any()


def wide_condition(g: Graph, members: np.ndarray, d: int, condition: int) -> bool:
    """Wideness condition 1 to 4 of one class ``members`` at half width d,
    as each is stated: on walk-matrix shells, with independence read off the
    edges by ``is_independent``."""
    if condition == 1:
        return not exact_shell(g, members, 2 * d + 1)[members].any()
    shells = [exact_shell(g, members, t) for t in range(d + 1)]
    if condition == 2:
        return is_independent(g, shells[d])
    if condition == 3:
        return all(is_independent(g, s) for s in shells)
    even, odd = (np.logical_or.reduce(shells[p::2] or [np.zeros(g.n, dtype=bool)]) for p in (0, 1))
    return not (even & odd).any() and is_independent(g, even) and is_independent(g, odd)


def first_collision(g: Graph, ft: np.ndarray, wt: np.ndarray) -> int | None:
    """Position in ``edge_ends(g)`` of the first edge u-v with ft(u) = wt(v)
    or ft(v) = wt(u), or None when the two tables never collide: the
    reference edge scan for one pair of tables."""
    if ft.shape[0] != g.n or wt.shape[0] != g.n:
        raise ValueError("function table does not match the host vertex set")
    eu, ev = edge_ends(g)
    bad = np.flatnonzero((ft[eu] == wt[ev]) | (ft[ev] == wt[eu]))
    return int(bad[0]) if bad.size else None


def collision_free(g: Graph, c: int, t1, t2) -> bool:
    """Exponential-graph adjacency, checked edge by edge in pure Python."""
    for u, v in g.edges():
        if t1[u] == t2[v] or t1[v] == t2[u]:
            return False
    return True


# -- adjoint graphs, set tuple form ---------------------------------------------


def _fully_adjacent(adj: list[int], a_mask: int, b_mask: int) -> bool:
    return all(not (b_mask & ~adj[v]) for v in bits(a_mask))


@dataclass
class OmegaSetsGraph:
    """Set-tuple adjoint graph; each vertex is a chain of subset bitmasks."""

    graph: Graph
    tuples: list[tuple[int, ...]]
    base: Graph
    d: int


def omega_sets(h: Graph, d: int, *, max_target: int = 5, max_half_width: int = 3) -> OmegaSetsGraph:
    """Right adjoint of the (2d+1)-walk power at an arbitrary target ``H``.

    Vertices are chains ``(A_0, ..., A_d)`` of subsets of V(H): ``A_0`` a
    singleton, ``A_1`` nonempty, ``A_i`` contained in ``A_{i+2}``, and
    ``A_{d-1}`` fully adjacent to ``A_d``.  Chains ``A`` and ``B`` are
    adjacent when ``A_i`` is contained in ``B_{i+1}`` and vice versa for all
    ``i < d``, and ``A_d``, ``B_d`` are fully adjacent.

    Enumeration cost is exponential in ``|V(H)| * d``, hence the size guard;
    the tuple form covers complete targets of any size.
    """
    if h.n > max_target or d > max_half_width:
        raise ValueError(
            f"set adjoint guard: |V|={h.n} (max {max_target}), d={d} (max {max_half_width})"
        )
    if d < 1:
        raise ValueError("set adjoint needs half width >= 1")

    adj = rows(h)
    all_masks = list(range(1 << h.n))
    chains: list[tuple[int, ...]] = []

    def extend(chain: tuple[int, ...]) -> None:
        i = len(chain)
        if i == d + 1:
            if _fully_adjacent(adj, chain[d - 1], chain[d]):
                chains.append(chain)
            return
        for m in all_masks:
            if i == 0 and m.bit_count() != 1:
                continue
            if i == 1 and m == 0:
                continue
            if i >= 2 and (chain[i - 2] & ~m):
                continue  # need A_{i-2} subset of A_i
            extend(chain + (m,))

    extend(())

    def chain_edge(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
        for i in range(d):
            if (a[i] & ~b[i + 1]) or (b[i] & ~a[i + 1]):
                return False
        return _fully_adjacent(adj, a[d], b[d])

    edges = [
        (i, j)
        for i in range(len(chains))
        for j in range(i, len(chains))
        if chain_edge(chains[i], chains[j])
    ]
    g = new_graph(len(chains), edges)
    return OmegaSetsGraph(graph=g, tuples=chains, base=h, d=d)


def adjunction_holds(g: Graph, h: Graph, d: int) -> bool:
    """True when "gamma_d g -> h" and "g -> omega_d h" answer the same way.

    Exhaustive on both sides; the right side's target is the tuple adjoint
    for a complete ``h`` and the set adjoint otherwise.
    """
    if d < 1 or d % 2 == 0:
        raise ValueError("the correspondence is stated for odd walk lengths")
    if h.edge_count == 0:
        raise ValueError("target needs at least one edge")
    half = (d - 1) // 2
    if half == 0:
        right_target = h
    elif not h.has_loop() and h.edge_count == h.n * (h.n - 1) // 2:
        right_target = omega_tuples(h.n, half).graph
    else:
        right_target = omega_sets(h, half).graph
    left = reference_homomorphism(power_graph(g, d), h)
    right = reference_homomorphism(g, right_target)
    return (left is None) == (right is None)


def table(v) -> np.ndarray:
    """The host-length table of an H vertex: its lookup read at every host
    vertex's type."""
    return np.take(v.lookup, v.code)
