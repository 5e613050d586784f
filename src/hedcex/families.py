"""Graph families and the operators the verification pipelines combine.

Conventions used throughout:

* ``gamma_power(G, d)`` joins the endpoints of walks of length exactly ``d``
  (walks may repeat vertices, so for odd ``d`` a loop appears exactly when the
  graph has an odd closed walk of that length through the vertex).
* ``n_exact(G, S, d)`` is the set of endpoints of length-``d`` walks starting
  in ``S``; ``n_upto`` accumulates all lengths ``0..d``.
* ``omega_tuples(n, d)`` is the right adjoint of ``gamma_power(-, 2d+1)``
  applied to the complete graph: vertices are integer tuples in
  ``{0..d+1}^n`` with exactly one 0 and at least one 1, adjacent when every
  coordinate pair differs by exactly one or both sit at ``d+1``.
* ``omega_sets(H, d)`` is the same adjoint for an arbitrary small ``H``,
  in its set-tuple form: chains ``(A_0, ..., A_d)`` of vertex subsets.

The two omega forms are isomorphic on complete graphs; the tests enumerate
that correspondence, which is why both constructions stay in the package.

Representation boundary: products, powers and ``omega_sets`` build bitset
rows directly and are written for the small cross-validation sizes.  The big
adjoint graphs are built only through ``omega_tuples``, which enumerates
tuples and edges as numpy arrays (each generated neighbor tuple is located
by a lookup table over the whole code space), and their vertex sets are
swept by ``shell_bits`` over the graph's CSR neighbor arrays, linear in
|V| + |E| per step.  One sweep gives every shell of up to one set per bit of
its seed array, and the shells of a union of seeds are the unions of their
shells, so a counterexample build sweeps all color classes of its wide
coloring at once, one bit per class.  ``n_shells`` is the one-set case, in
boolean arrays or Python-int bitmasks, converted at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations
from operator import or_

import numpy as np

from .graphs import Graph, iter_bits, mask_from, neighbor_arrays, new_graph, vertex_flags

__all__ = [
    "complete_graph",
    "cycle_graph",
    "kneser_graph",
    "kneser_subsets",
    "gamma_power",
    "n_exact",
    "n_shells",
    "n_upto",
    "shell_bits",
    "lex_product",
    "tensor_product",
    "OmegaGraph",
    "OmegaSetsGraph",
    "omega_vertex_count",
    "omega_tuple_vertices",
    "omega_tuples",
    "omega_sets",
]


# -- named families --------------------------------------------------------


def complete_graph(n: int) -> Graph:
    """K_n, loopless."""
    return new_graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)), f"K_{n}")


def cycle_graph(n: int) -> Graph:
    """C_n for n >= 3; C_2 degenerates to one edge and C_1 to one loop."""
    if n < 1:
        raise ValueError("cycle needs at least one vertex")
    return new_graph(n, ((v, (v + 1) % n) for v in range(n)), f"C_{n}")


def kneser_subsets(c: int, k: int) -> list[tuple[int, ...]]:
    """The k-subsets of {1..c} in lexicographic order (the vertex labels)."""
    return list(combinations(range(1, c + 1), k))


def kneser_graph(c: int, k: int) -> Graph:
    """Kneser graph KG(c, k): k-subsets of a c-set, adjacent iff disjoint."""
    if not (1 <= k <= c):
        raise ValueError(f"kneser needs 1 <= k <= c, got c={c} k={k}")
    subs = kneser_subsets(c, k)
    sets = [frozenset(s) for s in subs]
    edges = [
        (i, j)
        for i in range(len(subs))
        for j in range(i + 1, len(subs))
        if not (sets[i] & sets[j])
    ]
    return new_graph(len(subs), edges, f"KG({c},{k})")


# -- walk neighborhoods and powers ----------------------------------------


def _walk_step(g: Graph, frontier: int) -> int:
    out = 0
    for v in iter_bits(frontier):
        out |= g.adj[v]
    return out


def n_exact(g: Graph, members, d: int):
    """Endpoints of walks of length exactly ``d`` starting inside ``members``."""
    return n_shells(g, members, d)[d]


def shell_bits(g: Graph, seeds: np.ndarray, d: int) -> list[np.ndarray]:
    """The shells of several vertex sets at depths 0..d, in one sweep.

    ``seeds`` is an unsigned integer array over V(g) with one bit per set:
    bit j of ``seeds[v]`` says v is in set j.  Entry t of the result has the
    same form for the endpoints of walks of length exactly t, so bit j of
    ``shells[t][v]`` says some such walk joins set j to v.  A step is one
    gather and one ``bitwise_or.reduceat`` over the rows of
    ``neighbor_arrays(g)``, linear in |V| + |E| whatever the number of sets;
    a vertex with no neighbor ends no walk of positive length, so it stays 0.
    """
    if d < 0:
        raise ValueError("walk length must be nonnegative")
    ptr, dst = neighbor_arrays(g)
    rows = np.flatnonzero(ptr[1:] != ptr[:-1])
    # reduceat gives a[i] for an empty segment, so only rows with a neighbor
    # are reduced; each one's segment then ends where the next one starts
    starts = ptr[rows].astype(np.intp)
    shells = [seeds]
    for _ in range(d):
        step = np.zeros_like(seeds)
        if rows.size:
            step[rows] = np.bitwise_or.reduceat(shells[-1][dst], starts)
        shells.append(step)
    return shells


def n_shells(g: Graph, members, d: int) -> list:
    """All of ``n_exact(g, members, t)`` for t in 0..d, computed in one sweep.

    ``members`` is a bitmask or a boolean array over V(g), and the shells
    come back in the same form.  This is the one-set case of ``shell_bits``:
    the membership flags are its seed bits.
    """
    flags = vertex_flags(g, members)
    shells = [s.view(bool) for s in shell_bits(g, flags.view(np.uint8), d)]
    if isinstance(members, np.ndarray):
        return shells
    return [mask_from(np.flatnonzero(s)) for s in shells]


def n_upto(g: Graph, members, d: int):
    """Union of ``n_exact`` over all lengths ``0..d``."""
    return reduce(or_, n_shells(g, members, d))


def gamma_power(g: Graph, d: int) -> Graph:
    """Graph power joining endpoints of walks of length exactly ``d``.

    Computed as d-1 boolean row products, so cost grows with density; the
    pipelines never call this on the big adjoint graphs (they sweep the
    color classes' shells with ``shell_bits`` instead).
    """
    if d < 1:
        raise ValueError("power must be >= 1")
    rows = list(g.adj)
    for _ in range(d - 1):
        rows = [_walk_step(g, row) for row in rows]
    out = Graph(g.n, rows)
    out.label = f"gamma_{d}({g.label})" if g.label else None
    return out


# -- products ---------------------------------------------------------------


def _spread(mask: int, width: int) -> int:
    """Replace every set bit b of ``mask`` with a run of ``width`` ones."""
    block = (1 << width) - 1
    out = 0
    for b in iter_bits(mask):
        out |= block << (b * width)
    return out


def lex_product(g: Graph, h: Graph) -> Graph:
    """Lexicographic product G[H]; vertex (a, i) sits at index a*|H| + i."""
    w = h.n
    rows = []
    for a in range(g.n):
        base = _spread(g.adj[a], w)
        for i in range(h.n):
            rows.append(base | (h.adj[i] << (a * w)))
    return Graph(g.n * h.n, rows, f"lex({g.label},{h.label})")


def tensor_product(g: Graph, h: Graph) -> Graph:
    """Tensor (categorical) product G x H; vertex (a, i) at index a*|H| + i."""
    w = h.n
    rows = []
    for a in range(g.n):
        for i in range(h.n):
            row = 0
            for b in iter_bits(g.adj[a]):
                row |= h.adj[i] << (b * w)
            rows.append(row)
    return Graph(g.n * h.n, rows, f"tensor({g.label},{h.label})")


# -- adjoint graphs, integer tuple form -------------------------------------


def omega_vertex_count(n: int, d: int) -> int:
    """Closed-form order of the tuple adjoint: n * ((d+1)^(n-1) - d^(n-1))."""
    return n * ((d + 1) ** (n - 1) - d ** (n - 1))


def _omega_digits(n: int, d: int) -> np.ndarray:
    """The valid tuples as rows of a (vertices, n) int8 array, in
    lexicographic order, checked against the closed-form count."""
    if n < 2 or d < 1:
        raise ValueError(f"tuple adjoint needs n >= 2 and d >= 1, got n={n} d={d}")
    digits = np.indices((d + 2,) * n, dtype=np.int8).reshape(n, -1).T
    valid = ((digits == 0).sum(axis=1) == 1) & (digits == 1).any(axis=1)
    digits = digits[valid]
    expect = omega_vertex_count(n, d)
    if len(digits) != expect:
        raise RuntimeError(
            f"tuple enumeration produced {len(digits)} vertices, formula says {expect}"
        )
    return digits


def omega_tuple_vertices(n: int, d: int) -> list[tuple[int, ...]]:
    """All valid tuples in lexicographic order.

    Valid means: entries in ``0..d+1``, exactly one 0, at least one 1.  The
    lexicographic order pins vertex indices, keeping every downstream label,
    coloring and certificate reproducible.
    """
    return list(map(tuple, _omega_digits(n, d).tolist()))


def _tuple_partner_menus(xj: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    # Coordinate menus (low, high) for a neighbor off the new zero's
    # position: 0 -> 1, 1 -> 2, d+1 -> {d, d+1}, otherwise one step either
    # way.  0 is never offered, so every generated tuple is a valid vertex.
    low = np.where(xj == 0, 1, np.where(xj == 1, 2, np.where(xj == d + 1, d, xj - 1)))
    high = np.where(xj == 0, 1, np.where(xj == 1, 2, np.minimum(xj + 1, d + 1)))
    return low, high


@dataclass
class OmegaGraph:
    """Tuple adjoint graph plus its vertex tuples.

    ``n`` is the complete base's order (also the color count of the
    zero-position coloring) and ``d`` the half width: the graph is the right
    adjoint of the (2d+1)-walk power at K_n.  ``digits`` holds the tuples as
    the rows of a (vertices, n) int8 array, in vertex order.
    """

    graph: Graph
    digits: np.ndarray = field(repr=False)
    n: int
    d: int

    def zero_positions(self) -> np.ndarray:
        """0-based position of the unique 0 in each tuple."""
        return np.argmax(self.digits == 0, axis=1)


def omega_tuples(n: int, d: int) -> OmegaGraph:
    """Build the tuple adjoint of K_n at half width d.

    Tuples are coded as base-(d+2) integers, so lexicographic order is
    numeric order, and a dense int32 table over all (d+2)^n codes maps each
    code to its vertex (-1 for a code that is not a valid tuple).  Edges
    come from a constructive enumeration, vectorized over all vertices at
    once: for each coordinate holding a 1 (the neighbor's zero), every other
    coordinate takes each value on its menu, one step up or down (or holds
    at d+1).  Every tuple generated that way is a valid neighbor, so total
    work is proportional to the number of edges, not to the square of the
    order.
    """
    digits = _omega_digits(n, d)
    weights = (d + 2) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    # vertex index of every code in the (d+2)^n code space, -1 off the set
    index = np.full((d + 2) ** n, -1, dtype=np.int32)
    index[digits.astype(np.int64) @ weights] = np.arange(len(digits), dtype=np.int32)
    sources, targets = [], []
    for zero_at in range(n):
        src = np.flatnonzero(digits[:, zero_at] == 1)
        code = np.zeros(src.size, dtype=np.int64)
        for j in range(n):
            if j == zero_at:
                continue
            low, high = _tuple_partner_menus(digits[src, j].astype(np.int64), d)
            reps = 1 + (low != high)
            take_high = np.zeros(int(reps.sum()), dtype=bool)
            take_high[np.cumsum(reps)[reps == 2] - 1] = True
            src, code = np.repeat(src, reps), np.repeat(code, reps)
            code += np.where(take_high, np.repeat(high, reps), np.repeat(low, reps)) * weights[j]
        dst = index[code]
        if (dst < 0).any():
            raise RuntimeError("tuple adjoint enumeration left the vertex set")
        keep = dst > src
        sources.append(src[keep].astype(np.int32))
        targets.append(dst[keep])
    del index
    edges = np.column_stack((np.concatenate(sources), np.concatenate(targets)))
    del sources, targets
    g = new_graph(len(digits), edges, f"omega({n},{d})")
    return OmegaGraph(graph=g, digits=digits, n=n, d=d)


# -- adjoint graphs, set tuple form ------------------------------------------


def _fully_adjacent(h: Graph, a_mask: int, b_mask: int) -> bool:
    for v in iter_bits(a_mask):
        if b_mask & ~h.adj[v]:
            return False
    return True


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

    all_masks = list(range(1 << h.n))
    chains: list[tuple[int, ...]] = []

    def extend(chain: tuple[int, ...]) -> None:
        i = len(chain)
        if i == d + 1:
            if _fully_adjacent(h, chain[d - 1], chain[d]):
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

    idx = {c: i for i, c in enumerate(chains)}

    def chain_edge(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
        for i in range(d):
            if (a[i] & ~b[i + 1]) or (b[i] & ~a[i + 1]):
                return False
        return _fully_adjacent(h, a[d], b[d])

    edges = [
        (i, j)
        for i in range(len(chains))
        for j in range(i, len(chains))
        if chain_edge(chains[i], chains[j])
    ]
    g = new_graph(len(chains), edges, f"omega_sets({h.label},{d})")
    return OmegaSetsGraph(graph=g, tuples=chains, base=h, d=d)
