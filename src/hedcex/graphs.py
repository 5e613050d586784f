"""Loopy undirected graphs on dense integer vertices, at two scales.

A graph is its canonical edge list: the two int32 endpoint arrays of
``edge_arrays`` (ascending, ``u <= v``, a loop as ``(v, v)``).  Vertex sets on
host-scale graphs (tens of thousands of vertices) are numpy arrays over it: a
boolean membership array over ``0..n-1``, or an ascending index array.  Shell
sweeps, independence checks, function tables, hashing and the coloring
search all run that way, in time linear in |V| + |E|.  Where a public
function takes or returns a Python-int bitmask, ``mask_indices`` and
``mask_from`` convert at the boundary, each linear in the mask's width.

Bitset rows are for small graphs: ``adj[v]`` is a Python int whose bit ``u``
is set iff ``uv`` is an edge; bit ``v`` itself marks a loop.  The
isomorphism test, walk powers, products and homomorphism targets use
them, where word-parallel row algebra over a few hundred vertices is the
cheapest form.  Graphs from ``new_graph`` build their rows only on first use
of ``adj``, so a host that is only swept, hashed and colored never holds
them (on the 54k-vertex c5_wide host they would take about 200 MB).

Graphs are treated as immutable once built; the edge arrays, the rows and
the hash are computed once per instance and cached on it.  Any labels
(tuples, subsets) live in side tables kept by the callers; this module only
ever sees dense integers.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "Graph",
    "new_graph",
    "mask_from",
    "mask_indices",
    "vertex_flags",
    "iter_bits",
    "is_independent",
    "induced_subgraph",
    "is_isomorphic",
    "parse_dimacs",
    "emit_dimacs",
    "graph_sha256",
    "edge_arrays",
]

# Edges per slice when a host-scale edge list is streamed as Python objects
# or text; bounds the transient memory of ``edges()`` and the hash.
_CHUNK = 1 << 14

# Bytes of packed rows assembled at a time while building bitset rows.
_ROW_BLOCK = 1 << 20


def mask_indices(mask: int) -> np.ndarray:
    """Set bit positions of ``mask``, ascending, as an int64 array.

    Linear in the mask's width: one ``to_bytes`` and one ``unpackbits``.
    """
    if mask < 0:
        raise ValueError("vertex masks are nonnegative")
    raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return np.flatnonzero(np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little"))


def mask_from(vertices: Iterable[int]) -> int:
    """Bitmask with one bit per listed vertex (an iterable or an index array).

    Linear in the largest index: one ``packbits`` and one ``from_bytes``.
    """
    if isinstance(vertices, np.ndarray):
        idx = vertices.astype(np.int64, copy=False).ravel()
    else:
        idx = np.fromiter(vertices, dtype=np.int64)
    if idx.size == 0:
        return 0
    if idx.min() < 0:
        raise ValueError("vertex indices are nonnegative")
    bits = np.zeros(int(idx.max()) + 1, dtype=np.uint8)
    bits[idx] = 1
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order.

    One big-int step per set bit, so it suits the sparse rows the searches
    walk; a wide vertex set goes through ``mask_indices`` instead.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Undirected graph, loops allowed, vertices ``0..n-1``."""

    __slots__ = ("n", "_adj", "label", "_m", "_earrays", "_sha")

    def __init__(self, n: int, adj: list[int] | None, label: str | None = None):
        """``adj`` holds the bitset rows, or None when the edge arrays are
        set instead (as ``new_graph`` does) and the rows wait for first use."""
        self.n = n
        self._adj = adj
        self.label = label
        self._m: int | None = None
        self._earrays: tuple[np.ndarray, np.ndarray] | None = None
        self._sha: str | None = None

    @property
    def adj(self) -> list[int]:
        """Bitset rows, built from the edge arrays on first use."""
        if self._adj is None:
            self._adj = _rows_from_edges(self.n, *self._earrays)
        return self._adj

    # -- basic queries ----------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_loop(self) -> bool:
        return self.loops() > 0

    def loops(self) -> int:
        eu, ev = edge_arrays(self)
        return int(np.count_nonzero(eu == ev))

    @property
    def edge_count(self) -> int:
        """Number of edges; a loop counts once."""
        if self._m is None:
            self._m = int(edge_arrays(self)[0].size)
        return self._m

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as ``(u, v)`` with ``u <= v``, ascending."""
        eu, ev = edge_arrays(self)
        for lo in range(0, eu.size, _CHUNK):
            yield from zip(eu[lo : lo + _CHUNK].tolist(), ev[lo : lo + _CHUNK].tolist())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adj == other.adj
        )

    def __hash__(self):
        return hash((self.n, tuple(self.adj)))

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return f"<Graph{tag} n={self.n} m={self.edge_count}>"


def _rows_from_edges(n: int, eu: np.ndarray, ev: np.ndarray) -> list[int]:
    """Bitset rows of the symmetric closure of a canonical edge list.

    Arcs are sorted by (source, target) and OR-ed into packed bytes, one
    block of rows at a time, so the cost is linear in the rows' total width
    plus the edge count, and the transient buffer stays near ``_ROW_BLOCK``.
    """
    inner = eu != ev
    src = np.concatenate((eu, ev[inner]))
    dst = np.concatenate((ev, eu[inner]))
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    del order
    counts = np.bincount(src, minlength=n)
    width = np.zeros(n, dtype=np.int64)
    filled = counts > 0
    width[filled] = (dst[np.cumsum(counts)[filled] - 1] >> 3) + 1
    offsets = np.concatenate(([0], np.cumsum(width)))

    byte = dst >> 3
    first = np.ones(src.size, dtype=bool)
    first[1:] = (src[1:] != src[:-1]) | (byte[1:] != byte[:-1])
    starts = np.flatnonzero(first)
    bits = np.left_shift(1, (dst & 7).astype(np.uint8))
    values = np.bitwise_or.reduceat(bits, starts) if starts.size else bits
    where = offsets[src[starts]] + byte[starts]
    del src, dst, byte, first, starts, bits

    rows: list[int] = []
    lo = 0
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(offsets, offsets[lo] + _ROW_BLOCK, "right")) - 1)
        hi = min(hi, n)
        base = int(offsets[lo])
        buf = np.zeros(int(offsets[hi]) - base, dtype=np.uint8)
        a, b = np.searchsorted(where, (base, offsets[hi]))
        buf[where[a:b] - base] = values[a:b]
        view = memoryview(buf)
        cuts = (offsets[lo : hi + 1] - base).tolist()
        rows.extend(int.from_bytes(view[x:y], "little") for x, y in zip(cuts, cuts[1:]))
        lo = hi
    return rows


def new_graph(
    n: int,
    edges: Iterable[tuple[int, int]] | np.ndarray,
    label: str | None = None,
) -> Graph:
    """Build a graph from an edge list: an iterable of pairs or an (m, 2) array.

    The list is symmetrized and de-duplicated; ``(v, v)`` entries become
    loops.  Raises ValueError on an endpoint outside ``0..n-1``.  The
    canonical edge arrays (ascending, ``u <= v``) are cached on the result;
    its bitset rows are built on first use of ``adj``.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be pairs of vertices")
    outside = np.flatnonzero(((pairs < 0) | (pairs >= n)).any(axis=1))
    if outside.size:
        u, v = pairs[outside[0]].tolist()
        raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
    keys = np.unique(pairs.min(axis=1) * n + pairs.max(axis=1))
    eu = (keys // max(n, 1)).astype(np.int32)
    ev = (keys % max(n, 1)).astype(np.int32)
    g = Graph(n, None, label)
    g._earrays = (eu, ev)
    g._m = int(keys.size)
    return g


def vertex_flags(g: Graph, members) -> np.ndarray:
    """Boolean membership array over V(g).

    ``members`` is a bitmask, converted here, or already such an array,
    returned as it is.
    """
    if isinstance(members, np.ndarray):
        if members.dtype != bool or members.shape != (g.n,):
            raise ValueError(f"vertex set arrays are boolean of shape ({g.n},)")
        return members
    flags = np.zeros(g.n, dtype=bool)
    flags[mask_indices(members)] = True
    return flags


def is_independent(g: Graph, members) -> bool:
    """True iff no edge, loops included, joins two vertices of ``members``.

    ``members`` is a bitmask or a boolean array over V(g); either way the
    check is one gather over the edge arrays.
    """
    inside = vertex_flags(g, members)
    eu, ev = edge_arrays(g)
    return not (inside[eu] & inside[ev]).any()


def induced_subgraph(g: Graph, members: int) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced by the bitmask ``members`` plus the old-to-new map.

    New indices follow the ascending order of the old ones, so the result is
    deterministic.
    """
    old = list(iter_bits(members))
    remap = {v: i for i, v in enumerate(old)}
    adj = [0] * len(old)
    for i, v in enumerate(old):
        row = g.adj[v] & members
        for u in iter_bits(row):
            adj[i] |= 1 << remap[u]
    return Graph(len(old), adj), remap


def edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays ``(eu, ev)`` listing every edge once, loops included.

    Ascending by ``(u, v)`` with ``u <= v``, int32.  Graphs from ``new_graph``
    carry them from construction; for graphs built from rows they are read
    off the rows once and cached.
    """
    if g._earrays is None:
        heads = [mask_indices(row >> u) + u for u, row in enumerate(g.adj)]
        sizes = [h.size for h in heads]
        eu = np.repeat(np.arange(g.n, dtype=np.int32), sizes)
        ev = np.concatenate(heads).astype(np.int32) if heads else np.zeros(0, np.int32)
        g._earrays = (eu, ev)
    return g._earrays


# -- isomorphism ----------------------------------------------------------


def _refine_colors(g: Graph, colors: list[int]) -> list[int]:
    """One round of neighborhood color refinement; colors are dense ints."""
    sigs = []
    for v in range(g.n):
        neigh = sorted(colors[u] for u in iter_bits(g.adj[v]))
        sigs.append((colors[v], tuple(neigh)))
    canon: dict[tuple, int] = {}
    for s in sorted(set(sigs)):
        canon[s] = len(canon)
    return [canon[s] for s in sigs]


def _stable_coloring(g: Graph) -> list[int]:
    # initial color = (degree, loop flag), then refine to a fixed point
    init = sorted({(g.degree(v), g.adj[v] >> v & 1) for v in range(g.n)})
    rank = {s: i for i, s in enumerate(init)}
    colors = [rank[(g.degree(v), g.adj[v] >> v & 1)] for v in range(g.n)]
    while True:
        nxt = _refine_colors(g, colors)
        if len(set(nxt)) == len(set(colors)):
            return nxt
        colors = nxt


def is_isomorphic(g: Graph, h: Graph, *, max_vertices: int = 200) -> bool:
    """Exact isomorphism test for graphs up to ``max_vertices`` vertices.

    Vertices are partitioned by iterated neighborhood refinement (degree
    sequence pruning and then some); the remaining search is backtracking
    with forward-checked candidate domains.  Deterministic.
    """
    if g.n > max_vertices or h.n > max_vertices:
        raise ValueError(
            f"isomorphism guard: {g.n} and {h.n} vertices vs limit {max_vertices}"
        )
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if g.n == 0:
        return True

    cg = _stable_coloring(g)
    ch = _stable_coloring(h)
    if sorted(cg) != sorted(ch):
        return False

    by_color: dict[int, int] = {}
    for t, c in enumerate(ch):
        by_color[c] = by_color.get(c, 0) | (1 << t)

    full = (1 << h.n) - 1
    dom = [by_color[cg[v]] for v in range(g.n)]
    order_pool = set(range(g.n))
    assigned: list[tuple[int, list[int]]] = []  # (vertex, saved domains) trail

    def pick() -> int:
        # most-constrained vertex, ties by lowest index
        best, best_size = -1, 1 << 62
        for v in sorted(order_pool):
            s = dom[v].bit_count()
            if s < best_size:
                best, best_size = v, s
        return best

    def assign(v: int, t: int) -> bool:
        saved = dom[:]
        adj_t = h.adj[t]
        not_adj_t = full ^ adj_t
        tbit = 1 << t
        for u in order_pool:
            if u == v:
                continue
            if g.has_edge(u, v):
                dom[u] &= adj_t
            else:
                dom[u] &= not_adj_t
            dom[u] &= ~tbit
            if dom[u] == 0:
                dom[:] = saved
                return False
        assigned.append((v, saved))
        return True

    def undo():
        _, saved = assigned.pop()
        dom[:] = saved

    def search() -> bool:
        if not order_pool:
            return True
        v = pick()
        order_pool.discard(v)
        for t in iter_bits(dom[v]):
            if assign(v, t):
                if search():
                    return True
                undo()
        order_pool.add(v)
        return False

    return search()


# -- DIMACS col format ----------------------------------------------------


def parse_dimacs(text: str) -> Graph:
    """Parse the DIMACS ``.col`` dialect: ``p edge N M`` then ``e u v`` lines.

    Vertices are 1-based in the file and 0-based in the result.  ``c`` lines
    are comments.  Duplicate edge lines collapse; ``e v v`` is a loop.
    Raises ValueError on malformed lines or endpoints outside ``1..N``.
    """
    n = None
    edges: list[tuple[int, int]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ValueError(f"line {ln}: repeated problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise ValueError(f"line {ln}: malformed problem line {line!r}")
            try:
                n = int(parts[2])
                int(parts[3])
            except ValueError:
                raise ValueError(f"line {ln}: malformed problem line {line!r}") from None
            if n < 0:
                raise ValueError(f"line {ln}: negative vertex count")
        elif parts[0] == "e":
            if n is None:
                raise ValueError(f"line {ln}: edge before problem line")
            if len(parts) != 3:
                raise ValueError(f"line {ln}: malformed edge line {line!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ValueError(f"line {ln}: malformed edge line {line!r}") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"line {ln}: endpoint out of range in {line!r}")
            edges.append((u - 1, v - 1))
        else:
            raise ValueError(f"line {ln}: unknown line type {line!r}")
    if n is None:
        raise ValueError("missing problem line")
    return new_graph(n, edges)


def _dimacs_lines(g: Graph) -> Iterator[str]:
    """The canonical DIMACS body in text chunks: the problem line, then the
    sorted ``e`` lines, ``_CHUNK`` edges at a time."""
    yield f"p edge {g.n} {g.edge_count}\n"
    eu, ev = edge_arrays(g)
    for lo in range(0, eu.size, _CHUNK):
        ends = np.empty((min(_CHUNK, eu.size - lo), 2), dtype=np.int64)
        ends[:, 0] = eu[lo : lo + _CHUNK]
        ends[:, 1] = ev[lo : lo + _CHUNK]
        ends += 1
        yield ("e %d %d\n" * len(ends)) % tuple(ends.ravel().tolist())


def emit_dimacs(g: Graph, *, comment: str | None = None) -> str:
    """Canonical DIMACS emission: sorted ``e`` lines, 1-based, ``u <= v``.

    ``comment`` adds a leading ``c`` line; the canonical form used for
    hashing passes no comment.
    """
    out = []
    if comment is not None:
        for piece in comment.splitlines() or [""]:
            out.append(f"c {piece}".rstrip() + "\n")
    out.extend(_dimacs_lines(g))
    return "".join(out)


def graph_sha256(g: Graph) -> str:
    """SHA-256 of the canonical DIMACS emission (no comments).

    The text is hashed as it streams, never held whole, and the digest is
    cached on the instance.
    """
    if g._sha is None:
        digest = hashlib.sha256()
        for text in _dimacs_lines(g):
            digest.update(text.encode("ascii"))
        g._sha = digest.hexdigest()
    return g._sha


def emit_dot(g: Graph, labels: list[str] | None = None) -> str:
    """Undirected DOT text, one node per vertex; loops render as self-edges."""
    if labels is not None and len(labels) != g.n:
        raise ValueError("label list does not match the vertex count")
    out = ["graph {"]
    for v in range(g.n):
        name = labels[v] if labels is not None else str(v)
        out.append(f'  {v} [label="{name}"];')
    for u, v in g.edges():
        out.append(f"  {u} -- {v};")
    out.append("}")
    return "\n".join(out) + "\n"
