"""The tuple adjoint graphs that host the counterexamples, and shell sweeps.

* ``omega_tuples(n, d)`` is the right adjoint of the (2d+1)-walk power at
  the complete graph K_n: vertices are integer tuples in ``{0..d+1}^n``
  with exactly one 0 and at least one 1, adjacent when every coordinate
  pair differs by exactly one or both sit at ``d+1``.  Tuples, their
  base-(d+2) codes and edges are enumerated as numpy arrays.  An edge is
  taken literally from that definition: two zero positions p < q, a 1
  opposite each zero, and one of the 2d + 1 allowed value pairs at every
  other coordinate; the codes of both ends are outer sums over the
  coordinates, located by a lookup table over the whole code space.  The
  vertex and edge counts are checked against their closed forms.
* ``omega_shell_bits(omega, seeds, t)`` sweeps a tuple adjoint for the
  endpoints of walks of length exactly 0..t from up to one vertex set per
  bit of its seed array, read off the coordinate rule: a step scatters the
  bits over the (d+2)^n code space and ORs each coordinate's neighbouring
  values in place, one axis at a time, so it builds no adjacency lists.
  The shells of a union of seeds are the unions of their shells, so a
  counterexample build sweeps all color classes of its wide coloring at
  once, one bit per class.
* ``shell_bits(g, seeds, t)`` is the same sweep on any graph, such as one
  read from a DIMACS file, over the graph's CSR neighbor arrays, built once
  per sweep, linear in |V| + |E| per step.  ``n_shells`` is its one-set
  case, on boolean arrays.  Both sweeps stop at the first shell that
  repeats the one two steps back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph, neighbor_arrays, new_graph, vertex_flags

__all__ = [
    "n_shells",
    "shell_bits",
    "omega_shell_bits",
    "OmegaGraph",
    "omega_vertex_count",
    "omega_edge_count",
    "omega_tuples",
]


# -- walk shells ----------------------------------------------------------


def _sweep(seeds: np.ndarray, d: int, step) -> list[np.ndarray]:
    """The shells ``seeds``, ``step(seeds)``, ... at depths 0..d.

    ``step`` maps a shell to the next one.  Once a shell equals the one two
    steps back, every later one repeats the last two (a step maps equal
    shells to equal ones): the sweep stops and the remaining entries are
    those two arrays, shared, not copied.
    """
    if d < 0:
        raise ValueError("walk length must be nonnegative")
    shells = [seeds]
    while len(shells) <= d:
        if len(shells) > 2 and np.array_equal(shells[-1], shells[-3]):
            shells += shells[-2:] * ((d + 2 - len(shells)) // 2)
            break
        shells.append(step(shells[-1]))
    return shells[: d + 1]


def shell_bits(g: Graph, seeds: np.ndarray, d: int) -> list[np.ndarray]:
    """The shells of several vertex sets at depths 0..d, in one sweep.

    ``seeds`` is an unsigned integer array over V(g) with one bit per set:
    bit j of ``seeds[v]`` says v is in set j.  Entry t of the result has the
    same form for the endpoints of walks of length exactly t, so bit j of
    ``shells[t][v]`` says some such walk joins set j to v.  A step is one
    gather and one ``bitwise_or.reduceat`` over the rows of
    ``neighbor_arrays(g)``, linear in |V| + |E| whatever the number of sets;
    a vertex with no neighbor ends no walk of positive length, so it stays 0.
    The sweep stops at the first repeat, as ``_sweep`` says.
    """
    ptr, dst = neighbor_arrays(g)
    rows = np.flatnonzero(ptr[1:] != ptr[:-1])
    # reduceat gives a[i] for an empty segment, so only rows with a neighbor
    # are reduced; each one's segment then ends where the next one starts
    starts = ptr[rows].astype(np.intp)

    def step(shell: np.ndarray) -> np.ndarray:
        out = np.zeros_like(shell)
        if rows.size:
            out[rows] = np.bitwise_or.reduceat(np.take(shell, dst), starts)
        return out

    return _sweep(seeds, d, step)


def omega_shell_bits(omega: OmegaGraph, seeds: np.ndarray, t: int) -> list[np.ndarray]:
    """``shell_bits(omega.graph, seeds, t)``, read off the coordinate rule.

    With n = ``omega.n`` and d = ``omega.d``, two tuples are adjacent
    exactly when every coordinate pair lies in the relation R' = {(a, a+1),
    (a+1, a) : 1 <= a <= d} + {(d+1, d+1), (0, 1), (1, 0)}: each tuple has
    one 0, and (0, 1) puts a 1 opposite it.  So a step scatters the shell at
    the vertex codes into a zeroed array over the whole (d+2)^n code space,
    where a code off the vertex set holds 0, and makes one pass per
    coordinate, in which value a takes the OR of its R'-partners: 1 for 0,
    a - 1 and a + 1 for 1 <= a <= d, d and d+1 for d+1.  After n passes the
    value at a code is the OR over every code R'-related to it at each
    coordinate, so at a vertex it is the OR over its neighbors; it is
    gathered at the vertex codes.  A pass ORs the whole array shifted one
    value up and one down along its coordinate, as one contiguous operation
    in the widest unsigned words the coordinate's stride allows, then
    rewrites the two ends of the coordinate.  Two reused buffers over the
    code space take the place of the host's CSR arrays.
    """
    side, codes = omega.d + 2, omega.codes
    buffers = np.empty((2, side**omega.n * seeds.itemsize), dtype=np.uint8)

    def step(shell: np.ndarray) -> np.ndarray:
        src, out = buffers
        src.fill(0)
        src.view(shell.dtype)[codes] = shell
        for axis in range(omega.n):
            # bytes one coordinate step apart, read in words of up to 8 bytes
            stride = side ** (omega.n - 1 - axis) * shell.itemsize
            word = np.dtype(f"u{math.gcd(stride, 8)}")
            a, b, s = src.view(word), out.view(word), stride // word.itemsize
            np.bitwise_or(a[: -2 * s], a[2 * s :], out=b[s:-s])
            a, b = a.reshape(-1, side, s), b.reshape(-1, side, s)
            b[:, 0] = a[:, 1]
            np.bitwise_or(a[:, -2], a[:, -1], out=b[:, -1])
            src, out = out, src
        return np.take(src.view(shell.dtype), codes)

    return _sweep(seeds, t, step)


def n_shells(g: Graph, members: np.ndarray, d: int) -> list[np.ndarray]:
    """Endpoints of walks of length exactly t from ``members``, for t in 0..d.

    ``members`` and each shell are boolean arrays over V(g).  This is the
    one-set case of ``shell_bits``: the membership flags are its seed bits.
    """
    flags = vertex_flags(g, members)
    return [s.view(bool) for s in shell_bits(g, flags.view(np.uint8), d)]


# -- adjoint graphs, integer tuple form -------------------------------------


def omega_vertex_count(n: int, d: int) -> int:
    """Closed-form order of the tuple adjoint: n * ((d+1)^(n-1) - d^(n-1))."""
    return n * ((d + 1) ** (n - 1) - d ** (n - 1))


def omega_edge_count(n: int, d: int) -> int:
    """Closed-form size of the tuple adjoint: C(n, 2) * (2d+1)^(n-2).

    An edge joins tuples with zeros at two positions p < q, a 1 opposite
    each zero, and at each of the other n - 2 coordinates one of the 2d + 1
    value pairs in ``1..d+1`` that differ by one or both equal d+1; the 1s
    opposite the zeros make both ends valid.
    """
    return n * (n - 1) // 2 * (2 * d + 1) ** (n - 2)


def _omega_vertices(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(digits, codes): the valid tuples as rows of a (vertices, n) int8
    array, in lexicographic order, checked against the closed-form count,
    and the base-(d+2) integer each one spells, ascending.

    Valid means: entries in ``0..d+1``, exactly one 0, at least one 1.  The
    lexicographic order pins vertex indices, keeping every downstream label,
    coloring and certificate reproducible.  The tuples are read off an
    enumeration of the whole code space in numeric order, so a tuple's code
    is its position there.
    """
    if n < 2 or d < 1:
        raise ValueError(f"tuple adjoint needs n >= 2 and d >= 1, got n={n} d={d}")
    # refused before the (d+2)^n code space is enumerated: by the bound of
    # ``new_graph``, then by the size of the digit array
    count = omega_vertex_count(n, d)
    if count > 1 << 31:
        raise ValueError(
            f"tuple adjoint at n={n} d={d} has {count} vertices, past 2**31, "
            "the most int32 vertices can number"
        )
    space = (d + 2) ** n
    if n * space > 2 << 30:  # bytes of the int8 digit array
        raise ValueError(
            f"tuple adjoint at n={n} d={d} enumerates {space} codes of {n} digits, "
            "past the 2 GiB bound on its digit array"
        )
    digits = np.indices((d + 2,) * n, dtype=np.int8).reshape(n, -1).T
    valid = ((digits == 0).sum(axis=1) == 1) & (digits == 1).any(axis=1)
    codes = np.flatnonzero(valid)
    if len(codes) != count:
        raise RuntimeError(
            f"tuple enumeration produced {len(codes)} vertices, formula says {count}"
        )
    return digits[codes], codes


def _coordinate_pairs(d: int) -> np.ndarray:
    """The 2d + 1 value pairs ``(x_j, y_j)`` that a coordinate off both
    zeros may take on an edge x-y, as the rows of a (2d+1, 2) array:
    ``(a, a+1)`` and ``(a+1, a)`` for a in 1..d, then ``(d+1, d+1)``."""
    a = np.arange(1, d + 1, dtype=np.int64)
    return np.vstack((np.column_stack((a, a + 1)), np.column_stack((a + 1, a)), [[d + 1, d + 1]]))


@dataclass
class OmegaGraph:
    """Tuple adjoint graph plus its vertex tuples.

    ``n`` is the complete base's order (also the color count of the
    zero-position coloring) and ``d`` the half width: the graph is the right
    adjoint of the (2d+1)-walk power at K_n.  ``digits`` holds the tuples as
    the rows of a (vertices, n) int8 array, in vertex order, and ``codes``
    the base-(d+2) integer each tuple spells (ascending, intp): its index in
    the (d+2)^n code space.
    """

    graph: Graph
    digits: np.ndarray = field(repr=False)
    codes: np.ndarray = field(repr=False)
    n: int
    d: int

    def zero_positions(self) -> np.ndarray:
        """0-based position of the unique 0 in each tuple."""
        return np.argmax(self.digits == 0, axis=1)


def _omega_edges(codes: np.ndarray, n: int, d: int) -> np.ndarray:
    """The edges of the tuple adjoint of K_n on the vertices with base-(d+2)
    ``codes``, as an (edges, 2) int32 array of vertex pairs, each edge
    generated once.

    A dense int32 table over all (d+2)^n codes maps each code to its vertex
    (-1 for a code that is not a valid tuple).  The ends x, y of an edge
    have their zeros at two positions p < q, with x_q = 1 and y_p = 1, and
    every other coordinate holds one of the pairs of
    ``_coordinate_pairs``.  For each p < q the codes of both ends are outer
    sums over those coordinates, so every combination of pairs is one edge.
    """
    weights = (d + 2) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    # vertex index of every code in the (d+2)^n code space, -1 off the set
    index = np.full((d + 2) ** n, -1, dtype=np.int32)
    index[codes] = np.arange(len(codes), dtype=np.int32)
    pairs = _coordinate_pairs(d)
    ends = []
    for p in range(n):
        for q in range(p + 1, n):
            x, y = weights[q : q + 1], weights[p : p + 1]
            for j in range(n):
                if j != p and j != q:
                    x = np.add.outer(x, pairs[:, 0] * weights[j]).ravel()
                    y = np.add.outer(y, pairs[:, 1] * weights[j]).ravel()
            ends.append(np.column_stack((index[x], index[y])))
    edges = np.concatenate(ends)
    if (edges < 0).any():
        raise RuntimeError("tuple adjoint enumeration left the vertex set")
    return edges


def omega_tuples(n: int, d: int) -> OmegaGraph:
    """Build the tuple adjoint of K_n at half width d.

    The edges come from ``_omega_edges``.  Every tuple it generates is a
    valid neighbor and every edge is generated exactly once, so total work
    is proportional to the number of edges, not to the square of the order.
    Both are checked: RuntimeError if the enumeration leaves the vertex set,
    generates an edge more than once, or yields an edge count other than
    ``omega_edge_count(n, d)``.  ValueError on n < 2, d < 1, more than
    2**31 vertices or a code space whose digits pass 2 GiB, the last two
    before any enumeration.
    """
    digits, codes = _omega_vertices(n, d)
    edges = _omega_edges(codes, n, d)
    g = new_graph(len(codes), edges)
    if g.edge_count < len(edges):
        raise RuntimeError(
            f"tuple adjoint enumeration generated {len(edges) - g.edge_count} edges more than once"
        )
    expect = omega_edge_count(n, d)
    if g.edge_count != expect:
        raise RuntimeError(
            f"tuple adjoint enumeration produced {g.edge_count} edges, formula says {expect}"
        )
    return OmegaGraph(graph=g, digits=digits, codes=codes, n=n, d=d)
