"""The tuple adjoint graphs that host the counterexamples, and shell sweeps.

* ``omega_tuples(n, d)`` is the right adjoint of the (2d+1)-walk power at
  the complete graph K_n: vertices are integer tuples in ``{0..d+1}^n``
  with exactly one 0 and at least one 1, adjacent when every coordinate
  pair differs by exactly one or both sit at ``d+1``.  A tuple is held as
  the base-(d+2) integer it spells, its code, and the position of its 0,
  both read off slices of the code space.  An edge is taken literally from
  that definition: two zero positions p < q, a 1 opposite each zero, and
  one of the 2d + 1 allowed value pairs at every other coordinate; the
  codes of both ends are outer sums over the coordinates, located by a
  lookup table over the whole code space.  Each (p, q) block writes its
  edges' pair keys into one array, which is sorted once and becomes the
  graph.  A build whose closed-form footprint passes 2 GiB is refused
  before it starts; a code off the vertex set, an edge generated twice and
  a vertex or edge count other than its closed form are refused.
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
from itertools import combinations

import numpy as np

from .graphs import Graph, _key_array, _key_dtype, _put_keys, neighbor_arrays, vertex_flags

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
    """(codes, zero_positions): the base-(d+2) integer each valid tuple
    spells, ascending (intp), checked against the closed-form count, and
    the 0-based position of its unique 0 (uint8).

    Valid means: entries in ``0..d+1``, exactly one 0, at least one 1.  The
    codes whose coordinate j holds a given value are one slice of the
    (d+2,)*n code space, so each coordinate writes two slices of a byte
    that counts 0s in steps of 2 and sets bit 0 for a 1 (a valid code reads
    3), and one slice of a byte that records where a 0 is.  Ascending codes
    are the tuples in lexicographic order, which pins vertex indices,
    keeping every downstream label, coloring and certificate reproducible.
    """
    shape = (d + 2,) * n
    state, zero = np.zeros(shape, dtype=np.uint8), np.empty(shape, dtype=np.uint8)
    for axis in range(n):
        at = (slice(None),) * axis
        state[at + (0,)] += 2
        zero[at + (0,)] = axis
        state[at + (1,)] |= 1
    codes = np.flatnonzero(state == 3)
    count = omega_vertex_count(n, d)
    if len(codes) != count:
        raise RuntimeError(
            f"tuple enumeration produced {len(codes)} vertices, formula says {count}"
        )
    return codes, zero.ravel()[codes]


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
    adjoint of the (2d+1)-walk power at K_n.  In vertex order, ``codes``
    holds the base-(d+2) integer each tuple spells (ascending, intp), its
    index in the (d+2)^n code space, and ``zero_positions`` the 0-based
    position of each tuple's 0 (uint8).
    """

    graph: Graph
    codes: np.ndarray = field(repr=False)
    zero_positions: np.ndarray = field(repr=False)
    n: int
    d: int


def omega_tuples(n: int, d: int) -> OmegaGraph:
    """Build the tuple adjoint of K_n at half width d.

    The ends x, y of an edge have their zeros at two positions p < q, with
    x_q = 1 and y_p = 1, and every other coordinate holds one of the pairs
    of ``_coordinate_pairs``.  For each such (p, q) block the codes of both
    ends are outer sums over those coordinates, so every combination of
    pairs is one edge; a dense int32 index table over all (d+2)^n codes
    maps each code to its vertex (-1 for a code that is not a valid tuple).
    Each block's oriented pair keys (min << b | max, as ``new_graph`` keys
    them) are written straight into its stretch of one preallocated key
    array, which is sorted once in place and becomes the graph, so work is
    proportional to the number of edges, not to the square of the order.
    Three refusals, each a RuntimeError: a code that leaves the vertex set
    through the index table, a key equal to its sorted neighbour (an edge
    generated more than once), and a key count other than
    ``omega_edge_count(n, d)``.  ValueError on n < 2, d < 1 and, before
    anything is allocated, a footprint past 2 GiB, read off the closed
    forms: 7 bytes a code (the enumeration's two and its validity test,
    then the index table) plus 4 bytes an edge up to 65,536 vertices
    (uint32 keys), 8 past that.  So fewer than 2**31 vertices are built,
    and n < 18 (a coordinate fits a byte).
    """
    if n < 2 or d < 1:
        raise ValueError(f"tuple adjoint needs n >= 2 and d >= 1, got n={n} d={d}")
    space, edges = (d + 2) ** n, omega_edge_count(n, d)
    need = 7 * space + edges * _key_dtype(omega_vertex_count(n, d)).itemsize
    if need > 2 << 30:
        raise ValueError(
            f"tuple adjoint at n={n} d={d} needs {need} bytes for its {space} codes "
            f"and {edges} edge keys, past the 2 GiB bound on a host build"
        )
    codes, zero = _omega_vertices(n, d)
    weights = (d + 2) ** np.arange(n - 1, -1, -1, dtype=np.int64)
    index = np.full(space, -1, dtype=np.int32)
    index[codes] = np.arange(len(codes), dtype=np.int32)
    pairs = _coordinate_pairs(d)
    blocks = list(combinations(range(n), 2))
    keys, b = _key_array(len(codes), len(blocks) * len(pairs) ** (n - 2))
    for part, (p, q) in zip(keys.reshape(len(blocks), -1), blocks):
        x, y = weights[q : q + 1], weights[p : p + 1]
        for j in range(n):
            if j != p and j != q:
                x = np.add.outer(x, pairs[:, 0] * weights[j]).ravel()
                y = np.add.outer(y, pairs[:, 1] * weights[j]).ravel()
        x, y = np.take(index, x), np.take(index, y)
        lo = np.minimum(x, y)
        if lo.min() < 0:
            raise RuntimeError("tuple adjoint enumeration left the vertex set")
        _put_keys(part, lo, np.maximum(x, y, out=x), b)
    del index, x, y, lo  # the table and the last block, freed before the sort
    keys.sort()
    repeats = np.count_nonzero(keys[1:] == keys[:-1])
    if repeats:
        raise RuntimeError(f"tuple adjoint enumeration generated {repeats} edges more than once")
    if keys.size != edges:
        raise RuntimeError(
            f"tuple adjoint enumeration produced {keys.size} edges, formula says {edges}"
        )
    return OmegaGraph(graph=Graph(len(codes), keys), codes=codes, zero_positions=zero, n=n, d=d)
