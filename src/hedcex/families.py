"""The tuple adjoint graphs that host the counterexamples, and shell sweeps.

* ``omega_vertices(n, d)`` is the right adjoint of the (2d+1)-walk power at
  the complete graph K_n: vertices are integer tuples in ``{0..d+1}^n``
  with exactly one 0 and at least one 1, adjacent when every coordinate
  pair differs by exactly one or both sit at ``d+1``.  A tuple is held as
  the base-(d+2) integer it spells, its code, and the position of its 0.
  Its ``graph`` writes the edges on first read; ``omega_tuples(n, d)``
  writes them at once.  A host past 2 GiB is refused before it is built,
  and so is any count other than its closed form.
* ``omega_type_pairs(omega, codings)`` reads the type pairs that the
  edges realize without writing an edge: on each block of zero positions
  adjacency is a tensor product of paths, swept one bit per type.
* ``omega_shell_bits(omega, seeds, t)`` sweeps a tuple adjoint for the
  endpoints of walks of length exactly 0..t from up to one vertex set per
  bit of its seed array: a step ORs each coordinate's neighbouring values
  over the (d+2)^n code space, one axis at a time, so a counterexample
  build sweeps every color class of its wide coloring at once.
* ``shell_bits(g, seeds, t)`` is the same sweep on any graph, over its CSR
  neighbor arrays, linear in |V| + |E| per step; ``n_shells`` is its
  one-set case.  Both stop at the first shell that repeats the one two
  steps back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
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
    "omega_vertices",
    "omega_tuples",
    "omega_type_pairs",
]

# Bytes of type words per chunk of ``omega_type_pairs``, which holds about 4x.
_GRID_BYTES = 1 << 18


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
    """``shell_bits(omega.graph, seeds, t)``, read off the coordinate rule,
    with no edge written.

    Two tuples are adjacent exactly when every coordinate pair lies in R' =
    {(a, a+1), (a+1, a) : 1 <= a <= d} + {(d+1, d+1), (0, 1), (1, 0)} (each
    tuple has one 0, with a 1 opposite it).  So a step scatters the shell
    at the vertex codes into a zeroed array over the (d+2)^n code space and
    makes one pass per coordinate, in which value a takes the OR of its R'
    partners; after n passes a vertex code holds the OR over its neighbors,
    gathered at the vertex codes.  A pass ORs the array shifted one value up
    and one down along its coordinate, one contiguous operation in the
    widest unsigned words the stride allows, then rewrites the two ends.
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
    """Closed-form size of the tuple adjoint: C(n, 2) * (2d+1)^(n-2), an edge
    per pair p < q of zero positions and choice of ``_coordinate_pairs``."""
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


def _host_bound(n: int, d: int, grid: int | None = None) -> int:
    """(d+2)^n, once a host build at (n, d) fits 2 GiB: 7 bytes a code (the
    enumeration's three, an index table's four) plus its edge keys (uint32
    up to 65,536 vertices), or ``grid`` bytes when given.  ValueError
    otherwise, and on n < 2 or d < 1; 2**29 codes or more are refused on
    bit lengths, before any power is computed.  So n < 18."""
    if n < 2 or d < 1:
        raise ValueError(f"tuple adjoint needs n >= 2 and d >= 1, got n={n} d={d}")
    low, past = n * ((d + 2).bit_length() - 1), "past the 2 GiB bound on a host build"
    if low >= 29:  # (d+2)^n >= 2^low
        raise ValueError(f"tuple adjoint at n={n} d={d} has at least 2**{low} codes, {past}")
    space, what = (d + 2) ** n, f" and a {grid}-byte grid chunk" if grid else ""
    if grid is None:
        edges = omega_edge_count(n, d)
        grid = edges * _key_dtype(omega_vertex_count(n, d)).itemsize
        what = f" and {edges} edge keys"
    if 7 * space + grid > 2 << 30:
        raise ValueError(
            f"tuple adjoint at n={n} d={d} needs {7 * space + grid} bytes for its {space} "
            f"codes{what}, {past}"
        )
    return space


def _block_codes(n: int, d: int, p: int, q: int, values: np.ndarray) -> np.ndarray:
    """Codes of the tuples with 0 at p, 1 at q and ``values`` elsewhere."""
    codes = np.array([(d + 2) ** (n - 1 - q)])
    for j in range(n):
        if j != p and j != q:
            codes = np.add.outer(codes, values * (d + 2) ** (n - 1 - j)).ravel()
    return codes


@dataclass
class OmegaGraph:
    """Tuple adjoint graph plus its vertex tuples.

    ``n`` is the complete base's order (also the color count of the
    zero-position coloring) and ``d`` the half width: the graph is the right
    adjoint of the (2d+1)-walk power at K_n.  In vertex order, ``codes``
    holds the base-(d+2) integer each tuple spells (ascending, intp), its
    index in the (d+2)^n code space, and ``zero_positions`` the 0-based
    position of each tuple's 0 (uint8).  ``graph`` is written on first read.
    """

    codes: np.ndarray = field(repr=False)
    zero_positions: np.ndarray = field(repr=False)
    n: int
    d: int

    @cached_property
    def graph(self) -> Graph:
        return Graph(len(self.codes), _omega_keys(self))


def omega_vertices(n: int, d: int) -> OmegaGraph:
    """The tuple adjoint of K_n at half width d, with no edge written yet."""
    _host_bound(n, d, 0)
    return OmegaGraph(*_omega_vertices(n, d), n=n, d=d)


def omega_tuples(n: int, d: int) -> OmegaGraph:
    """The tuple adjoint of K_n at half width d, with its edges written."""
    _host_bound(n, d)
    omega = OmegaGraph(*_omega_vertices(n, d), n=n, d=d)
    omega.graph  # written now, not on first read
    return omega


def _omega_keys(omega: OmegaGraph) -> np.ndarray:
    """The sorted pair keys of the edges of ``omega``, past ``_host_bound``.
    Block (p, q), p < q, joins x (0 at p, x_q = 1) to y (0 at q, y_p = 1)
    for each choice of ``_coordinate_pairs`` at the other coordinates, both
    located by an int32 index table over the code space (-1 off the vertex
    set).  RuntimeError on a code off the vertex set, an edge generated
    twice and a count other than ``omega_edge_count``."""
    n, d, codes = omega.n, omega.d, omega.codes
    index = np.full(_host_bound(n, d), -1, dtype=np.int32)
    index[codes] = np.arange(len(codes), dtype=np.int32)
    pairs = _coordinate_pairs(d)
    blocks = list(combinations(range(n), 2))
    keys, b = _key_array(len(codes), len(blocks) * len(pairs) ** (n - 2))
    for part, (p, q) in zip(keys.reshape(len(blocks), -1), blocks):
        x = np.take(index, _block_codes(n, d, p, q, pairs[:, 0]))
        y = np.take(index, _block_codes(n, d, q, p, pairs[:, 1]))
        lo = np.minimum(x, y)
        if lo.min() < 0:
            raise RuntimeError("tuple adjoint enumeration left the vertex set")
        _put_keys(part, lo, np.maximum(x, y, out=x), b)
    del index, x, y, lo  # the table and the last block, freed before the sort
    keys.sort()
    repeats = np.count_nonzero(keys[1:] == keys[:-1])
    if repeats:
        raise RuntimeError(f"tuple adjoint enumeration generated {repeats} edges more than once")
    if keys.size != omega_edge_count(n, d):
        raise RuntimeError(
            f"tuple adjoint enumeration produced {keys.size} edges, "
            f"formula says {omega_edge_count(n, d)}"
        )
    return keys


def omega_type_pairs(
    omega: OmegaGraph, codings: list[tuple[np.ndarray, int]]
) -> tuple[list[np.ndarray], int]:
    """(pairs, edges): for each coding (code, K) of the vertices into types
    0..K-1 (sorted fastest in 16 bits or fewer), the symmetric (K, K)
    relation of the type pairs that edges of ``omega`` join, and the edges
    counted, with no edge written.  Both ends of block (p, q) of
    ``_omega_keys`` range over one grid of the values of R0 =
    ``_coordinate_pairs``, related as a tensor product of paths.  Each type
    owns a bit of a row of uint64 words.  A chunk of blocks (at least one)
    seeds each y with its types' bits, then per axis ORs into each value its
    R0 partners (a slice per run at one offset), so each x holds the bits
    of the y joined to it, ORed into its types' rows.  A block counts
    sum_x prod_j |R0 partners of x_j| edges.  RuntimeError on a grid code off
    the vertex set and on a count other than the closed form."""
    n, d = omega.n, omega.d
    pairs = _coordinate_pairs(d)
    values = np.flatnonzero(np.bincount(pairs.ravel()))  # np.unique would import numpy.ma
    a, b = np.searchsorted(values, pairs.T)
    # runs (lo, hi, s): values lo..hi-1 take the OR of values lo+s..hi-1+s
    s, a = np.array(sorted(zip((b - a).tolist(), a.tolist()))).T
    cut = np.flatnonzero((np.diff(a) != 1) | (np.diff(s) != 0)) + 1
    runs = [(r[0], r[-1] + 1, t[0]) for r, t in zip(np.split(a, cut), np.split(s, cut))]
    offsets = np.cumsum([0, *(size for _, size in codings)]).tolist()
    words = max(1, -(-offsets[-1] // 64))
    grid, blocks = len(values) ** (n - 2), list(combinations(range(n), 2))
    per = max(1, _GRID_BYTES // (grid * words * 8))
    index = np.full(_host_bound(n, d, min(per, len(blocks)) * grid * words * 8), -1, np.int32)
    index[omega.codes] = np.arange(len(omega.codes), dtype=np.int32)
    # row t holds bit t alone; a coding's rows and bits start at its offset
    one_hot = np.packbits(np.eye(offsets[-1], 64 * words, dtype=bool), axis=1, bitorder="little")
    one_hot = one_hot.view("<u8")
    rows, edges = np.zeros_like(one_hot), 0
    coded = [(lo, hi, code) for lo, hi, (code, _) in zip(offsets, offsets[1:], codings)]
    for start in range(0, len(blocks), per):
        chunk = blocks[start : start + per]
        x = np.take(index, np.concatenate([_block_codes(n, d, p, q, values) for p, q in chunk]))
        y = np.take(index, np.concatenate([_block_codes(n, d, q, p, values) for p, q in chunk]))
        if min(x.min(), y.min()) < 0:
            raise RuntimeError("tuple adjoint grid left the vertex set")
        near = np.zeros((x.size, words), dtype=np.uint64)
        for lo, hi, code in coded:
            near |= np.take(one_hot[lo:hi], np.take(code, y), axis=0)
        for axis in range(n - 2):
            near = near.reshape(len(chunk) * len(values) ** axis, len(values), -1)
            out = np.zeros_like(near)
            for lo, hi, step in runs:
                out[:, lo:hi] |= near[:, lo + step : hi + step]
            near = out
        for lo, hi, code in coded:
            types = np.take(code, x)
            order = np.argsort(types, kind="stable")
            types = types[order]
            first = np.flatnonzero(np.concatenate(([True], types[1:] != types[:-1])))
            rows[lo:hi][types[first]] |= np.bitwise_or.reduceat(
                np.take(near.reshape(-1, words), order, axis=0), first, axis=0
            )
        edges += len(chunk) * len(pairs) ** (n - 2)  # the sum over x factors by axis
    if edges != omega_edge_count(n, d):
        raise RuntimeError(
            f"tuple adjoint grid counted {edges} edges, formula says {omega_edge_count(n, d)}"
        )
    flags = np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little").view(bool)
    return [flags[lo:hi, lo:hi] | flags[lo:hi, lo:hi].T for lo, hi, _ in coded], edges
