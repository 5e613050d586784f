"""The tuple adjoint graphs that host the counterexamples, and shell sweeps.

* ``omega_vertices(n, d)`` is the right adjoint of the (2d+1)-walk power at
  the complete graph K_n: vertices are integer tuples in ``{0..d+1}^n``
  with exactly one 0 and at least one 1, adjacent when every coordinate
  pair differs by exactly one or both sit at ``d+1``.  A tuple is held as
  the base-(d+2) integer it spells, its code, and the position of its 0.
  Its ``sha256``, the host's one pin, hashes its DIMACS form on edges
  written for that read alone; its ``graph`` writes and keeps the edges, for
  DIMACS; ``omega_tuples(n, d)`` writes them at once.  A host past 2 GiB is
  refused before it is built, and so is any count other than its closed form.
* ``omega_type_pairs(omega, codings)`` reads the type pairs that the
  edges realize without writing an edge: on each block of zero positions
  adjacency is a tensor product of paths, swept one bit per type.  It
  and the edge write walk the blocks alike (``_block_grids``).
* ``omega_shell_bits(omega, seeds, t)`` sweeps a tuple adjoint for the
  endpoints of walks of length exactly 0..t from up to one vertex set per
  bit of its seed array: a step ORs each coordinate's neighbouring values
  over the (d+2)^n code space, one axis at a time (``_path_step``, the
  grid pass's step too), so a counterexample build sweeps every color
  class of its wide coloring at once.
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

from .graphs import (
    Graph,
    _key_array,
    _key_dtype,
    _put_keys,
    graph_sha256,
    neighbor_arrays,
    vertex_flags,
)

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
    starts = ptr[rows]

    def step(shell: np.ndarray) -> np.ndarray:
        out = np.zeros_like(shell)
        if rows.size:
            out[rows] = np.bitwise_or.reduceat(np.take(shell, dst), starts)
        return out

    return _sweep(seeds, d, step)


def _path_step(a: np.ndarray, b: np.ndarray, side: int, s: int) -> None:
    """One axis step of the coordinate rule from ``a`` into ``b``, flat
    arrays seen as (-1, side, s): value i takes the OR of values i - 1 and
    i + 1, and the top value also its own, a path with a loop at the top.
    That is R' on 0..d+1 (side d + 2) and ``_coordinate_pairs`` on 1..d+1
    (side d + 1): one contiguous shifted OR, then the two ends rewritten."""
    np.bitwise_or(a[: -2 * s], a[2 * s :], out=b[s:-s])
    a, b = a.reshape(-1, side, s), b.reshape(-1, side, s)
    b[:, 0] = a[:, 1]
    np.bitwise_or(a[:, -2], a[:, -1], out=b[:, -1])


def omega_shell_bits(omega: OmegaGraph, seeds: np.ndarray, t: int) -> list[np.ndarray]:
    """``shell_bits(omega.graph, seeds, t)``, read off the coordinate rule,
    with no edge written.

    Two tuples are adjacent exactly when every coordinate pair lies in R' =
    {(a, a+1), (a+1, a) : 1 <= a <= d} + {(d+1, d+1), (0, 1), (1, 0)} (each
    tuple has one 0, with a 1 opposite it).  So a step scatters the shell
    at the vertex codes into a zeroed array over the (d+2)^n code space and
    makes one ``_path_step`` per coordinate, in which value a takes the OR
    of its R' partners; after n passes a vertex code holds the OR over its
    neighbors, gathered at the vertex codes.  A pass reads the array in the
    widest unsigned words the coordinate's stride allows.
    The two code-space buffers and up to t + 1 shells over the vertices
    are checked against ``_host_bound`` before anything is allocated.
    """
    side, codes, width = omega.d + 2, omega.codes, seeds.itemsize
    _host_bound(omega.n, omega.d, width * (2 * side**omega.n + (t + 1) * codes.size), "shell sweep")
    buffers = np.empty((2, side**omega.n * width), dtype=np.uint8)

    def step(shell: np.ndarray) -> np.ndarray:
        src, out = buffers
        src.fill(0)
        src.view(shell.dtype)[codes] = shell
        for axis in range(omega.n):
            # bytes one coordinate step apart, read in words of up to 8 bytes
            stride = side ** (omega.n - 1 - axis) * shell.itemsize
            word = np.dtype(f"u{math.gcd(stride, 8)}")
            _path_step(src.view(word), out.view(word), side, stride // word.itemsize)
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


def _host_bound(n: int, d: int, extra: int | None = None, of: str = "grid chunk") -> int:
    """(d+2)^n, once a host build at (n, d) fits 2 GiB: 7 bytes a code (the
    enumeration's three, an index table's four) plus its edge keys (uint32
    up to 65,536 vertices), or ``extra`` bytes, named by ``of``, when given.
    ValueError otherwise, and on n < 2 or d < 1; 2**29 codes or more are
    refused on bit lengths, before any power is computed.  So n < 18."""
    if n < 2 or d < 1:
        raise ValueError(f"tuple adjoint needs n >= 2 and d >= 1, got n={n} d={d}")
    low, past = n * ((d + 2).bit_length() - 1), "past the 2 GiB bound on a host build"
    if low >= 29:  # (d+2)^n >= 2^low
        raise ValueError(f"tuple adjoint at n={n} d={d} has at least 2**{low} codes, {past}")
    space, what = (d + 2) ** n, f" and a {extra}-byte {of}" if extra else ""
    if extra is None:
        edges = omega_edge_count(n, d)
        extra = edges * _key_dtype(omega_vertex_count(n, d)).itemsize
        what = f" and {edges} edge keys"
    if 7 * space + extra > 2 << 30:
        raise ValueError(
            f"tuple adjoint at n={n} d={d} needs {7 * space + extra} bytes for its {space} "
            f"codes{what}, {past}"
        )
    return space


def _block(n: int, p: int, q: int, d: int) -> tuple:
    """The basic index, into the code space shaped (d+2,)*n, of a block's
    grid: the tuples with 0 at p, 1 at q and 1..d+1 elsewhere.  Flattened,
    the slice lists them in code order."""
    at = [slice(1, d + 2)] * n
    at[p], at[q] = 0, 1
    return tuple(at)


def _grid_positions(pairs: np.ndarray, d: int, n: int) -> np.ndarray:
    """(2, len(pairs)^(n-2)): for each choice of a row of ``pairs`` at the
    n - 2 coordinates off a block's p and q, in code order, its position in
    the flattened ``_block`` slice read through each column, in the
    narrowest dtype.  The same for every block."""
    dtype = np.min_scalar_type((d + 1) ** (n - 2) - 1)
    column, at = (pairs.T - 1).astype(dtype), np.zeros((2, 1), dtype=dtype)
    for axis in range(n - 2):
        at = (at[:, :, None] + column[:, None, :] * (d + 1) ** (n - 3 - axis)).reshape(2, -1)
    return at


def _block_grids(omega: OmegaGraph, blocks: list[tuple[int, int]], per: int):
    """(chunk, x, y) for each run of ``per`` blocks (p, q) of ``blocks``: x
    holds the vertices of the grids with 0 at p and 1 at q, y those with 0
    at q and 1 at p, block after block, each one ``_block`` slice of an
    int32 index table shaped as the code space (-1 off the vertex set).
    Past ``_host_bound``.  RuntimeError on a grid code off the vertex set."""
    n, d = omega.n, omega.d
    index = np.full((d + 2) ** n, -1, dtype=np.int32)
    index[omega.codes] = np.arange(len(omega.codes), dtype=np.int32)
    cube = index.reshape((d + 2,) * n)
    for start in range(0, len(blocks), per):
        chunk = blocks[start : start + per]
        x = np.concatenate([cube[_block(n, p, q, d)] for p, q in chunk], axis=None)
        y = np.concatenate([cube[_block(n, q, p, d)] for p, q in chunk], axis=None)
        if min(x.min(), y.min()) < 0:
            raise RuntimeError("tuple adjoint grid left the vertex set")
        yield chunk, x, y


@dataclass
class OmegaGraph:
    """Tuple adjoint graph plus its vertex tuples.

    ``n`` is the complete base's order (also the color count of the
    zero-position coloring) and ``d`` the half width: the graph is the right
    adjoint of the (2d+1)-walk power at K_n.  In vertex order, ``codes``
    holds the base-(d+2) integer each tuple spells (ascending, intp), its
    index in the (d+2)^n code space, and ``zero_positions`` the 0-based
    position of each tuple's 0 (uint8).  ``graph`` is written on first read
    and kept.  ``sha256``, the host's pin, is the SHA-256 of its DIMACS
    form, kept on first read and hashed on edge keys written for that read
    alone.  Shaped (d+2,)*n, the code space holds each side of a (p, q)
    block of edges as one basic slice (``_block``): the key write and the
    grid pass walk those slices alike (``_block_grids``), with no code
    arithmetic, and refuse a grid code missing from ``codes``.
    """

    codes: np.ndarray = field(repr=False)
    zero_positions: np.ndarray = field(repr=False)
    n: int
    d: int

    @cached_property
    def graph(self) -> Graph:
        return Graph(len(self.codes), _omega_keys(self))

    @cached_property
    def sha256(self) -> str:
        return graph_sha256(Graph(len(self.codes), _omega_keys(self)))


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
    for each choice of ``_coordinate_pairs`` at the other coordinates.  The
    blocks are walked one at a time (``_block_grids``), and each choice's x
    and y are read off the two grids at positions computed once per call
    (``_grid_positions``).  RuntimeError on a grid code off the vertex set,
    an edge generated twice and a count other than ``omega_edge_count``."""
    n, d = omega.n, omega.d
    _host_bound(n, d)
    pairs, blocks = _coordinate_pairs(d), list(combinations(range(n), 2))
    at = _grid_positions(pairs, d, n)
    keys, b = _key_array(len(omega.codes), len(blocks) * len(pairs) ** (n - 2))
    for (_, x, y), part in zip(_block_grids(omega, blocks, 1), keys.reshape(len(blocks), -1)):
        x, y = np.take(x, at[0]), np.take(y, at[1])
        _put_keys(part, np.minimum(x, y), np.maximum(x, y, out=x), b)
    del x, y  # the last block (the walk, done, freed its table), freed before the sort
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
    ``_omega_keys`` range over one grid of the values 1..d+1, related by
    ``_coordinate_pairs`` at each other coordinate.  Each type owns a bit
    of a row of uint64 words.  Walking the blocks about ``_GRID_BYTES`` of
    words at a time (``_block_grids``), a chunk seeds each y with its
    types' bits and takes one ``_path_step`` per axis, so each x holds the
    bits of the y joined to it, ORed into its types' rows.  The count is
    the blocks walked times len(``_coordinate_pairs``)^(n-2): a walk that
    skips or repeats a block, or a pair table of the wrong length, is
    refused, as is a grid code off the vertex set.  The chunk is checked
    against ``_host_bound`` before anything is allocated."""
    n, d = omega.n, omega.d
    pairs, blocks = _coordinate_pairs(d), list(combinations(range(n), 2))
    offsets = np.cumsum([0, *(size for _, size in codings)]).tolist()
    words = max(1, -(-offsets[-1] // 64))
    grid = (d + 1) ** (n - 2)
    per = max(1, _GRID_BYTES // (grid * words * 8))
    size = min(per, len(blocks)) * grid * words
    _host_bound(n, d, size * 8)
    # row t holds bit t alone; a coding's rows and bits start at its offset
    one_hot = np.packbits(np.eye(offsets[-1], 64 * words, dtype=bool), axis=1, bitorder="little")
    one_hot = one_hot.view("<u8")
    rows, edges = np.zeros_like(one_hot), 0
    buffers = np.empty((2, size), dtype=np.uint64)
    coded = [(lo, hi, code) for lo, hi, (code, _) in zip(offsets, offsets[1:], codings)]
    for chunk, x, y in _block_grids(omega, blocks, per):
        src, out = buffers[:, : x.size * words]
        near = src.reshape(-1, words)
        near.fill(0)
        for lo, hi, code in coded:
            near |= np.take(one_hot[lo:hi], np.take(code, y), axis=0)
        for axis in range(n - 2):
            _path_step(src, out, d + 1, (d + 1) ** (n - 3 - axis) * words)
            src, out = out, src
        near = src.reshape(-1, words)
        for lo, hi, code in coded:
            types = np.take(code, x)
            order = np.argsort(types, kind="stable")
            types = types[order]
            first = np.flatnonzero(np.concatenate(([True], types[1:] != types[:-1])))
            rows[lo:hi][types[first]] |= np.bitwise_or.reduceat(
                np.take(near, order, axis=0), first, axis=0
            )
        edges += len(chunk) * len(pairs) ** (n - 2)  # the sum over x factors by axis
    if edges != omega_edge_count(n, d):
        raise RuntimeError(
            f"tuple adjoint grid counted {edges} edges, formula says {omega_edge_count(n, d)}"
        )
    flags = np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little").view(bool)
    return [flags[lo:hi, lo:hi] | flags[lo:hi, lo:hi].T for lo, hi, _ in coded], edges
