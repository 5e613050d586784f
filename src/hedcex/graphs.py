"""Loopy undirected graphs on dense integer vertices.

A graph is its order and one ascending, de-duplicated array of pair keys
``u << b | v``, one per edge with ``u <= v``, which ``new_graph`` makes
from any edge list and a tuple adjoint's ``graph`` writes directly.
``_key_layout`` gives their dtype and b: uint32 (4 bytes an edge) up to
65,536 vertices, uint64 past that.  Every reader splits the endpoints off
the keys ``_CHUNK`` edges at a time with ``edge_slices``: the isolation
check of ``widecolor``, the hash, ``edges()``, ``loops()`` and the class
sweep's CSR, so no host-length endpoint array is kept.  A counterexample
build reads no edge: it takes the type pairs off the tuple adjoint's
coordinate rule.
Vertex sets are boolean membership arrays over ``0..n-1``.

Graphs are treated as immutable once built and hold nothing but their
order and keys: ``neighbor_arrays`` and the hash are computed afresh on
every call, so a caller that needs one twice keeps it itself.  Labels
live in side tables kept by the callers.
"""

from __future__ import annotations

import hashlib
import re
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "Graph",
    "new_graph",
    "vertex_flags",
    "parse_dimacs",
    "emit_dimacs",
    "graph_sha256",
    "edge_slices",
    "neighbor_arrays",
]

# Edges per slice of ``edge_slices``, for every reader of the ``_key_layout``
# keys: 64 KB of intp endpoints per side, and the line buffer behind the
# hash holds 8,192 lines of two to four 8-byte words (128 KB at two, as on
# every shipped host).  Larger slices hash no faster and raise the peak RSS
# of a c5_refined round trip (42.0 MB at 65,536 edges per slice, 38.6 MB at
# 8,192).
_CHUNK = 1 << 13


class Graph:
    """Undirected graph, loops allowed, vertices ``0..n-1``.

    ``keys`` holds the edges as the ascending, distinct pair keys of
    ``_key_layout``, each with u <= v, as ``new_graph`` and a tuple
    adjoint's ``graph`` make them; the graph takes the array over.
    """

    __slots__ = ("n", "keys")

    def __init__(self, n: int, keys: np.ndarray):
        self.n = n
        self.keys = keys

    def loops(self) -> int:
        return sum(int(np.count_nonzero(u == v)) for u, v in edge_slices(self))

    @property
    def edge_count(self) -> int:
        """Number of edges; a loop counts once."""
        return int(self.keys.size)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as ``(u, v)`` with ``u <= v``, ascending."""
        for u, v in edge_slices(self):
            yield from zip(u.tolist(), v.tolist())

    def __repr__(self) -> str:
        return f"<Graph n={self.n} m={self.edge_count}>"


def _unique_sorted(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys``, ascending, as ``np.unique`` gives them.

    One sort and one comparison of neighbours keep the first of each run,
    with no hash table; ``keys`` itself is left as it was.
    """
    keys = np.sort(keys, axis=None)
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _key_layout(n: int) -> tuple[np.dtype, int]:
    """The dtype and b of the pair keys ``u << b | v`` of an n-vertex graph,
    which compare as the pairs do: b is the bits of the low vertex, and the
    keys are uint32 when 2b <= 32, as on every shipped host, and uint64
    otherwise (``new_graph`` caps n at 2**31, so b <= 31)."""
    b = max(n - 1, 0).bit_length()
    return np.dtype(np.uint32 if 2 * b <= 32 else np.uint64), b


def _put_keys(part: np.ndarray, u: np.ndarray, v: np.ndarray, b: int) -> None:
    """Write the keys ``u << b | v`` into ``part`` in place, each side cast
    to the key dtype as it is read (a signed side included)."""
    np.copyto(part, u, casting="unsafe")
    part <<= b
    np.bitwise_or(part, v, out=part, dtype=part.dtype, casting="unsafe")


def edge_slices(g: Graph) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The endpoints ``(u, v)`` of the edges of ``g`` in order, ``_CHUNK``
    edges at a time: u shifted off the high bits of the keys ``u << b | v``
    and v masked off the low b, each cast to intp, the index type numpy
    gathers with, as it is written (numpy's buffered cast, so no whole-width
    temporary is made).  A caller that gathers several arrays per edge
    reads them all at one split, and no host-length index array is made."""
    _, b = _key_layout(g.n)
    for lo in range(0, g.keys.size, _CHUNK):
        keys = g.keys[lo : lo + _CHUNK]
        u, v = np.empty(keys.size, dtype=np.intp), np.empty(keys.size, dtype=np.intp)
        np.right_shift(keys, b, out=u, casting="unsafe")
        np.bitwise_and(keys, (1 << b) - 1, out=v, casting="unsafe")
        yield u, v


def _is_integer(x) -> bool:
    """True for a Python or numpy integer, and False for a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def new_graph(n: int, edges: Iterable[tuple[int, int]] | np.ndarray) -> Graph:
    """Build a graph from an edge list: an iterable of pairs or an (m, 2) array.

    The list is symmetrized and de-duplicated; ``(v, v)`` entries become
    loops.  Raises ValueError on more than 2**31 vertices (the key width
    ``_key_layout`` assumes: b <= 31), on a pair that is not two integers
    (floats, bools and strings are refused, not cast) and on an endpoint
    outside ``0..n-1``.
    The result holds one key per edge, ascending, each with ``u <= v``.
    """
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if n > 1 << 31:
        raise ValueError(f"vertex count {n} exceeds 2**31, the most the edge keys are sized for")
    listed = None if isinstance(edges, np.ndarray) else list(edges)
    # an integer array is read as it is (``_plain_dimacs`` passes int64 edges)
    pairs = np.asarray(edges if listed is None else listed)
    if pairs.size == 0:
        pairs = np.zeros((0, 2), dtype=np.int32)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be pairs of vertices")
    if pairs.dtype.kind not in "iu":
        listed = pairs.tolist() if listed is None else listed
        bad = next((p for p in listed if not all(map(_is_integer, p))), None)
        if bad is not None:
            raise ValueError(f"edge {tuple(bad)} is not a pair of integers")
        # integers that share no numpy integer dtype (int64 mixed with
        # uint64, or past them) are read as floats, exact below 2**53, or
        # as Python ints; the range check refuses any past 2**31
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        outside = np.flatnonzero(((pairs < 0) | (pairs >= n)).any(axis=1))
        u, v = pairs[outside[0]].tolist()
        raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
    lo, hi = pairs[:, 0], pairs[:, 1]
    dtype, b = _key_layout(n)
    keys = np.empty(lo.size, dtype=dtype)
    _put_keys(keys, np.minimum(lo, hi), np.maximum(lo, hi), b)
    return Graph(n, _unique_sorted(keys))


def vertex_flags(g: Graph, members: np.ndarray) -> np.ndarray:
    """``members`` as it is, once checked to be a boolean array over V(g)."""
    if not isinstance(members, np.ndarray) or members.dtype != bool or members.shape != (g.n,):
        raise ValueError(f"vertex set arrays are boolean of shape ({g.n},)")
    return members


def neighbor_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric adjacency of ``g`` in CSR (compressed sparse row) form, for
    the class sweep of ``families.shell_bits``, its one caller.

    The neighbors of ``v`` are ``dst[ptr[v]:ptr[v + 1]]``, non-decreasing,
    with a loop listed twice, which the sweep's OR reads as once; ``ptr`` is
    intp and ``dst`` has the key dtype.  Both are sorted off the keys and
    their swapped halves afresh on every call.
    """
    # the arcs u -> v of every edge are its key, the arcs v -> u its halves
    # swapped, written after them a slice at a time, and all are sorted in place
    dtype, b = _key_layout(g.n)
    lo = g.edge_count
    keys = np.empty(2 * lo, dtype=dtype)
    keys[:lo] = g.keys
    for u, v in edge_slices(g):
        _put_keys(keys[lo : lo + u.size], v, u, b)
        lo += u.size
    keys.sort()
    # row v starts at the first key at or above v << b
    ptr = np.append(np.searchsorted(keys, np.arange(g.n, dtype=keys.dtype) << b), keys.size)
    keys &= (1 << b) - 1
    return ptr, keys


# -- DIMACS col format ----------------------------------------------------


def parse_dimacs(text: str) -> Graph:
    """Parse the DIMACS ``.col`` dialect: ``p edge N M`` then ``e u v`` lines.

    Vertices are 1-based in the file and 0-based in the result.  ``c`` lines
    are comments.  Duplicate edge lines collapse; ``e v v`` is a loop.
    Raises ValueError on malformed lines or endpoints outside ``1..N``; a
    number is ASCII ``-?[0-9]+``, so signs, underscores and other digits
    are malformed.

    A plain file is read in one numpy pass (``_plain_dimacs``), which only
    ever accepts.  Any other text is read here one ``str.splitlines`` line
    at a time, and the first bad line raises with its 1-based number.
    """
    g = _plain_dimacs(text)
    if g is not None:
        return g
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
                n, m = map(_ascii_int, parts[2:])
            except ValueError:
                raise ValueError(f"line {ln}: malformed problem line {line!r}") from None
            if n < 0:
                raise ValueError(f"line {ln}: negative vertex count")
            if m < 0:
                raise ValueError(f"line {ln}: negative edge count")
        elif parts[0] == "e":
            if n is None:
                raise ValueError(f"line {ln}: edge before problem line")
            if len(parts) != 3:
                raise ValueError(f"line {ln}: malformed edge line {line!r}")
            try:
                u, v = map(_ascii_int, parts[1:])
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


def _ascii_int(field: str) -> int:
    """The value of a field of ASCII ``-?[0-9]+``; ValueError otherwise."""
    if not re.fullmatch("-?[0-9]+", field):
        raise ValueError(field)
    return int(field)


def _plain_dimacs(text: str) -> Graph | None:
    """The graph of a plain DIMACS file, read in one numpy pass, or None
    for any other text.

    Plain means: ASCII with ``\n`` as its only line break, fields split at
    spaces and tabs; comment and blank lines; one ``p edge N M`` line before
    any other line, then only ``e u v`` lines; N, M, u and v 1 to 18 ASCII
    digits, u and v in ``1..N``.  The line loop of ``parse_dimacs`` reads
    such text as the same graph.
    """
    data = text.encode("ascii") if text.isascii() else b""
    if not data or any(c in data for c in b"\r\v\f\x1c\x1d\x1e"):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    breaks = np.flatnonzero(buf == ord("\n"))
    blank = (buf == ord(" ")) | (buf == ord("\t"))
    blank[breaks] = True
    # the fields are the runs of non-blank bytes; a field begins a line if
    # it is the first one or a line break precedes it
    flips = np.flatnonzero(np.diff(blank, prepend=True, append=True))
    starts, width = flips[0::2], flips[1::2] - flips[0::2]
    begins = np.zeros(starts.size + 1, dtype=bool)
    begins[0] = True
    begins[np.searchsorted(starts, breaks)] = True
    first = np.flatnonzero(begins[:-1])
    # the first field and the field count of each line that is no comment
    keep = buf[starts[first]] != ord("c")
    first, count = first[keep], np.diff(first, append=starts.size)[keep]
    if not first.size or count[0] != 4:
        return None
    at, e = first[0], first[1:]
    p, edge = (data[s : s + w] for s, w in zip(starts[at : at + 2], width[at : at + 2]))
    n, m = _decimal(buf, starts[at + 2 : at + 4], width[at + 2 : at + 4]).tolist()
    if (p, edge) != (b"p", b"edge") or min(n, m) < 0 or not (
        (count[1:] == 3).all() and (width[e] == 1).all() and (buf[starts[e]] == ord("e")).all()
    ):
        return None
    ends = np.stack([_decimal(buf, starts[e + f], width[e + f]) for f in (1, 2)], axis=1)
    if ((ends < 1) | (ends > n)).any():
        return None
    return new_graph(n, ends - 1)


def _decimal(buf: np.ndarray, starts: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The value of each field ``buf[starts:starts + width]`` that is 1 to 18
    ASCII digits, and -1 for any other field."""
    value = np.zeros(starts.size, dtype=np.int64)
    ok = width <= 18
    for j in range(int(width[ok].max(initial=0))):
        live = np.flatnonzero(ok & (width > j))
        digit = buf[starts[live] + j] - ord("0")  # a non-digit wraps past 9
        value[live] = value[live] * 10 + digit
        ok[live] = digit <= 9
    value[~ok] = -1
    return value


def _digit_table(n: int) -> np.ndarray:
    """The ASCII digits of 1..n as an (n, w) uint8 table, w = ``len(str(n))``.

    Row v spells v + 1, the 1-based DIMACS number of vertex v, left-aligned
    and padded with 0 bytes, which no digit is.
    """
    w = len(str(n))
    table = np.zeros((n, w), dtype=np.uint8)
    for k in range(1, w + 1):
        lo, hi = 10 ** (k - 1), min(10**k - 1, n)
        values = np.arange(lo, hi + 1, dtype=np.int64)
        for p in range(k):
            table[lo - 1 : hi, p] = 48 + values // 10 ** (k - 1 - p) % 10
    return table


def _line_words(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The halves of every ``e`` line as rows of 8-byte words, padded with
    0 bytes: row v of the head spells ``e``, a space, the digits of v + 1
    and a space, and row v of the tail the digits and a newline.

    With w-digit vertex numbers the head takes ceil((w + 3) / 8) words and
    the tail ceil((w + 1) / 8); w <= 10 for n <= 2**31, so each is one or
    two words (one each for every shipped host).
    """
    digits = _digit_table(n)
    w = digits.shape[1]
    head = np.zeros((n, -(-(w + 3) // 8) * 8), dtype=np.uint8)
    head[:, 0], head[:, 1], head[:, w + 2] = ord("e"), ord(" "), ord(" ")
    head[:, 2 : w + 2] = digits
    tail = np.zeros((n, -(-(w + 1) // 8) * 8), dtype=np.uint8)
    tail[:, :w] = digits
    tail[:, w] = ord("\n")
    return head.view(np.uint64), tail.view(np.uint64)


def _dimacs_lines(g: Graph) -> Iterator[bytes]:
    """The canonical DIMACS body as ASCII byte chunks: the problem line,
    then the sorted ``e`` lines, ``_CHUNK`` edges at a time.

    Each chunk is built in numpy.  Every row of a preset uint64 buffer holds
    one line: the ``_line_words`` head row of its first endpoint, then the
    tail row of its second, each gathered with one ``np.take``.
    ``bytes.translate`` deletes the 0-byte padding, the only 0 byte in the
    buffer, which leaves the bytes of ``%d``-formatting each 1-based endpoint.
    """
    yield f"p edge {g.n} {g.edge_count}\n".encode("ascii")
    head, tail = _line_words(g.n)
    h = head.shape[1]
    buf = np.empty((min(_CHUNK, g.edge_count), h + tail.shape[1]), dtype=np.uint64)
    for u, v in edge_slices(g):
        lines = buf[: u.size]
        lines[:, :h] = np.take(head, u, axis=0)
        lines[:, h:] = np.take(tail, v, axis=0)
        yield lines.tobytes().translate(None, b"\0")


def emit_dimacs(g: Graph, *, comment: str | None = None) -> str:
    """Canonical DIMACS emission: sorted ``e`` lines, 1-based, ``u <= v``.

    ``comment`` adds a leading ``c`` line; the canonical form used for
    hashing passes no comment.
    """
    out = []
    if comment is not None:
        for piece in comment.splitlines() or [""]:
            out.append(f"c {piece}".rstrip() + "\n")
    out.append(b"".join(_dimacs_lines(g)).decode("ascii"))
    return "".join(out)


def graph_sha256(g: Graph) -> str:
    """SHA-256 of the canonical DIMACS emission (no comments).

    The byte chunks of ``_dimacs_lines`` are hashed as they stream, never
    held whole; each call hashes the whole emission again.
    """
    digest = hashlib.sha256()
    for chunk in _dimacs_lines(g):
        digest.update(chunk)
    return digest.hexdigest()


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
