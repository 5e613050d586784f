"""Wide colorings of the adjoint hosts.

A coloring with pairs (a, b) in [n] x [k] is d-wide when every color class
keeps its exact-distance-d neighborhood independent.  ``WideColoring`` holds
the pairs as one read-only (vertices, 2) int8 array.  ``_failing_classes``
reads any of four equivalent conditions off the shells it is given (the
endpoints of walks of length exactly 0, 1, ...), of one class as booleans or
of every class at once as one bit per class: a set is independent exactly
when it misses its next shell, so no graph power is built.  On an omega
graph, ``decide_zero_position`` decides the zero-position coloring in one
sweep of every class on the coordinate rule (``omega_shell_bits``), with no
edge written; ``zero_position_coloring`` pins it with ``omega.sha256``,
which keeps no edge either.  ``check_wide`` decides a
``Graph``, which has no coordinate rule, one class at a time with
``n_shells`` over CSR arrays built for each sweep; a declared d past 2|V|
costs no more than 2|V|.  The conditions are the keys of ``CONDITION_NAMES``:
each decider asks ``_depth`` how deep to sweep, and ``_depth`` refuses any
other value, a bool or a string of a digit included, before a shell is made.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .families import OmegaGraph, n_shells, omega_shell_bits
from .graphs import Graph, _unique_sorted, edge_slices, graph_sha256

CONDITION_NAMES = {
    1: "proper on the odd power",
    2: "exact-d neighborhoods independent",
    3: "all exact neighborhoods up to d independent",
    4: "parity split of the reach-<=d region is a bipartition",
}


@dataclass(frozen=True, eq=False)
class WideColoring:
    """A vertex -> (a, b) coloring claimed to be d-wide on its host graph.

    ``pairs`` is given as any sequence of (a, b) pairs and held as one
    read-only (vertices, 2) int8 array, or ValueError when a value does not
    fit; an int8 (vertices, 2) array is held as given, and made read-only.
    ``graph_sha`` pins the host; ``None`` means "trust the caller" (handy
    for throwaway colorings in property tests).
    """

    n: int
    k: int
    d: int
    pairs: np.ndarray
    graph_sha: str | None = None

    def __post_init__(self):
        pairs = self.pairs
        held = isinstance(pairs, np.ndarray) and pairs.dtype == np.int8 and pairs.shape[1:] == (2,)
        if not held:
            try:
                pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
                fits = not pairs.size or (pairs.min() >= -128 and pairs.max() <= 127)
            except OverflowError:  # a value past int64
                fits = False
            if not fits:
                raise ValueError("pair values do not fit the int8 pair array")
            pairs = pairs.astype(np.int8)
        pairs.flags.writeable = False
        object.__setattr__(self, "pairs", pairs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WideColoring)
            and (self.n, self.k, self.d, self.graph_sha)
            == (other.n, other.k, other.d, other.graph_sha)
            and np.array_equal(self.pairs, other.pairs)
        )

    def class_set(self, a: int, b: int) -> np.ndarray:
        """Boolean membership array of class (a, b)."""
        return (self.pairs[:, 0] == a) & (self.pairs[:, 1] == b)

    def to_json(self) -> str:
        doc = {
            "graph_sha256": self.graph_sha,
            "n": self.n,
            "k": self.k,
            "d": self.d,
            "pairs": self.pairs.tolist(),
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "WideColoring":
        """Parse ``to_json`` output; ValueError names the first bad field."""
        try:
            doc = json.loads(text)
        except RecursionError:
            raise ValueError("wide coloring JSON is nested too deeply") from None
        if not isinstance(doc, dict):
            raise ValueError("wide coloring JSON must be an object")
        for name in ("n", "k", "d"):
            if type(doc.get(name)) is not int:
                raise ValueError(f"wide coloring field {name!r} must be an integer")
        pairs = doc.get("pairs")
        if not isinstance(pairs, list) or not all(
            type(p) is list and len(p) == 2 and type(p[0]) is int and type(p[1]) is int
            for p in pairs
        ):
            raise ValueError("wide coloring field 'pairs' must be a list of integer pairs")
        if not isinstance(doc.get("graph_sha256"), (str, type(None))):
            raise ValueError("wide coloring field 'graph_sha256' must be a string or null")
        return cls(
            n=doc["n"], k=doc["k"], d=doc["d"], pairs=pairs, graph_sha=doc.get("graph_sha256")
        )


def _validate(g: Graph, wc: WideColoring) -> None:
    if len(wc.pairs) != g.n:
        raise ValueError("coloring does not cover the vertex set")
    if wc.n < 1 or wc.k < 1 or wc.d < 0:
        raise ValueError("bad wide-coloring parameters")
    a, b = wc.pairs[:, 0], wc.pairs[:, 1]
    outside = np.flatnonzero((a < 1) | (a > wc.n) | (b < 1) | (b > wc.k))
    if outside.size:
        a, b = wc.pairs[outside[0]].tolist()
        raise ValueError(f"pair ({a},{b}) out of range")
    touched = np.zeros(g.n, dtype=bool)
    for u, v in edge_slices(g):
        touched[u] = touched[v] = True
    isolated = np.flatnonzero(~touched)
    if isolated.size:
        raise ValueError(f"vertex {isolated[0]} is isolated")
    if wc.graph_sha is not None and wc.graph_sha != graph_sha256(g):
        raise ValueError("coloring was built for a different graph")


def narrow_bits(shell: np.ndarray, after: np.ndarray):
    """The OR over V of ``shell & after``, ``after`` the next shell: set at
    each bit of ``shell_bits`` shells (or for one set's boolean shells) whose
    shell is not independent, as the next shell of S is N(S); condition 2."""
    return np.bitwise_or.reduce(shell & after)


def _depth(d: int, condition: int) -> int:  # the last shell ``condition`` reads
    if type(condition) is not int or condition not in CONDITION_NAMES:  # True too
        raise ValueError("condition must be 1, 2, 3 or 4")
    return 2 * d + 1 if condition == 1 else d + 1


def _failing_classes(shells: list[np.ndarray], condition: int):
    """The classes that fail ``condition``, read off their shells at depths
    0..``_depth(d, condition)``: for one class's boolean shells, whether it
    fails; for bit shells, a word with each failing class's bit set."""
    if condition == 1:
        # a walk of length 2d+1 joins two members (or a member to itself)
        return np.bitwise_or.reduce(shells[-1] & shells[0])
    if condition == 2:
        return narrow_bits(shells[-2], shells[-1])
    if condition == 3:
        return np.bitwise_or.reduce(list(map(narrow_bits, shells[:-1], shells[1:])))
    # The parity split of the reach-<=d region must be a genuine bipartition;
    # abstract 2-colorability would accept what the other conditions reject
    # (a 4-path with both endpoints in one class, at d=1).  Each half's next
    # shell is the other parity's union one step on, which holds the other
    # half, so both halves independent makes them disjoint.
    def union(part: list[np.ndarray]) -> np.ndarray:
        return np.bitwise_or.reduce(part or [np.zeros_like(shells[0])])

    even, odd = union(shells[:-1:2]), union(shells[1:-1:2])
    return narrow_bits(even, union(shells[1::2])) | narrow_bits(odd, union(shells[2::2]))


# ``threads`` is ignored; kept because perfbench/test_perfbench.py passes it.
def check_wide(g: Graph, wc: WideColoring, condition: int = 2, *, threads: int = 1) -> bool:
    """Evaluate one of the four equivalent wideness conditions.

    Only the classes that occur are swept, one at a time in (a, b) order,
    read off one sort of the codes a << 8 | b; an empty class is trivially
    wide, so the declared n x k never costs time.  Nor does d past 2|V|:
    ``_validate`` refuses isolated vertices, so S_t is in S_{t+2} and each
    parity's chain of shells stops growing within 2|V| steps; d is cut to
    2|V| or 2|V| + 1, whichever has its parity.
    """
    _validate(g, wc)
    depth = _depth(min(wc.d, 2 * g.n + wc.d % 2), condition)
    code = wc.pairs[:, 0].astype(np.int16) << 8 | wc.pairs[:, 1]
    return not any(
        _failing_classes(n_shells(g, code == c, depth), condition)
        for c in _unique_sorted(code).tolist()
    )


def _zero_position(omega: OmegaGraph, n: int, k: int) -> WideColoring:
    """The zero-position coloring of ``omega``, unchecked and unpinned."""
    if n * k != omega.n:
        raise ValueError(f"pairing shape {n}x{k} does not match base size {omega.n}")
    # one int8 row per zero position p, taken at each vertex's own p
    p = np.arange(omega.n)
    rows = np.column_stack((p // k + 1, p % k + 1)).astype(np.int8)
    return WideColoring(n=n, k=k, d=omega.d, pairs=np.take(rows, omega.zero_positions, axis=0))


def decide_zero_position(omega: OmegaGraph, n: int, k: int, condition: int = 2):
    """(the zero-position coloring of ``omega`` as n x k pairs, unpinned; the
    shells of its classes at depths 0..d, bit (a-1)*k + (b-1) for class (a,
    b); the bits of the classes that fail ``condition``), for the build,
    ``zero_position_coloring`` and zero-mode ``wide-check``.  One sweep on
    ``omega``'s coordinate rule, seeded from the coloring's pairs, reaches the
    depth ``condition`` reads.  A host under the 2 GiB bound has a base n*k
    of at most 17, so the bits fit one word.  A ``condition`` that is not
    1, 2, 3 or 4 is refused by ``_depth`` before the sweep, as ``check_wide``
    refuses it.  Factors below 1 and isolated vertices are refused as
    ``_validate`` refuses them; a vertex's depth-1 word ORs its neighbours'
    class bits: 0 means none."""
    if n < 1 or k < 1:
        raise ValueError("bad wide-coloring parameters")
    wc = _zero_position(omega, n, k)
    bits = np.min_scalar_type(1 << (n * k - 1))
    bit = (wc.pairs[:, 0] - 1) * k + (wc.pairs[:, 1] - 1)
    seeds = np.left_shift(bits.type(1), bit.astype(bits))
    shells = omega_shell_bits(omega, seeds, _depth(wc.d, condition))
    if not shells[1].all():  # argmin is the first 0
        raise ValueError(f"vertex {shells[1].argmin()} is isolated")
    return wc, shells[: wc.d + 1], int(_failing_classes(shells, condition))


def zero_position_coloring(omega: OmegaGraph, n: int, k: int) -> WideColoring:
    """Color each tuple vertex by the position of its unique zero.

    The 0-based position p (an element of the base [n*k]) becomes the pair
    (p // k + 1, p % k + 1): consecutive blocks of k positions share a first
    coordinate.  Wideness at half-width ``omega.d`` is a construction
    invariant, so condition 2 is asserted here (``decide_zero_position``)
    rather than assumed.  The checked coloring is pinned by ``omega.sha256``,
    which leaves no edge keys on ``omega``.
    """
    wc, _, failing = decide_zero_position(omega, n, k)
    if failing:
        raise RuntimeError(
            "zero-position coloring failed the wideness check; "
            "the omega construction and the checker disagree"
        )
    return replace(wc, graph_sha=omega.sha256)
