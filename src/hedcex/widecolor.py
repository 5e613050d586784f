"""Wide colorings of the adjoint hosts.

A coloring with pairs (a, b) in [n] x [k] is d-wide when every color class
keeps its exact-distance-d neighborhood independent.  ``WideColoring`` holds
the pairs as one read-only (vertices, 2) int8 array.  ``check_wide`` decides
any of four equivalent conditions; each class that occurs is a boolean
array read off the pairs and swept by ``n_shells``, in time linear in
|V| + |E| per class and walk step, so no condition needs a graph power and
hosts of any size are decided.  ``zero_position_coloring`` produces the
canonical wide coloring of an omega graph over a complete base and checks
it by condition 2; ``wide-check`` builds it unchecked with
``_zero_position`` and decides only the condition asked for.  The
counterexample build makes the same coloring but sweeps it itself: it gives
every class one bit and sweeps all classes at once with ``shell_bits``,
keeps every shell for its function tables, and checks condition 2 for all
classes with one AND over the edge arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .families import OmegaGraph, n_shells
from .graphs import Graph, edge_arrays, graph_sha256, is_independent

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
    read-only (vertices, 2) int8 array.  ``graph_sha`` pins the host;
    ``None`` means "trust the caller" (handy for throwaway colorings in
    property tests).
    """

    n: int
    k: int
    d: int
    pairs: np.ndarray
    graph_sha: str | None = None

    def __post_init__(self):
        try:
            wide = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)
            fits = not wide.size or (wide.min() >= -128 and wide.max() <= 127)
        except OverflowError:  # a value past int64
            fits = False
        if not fits:
            raise ValueError("pair values do not fit the int8 pair array")
        pairs = wide.astype(np.int8)
        pairs.flags.writeable = False
        object.__setattr__(self, "pairs", pairs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WideColoring)
            and (self.n, self.k, self.d, self.graph_sha)
            == (other.n, other.k, other.d, other.graph_sha)
            and np.array_equal(self.pairs, other.pairs)
        )

    def class_set(self, a: int, b: int | None = None) -> np.ndarray:
        """Boolean membership array of class (a, b), or of every class with
        first coordinate a when ``b`` is None."""
        members = self.pairs[:, 0] == a
        if b is not None:
            members &= self.pairs[:, 1] == b
        return members

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
        doc = json.loads(text)
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
    eu, ev = edge_arrays(g)
    isolated = np.flatnonzero(np.bincount(np.concatenate((eu, ev)), minlength=g.n) == 0)
    if isolated.size:
        raise ValueError(f"vertex {isolated[0]} is isolated")
    if wc.graph_sha is not None and wc.graph_sha != graph_sha256(g):
        raise ValueError("coloring was built for a different graph")


def _condition_on_class(g: Graph, members: np.ndarray, d: int, condition: int) -> bool:
    if condition == 1:
        # no walk of length 2d+1 joins two members (or a member to itself)
        return not (n_shells(g, members, 2 * d + 1)[-1] & members).any()
    shells = n_shells(g, members, d)
    if condition == 2:
        return is_independent(g, shells[d])
    if condition == 3:
        return all(is_independent(g, s) for s in shells)
    even = np.logical_or.reduce(shells[0::2])
    odd = np.logical_or.reduce(shells[1::2] or [np.zeros(g.n, dtype=bool)])
    # The equivalent bipartiteness statement: split the reach-<=d region by
    # walk-length parity and demand a genuine bipartition.  Checking abstract
    # 2-colorability of that region instead would accept colorings the other
    # conditions reject (a 4-path with both endpoints in one class already
    # separates them at d=1), so the fixed parity split is the faithful test.
    return not (even & odd).any() and is_independent(g, even) and is_independent(g, odd)


# ``threads`` is ignored; kept because perfbench/test_perfbench.py passes it.
def check_wide(g: Graph, wc: WideColoring, condition: int = 2, *, threads: int = 1) -> bool:
    """Evaluate one of the four equivalent wideness conditions.

    Only the classes that occur are swept, in (a, b) order; an empty class
    is trivially wide, so the declared n x k never costs time.
    """
    _validate(g, wc)
    if condition not in CONDITION_NAMES:
        raise ValueError("condition must be 1, 2, 3 or 4")
    return all(
        _condition_on_class(g, wc.class_set(a, b), wc.d, condition)
        for a, b in np.unique(wc.pairs, axis=0).tolist()
    )


def _zero_position(omega: OmegaGraph, n: int, k: int) -> WideColoring:
    """The zero-position coloring of ``omega``, its wideness not yet checked."""
    if n * k != omega.n:
        raise ValueError(f"pairing shape {n}x{k} does not match base size {omega.n}")
    zero = omega.zero_positions()
    pairs = np.column_stack((zero // k + 1, zero % k + 1))
    return WideColoring(n=n, k=k, d=omega.d, pairs=pairs, graph_sha=graph_sha256(omega.graph))


def zero_position_coloring(omega: OmegaGraph, n: int, k: int) -> WideColoring:
    """Color each tuple vertex by the position of its unique zero.

    The 0-based position p (an element of the base [n*k]) becomes the pair
    (p // k + 1, p % k + 1): consecutive blocks of k positions share a first
    coordinate.  Wideness at half-width ``omega.d`` is a
    construction invariant, so condition 2 is asserted here rather than
    assumed.
    """
    wc = _zero_position(omega, n, k)
    if not check_wide(omega.graph, wc, condition=2):
        raise RuntimeError(
            "zero-position coloring failed the wideness check; "
            "the omega construction and the checker disagree"
        )
    return wc
