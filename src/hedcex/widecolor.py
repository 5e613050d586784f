"""Wide colorings and the power/adjoint correspondence.

A coloring with pairs (a, b) in [n] x [k] is d-wide when every color class
keeps its exact-distance-d neighborhood independent.  Four equivalent tests
are exposed (``check_wide``); the cheap one, condition 2, is the production
path on the large adjoint graphs, where each color class is a boolean array
read off ``WideColoring.pair_array`` and its shell is checked by one gather
over the edge arrays.  ``zero_position_coloring`` produces the
canonical wide coloring of an omega graph over a complete base, and
``adjunction_holds`` cross-checks "gamma_d G maps to H iff G maps to
omega_d H" exhaustively at small scale.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .families import OmegaGraph, gamma_power, n_shells, omega_sets, omega_tuples
from .graphs import Graph, edge_arrays, graph_sha256, is_independent
from .solver import (
    DEFAULT_BUDGET,
    EXHAUSTED,
    SOME,
    SearchBudget,
    find_homomorphism,
    verify_coloring,
)

CONDITION_NAMES = {
    1: "proper on the odd power",
    2: "exact-d neighborhoods independent",
    3: "all exact neighborhoods up to d independent",
    4: "parity split of the reach-<=d region is a bipartition",
}


def default_pairing(a: int, k: int) -> tuple[int, int]:
    """Bijection [n*k] -> [n] x [k]: consecutive blocks of k share a first coordinate."""
    return (a - 1) // k + 1, (a - 1) % k + 1


def pair_to_color(pair: tuple[int, int], k: int) -> int:
    i, b = pair
    return (i - 1) * k + b


@dataclass(frozen=True)
class WideColoring:
    """A vertex -> (a, b) coloring claimed to be d-wide on its host graph.

    ``graph_sha`` pins the host; ``None`` means "trust the caller" (handy for
    throwaway colorings in property tests).
    """

    n: int
    k: int
    d: int
    pairs: tuple[tuple[int, int], ...]
    graph_sha: str | None = None

    @cached_property
    def pair_array(self) -> np.ndarray:
        """Read-only (vertices, 2) int array of the pairs."""
        arr = np.array(self.pairs, dtype=np.int64).reshape(len(self.pairs), 2)
        arr.flags.writeable = False
        return arr

    def class_set(self, a: int, b: int | None = None) -> np.ndarray:
        """Boolean membership array of class (a, b), or of every class with
        first coordinate a when ``b`` is None."""
        members = self.pair_array[:, 0] == a
        if b is not None:
            members &= self.pair_array[:, 1] == b
        return members

    def to_json(self) -> str:
        doc = {
            "graph_sha256": self.graph_sha,
            "n": self.n,
            "k": self.k,
            "d": self.d,
            "pairs": [list(p) for p in self.pairs],
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "WideColoring":
        doc = json.loads(text)
        return cls(
            n=int(doc["n"]),
            k=int(doc["k"]),
            d=int(doc["d"]),
            pairs=tuple((int(a), int(b)) for a, b in doc["pairs"]),
            graph_sha=doc.get("graph_sha256"),
        )


def _validate(g: Graph, wc: WideColoring) -> None:
    if len(wc.pairs) != g.n:
        raise ValueError("coloring does not cover the vertex set")
    if wc.n < 1 or wc.k < 1 or wc.d < 0:
        raise ValueError("bad wide-coloring parameters")
    for a, b in wc.pairs:
        if not (1 <= a <= wc.n and 1 <= b <= wc.k):
            raise ValueError(f"pair ({a},{b}) out of range")
    eu, ev = edge_arrays(g)
    isolated = np.flatnonzero(np.bincount(np.concatenate((eu, ev)), minlength=g.n) == 0)
    if isolated.size:
        raise ValueError(f"vertex {isolated[0]} is isolated")
    if wc.graph_sha is not None and wc.graph_sha != graph_sha256(g):
        raise ValueError("coloring was built for a different graph")


def _condition_one(g: Graph, wc: WideColoring) -> bool:
    if g.n > 4096:
        raise ValueError("condition 1 materializes the odd power; graph too large")
    power = gamma_power(g, 2 * wc.d + 1)
    flat = [pair_to_color(p, wc.k) for p in wc.pairs]
    return verify_coloring(power, flat, wc.n * wc.k)


def _condition_on_class(g: Graph, members: np.ndarray, d: int, condition: int) -> bool:
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
    """Evaluate one of the four equivalent wideness conditions."""
    _validate(g, wc)
    if condition not in CONDITION_NAMES:
        raise ValueError("condition must be 1, 2, 3 or 4")
    if condition == 1:
        return _condition_one(g, wc)
    return all(
        _condition_on_class(g, wc.class_set(a, b), wc.d, condition)
        for a in range(1, wc.n + 1)
        for b in range(1, wc.k + 1)
    )


def zero_position_coloring(
    omega: OmegaGraph,
    n: int,
    k: int,
    pairing: Callable[[int], tuple[int, int]] | None = None,
) -> WideColoring:
    """Color each tuple vertex by the position of its unique zero.

    The position (an element of the base [n*k]) is split into a pair via
    ``pairing``.  Wideness at half-width ``omega.d`` is a construction
    invariant, so condition 2 is asserted here rather than assumed.
    """
    if n * k != omega.n:
        raise ValueError(f"pairing shape {n}x{k} does not match base size {omega.n}")
    split = pairing if pairing is not None else (lambda a: default_pairing(a, k))
    pairs = tuple(split(p + 1) for p in omega.zero_positions())
    wc = WideColoring(n=n, k=k, d=omega.d, pairs=pairs, graph_sha=graph_sha256(omega.graph))
    if not check_wide(omega.graph, wc, condition=2):
        raise RuntimeError(
            "zero-position coloring failed the wideness check; "
            "the omega construction and the checker disagree"
        )
    return wc


def _is_complete(h: Graph) -> bool:
    return not h.has_loop() and h.edge_count == h.n * (h.n - 1) // 2


def adjunction_holds(
    g: Graph,
    h: Graph,
    d: int,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> bool:
    """True when "gamma_d g -> h" and "g -> omega_d h" answer the same way.

    Exhaustive on both sides, so the guards are strict; a budget blow-up
    raises instead of guessing.
    """
    if d < 1 or d % 2 == 0:
        raise ValueError("the correspondence is stated for odd walk lengths")
    if h.edge_count == 0:
        raise ValueError("target needs at least one edge")
    if g.n > 64:
        raise ValueError("left side too large for an exhaustive check")
    half = (d - 1) // 2
    if half == 0:
        right_target = h
    elif _is_complete(h):
        right_target = omega_tuples(h.n, half).graph
    else:
        right_target = omega_sets(h, half).graph
    if right_target.n > 20000:
        raise ValueError("adjoint graph too large for an exhaustive check")

    left = find_homomorphism(gamma_power(g, d), h, budget)
    right = find_homomorphism(g, right_target, budget)
    if EXHAUSTED in (left.status, right.status):
        raise RuntimeError("homomorphism search exhausted its budget")
    return (left.status == SOME) == (right.status == SOME)
