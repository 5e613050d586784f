import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import numpy as np

from conftest import random_graph
from hedcex import graphs
from hedcex.graphs import (
    Graph,
    edge_arrays,
    emit_dimacs,
    emit_dot,
    graph_sha256,
    induced_subgraph,
    is_independent,
    is_isomorphic,
    iter_bits,
    mask_from,
    mask_indices,
    neighbor_arrays,
    new_graph,
    parse_dimacs,
)


def random_loopy_graph(rng: random.Random, n: int, p: float) -> Graph:
    return new_graph(n, [(u, v) for u in range(n) for v in range(u, n) if rng.random() < p])


def test_mask_round_trip():
    assert mask_from([0, 3, 5]) == 0b101001
    assert list(iter_bits(0b101001)) == [0, 3, 5]
    assert list(iter_bits(0)) == []


@pytest.mark.parametrize(
    "indices",
    [[], [0], [1 << 16], [3, 65535, 65536, 131071], list(range(0, 1 << 17, 977))],
)
def test_mask_boundary_round_trip(indices):
    mask = sum(1 << v for v in indices)
    assert mask_from(indices) == mask
    assert mask_from(np.array(indices, dtype=np.int64)) == mask
    assert mask_indices(mask).tolist() == indices
    assert mask_from(mask_indices(mask)) == mask
    assert list(iter_bits(mask)) == indices


def test_boundary_rejects_bad_vertex_sets():
    with pytest.raises(ValueError):
        mask_indices(-1)
    with pytest.raises(ValueError):
        mask_from([2, -1])
    g = new_graph(3, [(0, 1)])
    for bad in (np.array([0, 1]), np.zeros(2, dtype=bool), np.zeros((3, 1), dtype=bool)):
        with pytest.raises(ValueError):
            is_independent(g, bad)


def test_new_graph_basics():
    g = new_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.n == 4
    assert g.edge_count == 4
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.degree(1) == 2
    assert sorted(g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_duplicate_edges_collapse():
    g = new_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


@given(st.integers(1, 30), st.data())
def test_new_graph_matches_a_set_oracle(n, data):
    # repeated pairs, both orientations, loops and the empty list
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    expect = sorted({(min(u, v), max(u, v)) for u, v in pairs})
    arrays = [np.array(pairs, dtype=dtype).reshape(-1, 2) for dtype in (np.int64, np.int32)]
    for edges in (pairs, *arrays):
        eu, ev = edge_arrays(new_graph(n, edges))
        assert eu.dtype == ev.dtype == np.int32
        assert list(zip(eu.tolist(), ev.tolist())) == expect


def test_edge_bounds_checked():
    with pytest.raises(ValueError):
        new_graph(2, [(0, 2)])
    with pytest.raises(ValueError, match=r"edge \(-1, 0\)"):
        new_graph(2, np.array([[0, 1], [-1, 0]], dtype=np.int32))
    with pytest.raises(ValueError):
        new_graph(-1, [])


def test_loop_is_representable():
    g = new_graph(2, [(0, 0), (0, 1)])
    assert g.has_loop()
    assert g.has_edge(0, 0)


def test_is_independent():
    g = new_graph(4, [(0, 1), (2, 3)])
    assert is_independent(g, mask_from([0, 2]))
    assert not is_independent(g, mask_from([0, 1]))
    assert is_independent(g, 0)


def test_induced_subgraph_keeps_inner_edges():
    g = new_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    sub, relabel = induced_subgraph(g, mask_from([0, 1, 2]))
    assert sub.n == 3
    assert sorted(sub.edges()) == [
        (relabel[0], relabel[1]),
        (relabel[1], relabel[2]),
    ] or sub.edge_count == 2


def test_dimacs_round_trip_small():
    g = new_graph(4, [(0, 1), (2, 3)], label="pair")
    text = emit_dimacs(g, comment="pair")
    back = parse_dimacs(text)
    assert back.n == g.n
    assert sorted(back.edges()) == sorted(g.edges())


def test_dimacs_rejects_garbage():
    with pytest.raises(ValueError):
        parse_dimacs("not a graph")
    with pytest.raises(ValueError):
        parse_dimacs("p edge 2 1\ne 1 5\n")


def test_sha_ignores_edge_order():
    a = new_graph(4, [(0, 1), (1, 2), (2, 3)])
    b = new_graph(4, [(2, 3), (0, 1), (1, 2)])
    assert graph_sha256(a) == graph_sha256(b)
    c = new_graph(4, [(0, 1), (1, 2), (0, 3)])
    assert graph_sha256(a) != graph_sha256(c)


def test_dimacs_and_sha_pinned_on_a_loopy_graph():
    g = new_graph(5, [(4, 1), (0, 0), (1, 3), (3, 3), (0, 1), (2, 4), (1, 0)])
    body = "p edge 5 6\ne 1 1\ne 1 2\ne 2 4\ne 2 5\ne 3 5\ne 4 4\n"
    assert emit_dimacs(g) == body
    assert emit_dimacs(g, comment="loopy\nfive") == "c loopy\nc five\n" + body
    sha = "5b6f8fe620b02df1b483c06fc824bba74307f0ab2f44c5237a99270f454b138b"
    assert graph_sha256(g) == sha
    assert graph_sha256(Graph(g.n, list(g.adj))) == sha


def test_rows_match_the_bitwise_build(monkeypatch):
    # A tiny row block makes every graph span many blocks.
    monkeypatch.setattr(graphs, "_ROW_BLOCK", 3)
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(0, 90)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))]
        rows = [0] * n
        for u, v in edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        assert new_graph(n, edges).adj == rows


@given(st.integers(0, 40), st.data())
def test_edge_lists_once_ascending_on_loopy_graphs(n, data):
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    g = random_loopy_graph(rng, n, 0.3)
    expect = [(u, v) for u in range(n) for v in range(u, n) if g.has_edge(u, v)]
    assert g.edge_count == len(expect)
    for h in (g, Graph(n, list(g.adj))):  # cached at construction, and read off rows
        assert list(h.edges()) == expect
        eu, ev = edge_arrays(h)
        assert list(zip(eu.tolist(), ev.tolist())) == expect
        ptr, dst = neighbor_arrays(h)
        assert ptr.dtype == dst.dtype == np.int32
        rows = [dst[ptr[v] : ptr[v + 1]].tolist() for v in range(n)]
        assert rows == [list(iter_bits(row)) for row in g.adj]
    members = mask_from(v for v in range(n) if rng.random() < 0.3)
    flags = np.zeros(n, dtype=bool)
    flags[list(iter_bits(members))] = True
    brute = not any(members >> u & 1 and members >> v & 1 for u, v in expect)
    assert is_independent(g, members) == is_independent(g, flags) == brute


def test_dot_output_mentions_labels():
    g = new_graph(2, [(0, 1)])
    dot = emit_dot(g, ["left", "right"])
    assert "left" in dot and "right" in dot and "0 -- 1" in dot


def test_isomorphic_accepts_relabeling():
    rng = random.Random(7)
    g = random_graph(rng, 8, 0.4)
    perm = list(range(8))
    rng.shuffle(perm)
    h = new_graph(8, [(perm[u], perm[v]) for u, v in g.edges()])
    assert is_isomorphic(g, h)


def test_isomorphic_rejects_different_counts():
    g = new_graph(4, [(0, 1), (1, 2)])
    h = new_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert not is_isomorphic(g, h)


@given(st.integers(0, 60), st.data())
def test_dimacs_round_trip_random(n, data):
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    g = random_graph(rng, n, 0.3)
    assert sorted(parse_dimacs(emit_dimacs(g)).edges()) == sorted(g.edges())


@given(st.data())
def test_sha_is_permutation_sensitive_but_order_free(data):
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    g = random_graph(rng, 9, 0.35)
    edges = list(g.edges())
    rng.shuffle(edges)
    assert graph_sha256(new_graph(9, edges)) == graph_sha256(g)
