import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_graph
from hedcex.families import (
    complete_graph,
    cycle_graph,
    gamma_power,
    kneser_graph,
    lex_product,
    n_exact,
    n_shells,
    n_upto,
    omega_sets,
    omega_tuple_vertices,
    omega_tuples,
    omega_vertex_count,
    tensor_product,
)
import numpy as np

from hedcex.graphs import is_isomorphic, mask_from
from oracles import exact_shell, walk_matrix


def test_complete_graph_counts():
    for n in range(1, 7):
        g = complete_graph(n)
        assert g.n == n and g.edge_count == n * (n - 1) // 2


def test_cycle_graph_counts():
    g = cycle_graph(5)
    assert g.n == 5 and g.edge_count == 5
    assert g.has_edge(0, 4) and g.has_edge(0, 1) and not g.has_edge(0, 2)
    assert cycle_graph(2).edge_count == 1
    assert cycle_graph(1).has_loop()
    with pytest.raises(ValueError):
        cycle_graph(0)


def test_kneser_petersen():
    g = kneser_graph(5, 2)
    assert g.n == 10 and g.edge_count == 15
    degrees = {g.degree(v) for v in range(g.n)}
    assert degrees == {3}


def test_kneser_counts_general():
    g = kneser_graph(6, 2)
    assert g.n == math.comb(6, 2)
    assert g.edge_count == math.comb(6, 2) * math.comb(4, 2) // 2


def test_gamma_power_square_of_cycle():
    g = gamma_power(cycle_graph(6), 2)
    # even powers of an even cycle include loops (walk out and back)
    assert g.has_edge(0, 2) and g.has_edge(0, 0)
    assert not g.has_edge(0, 3)


def test_gamma_power_matches_walk_matrix():
    rng = random.Random(11)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 10), 0.4)
        d = rng.randint(1, 4)
        p = gamma_power(g, d)
        w = walk_matrix(g, d)
        for u in range(g.n):
            for v in range(u, g.n):
                assert p.has_edge(u, v) == bool(w[u, v])


def test_shells_match_oracle():
    rng = random.Random(23)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 11), 0.35)
        members = mask_from(
            v for v in range(g.n) if rng.random() < 0.4
        ) or mask_from([0])
        d = rng.randint(0, 4)
        shells = n_shells(g, members, d)
        assert len(shells) == d + 1
        flags = n_shells(g, np.array([members >> v & 1 for v in range(g.n)], dtype=bool), d)
        acc = 0
        for i, shell in enumerate(shells):
            assert shell == exact_shell(g, members, i)
            assert shell == n_exact(g, members, i)
            assert shell == mask_from(np.flatnonzero(flags[i]))
            acc |= shell
        assert acc == n_upto(g, members, d)


def test_lex_product_blow_up():
    g = lex_product(cycle_graph(5), complete_graph(2))
    assert g.n == 10
    # each C5 edge becomes a complete bipartite K_{2,2} plus the K2 inside
    assert g.edge_count == 5 * 4 + 5 * 1


def test_tensor_product_definition():
    g = tensor_product(complete_graph(3), complete_graph(3))
    assert g.n == 9
    # (u,v) ~ (u',v') iff u~u' and v~v': 3*2/2 choices squared * 2 pairings
    assert g.edge_count == 18
    h = tensor_product(cycle_graph(5), complete_graph(2))
    assert h.n == 10 and h.edge_count == 10


def test_omega_formula_matches_enumeration():
    for n in range(2, 7):
        for d in range(1, 5):
            verts = omega_tuple_vertices(n, d)
            assert len(verts) == omega_vertex_count(n, d)


def test_omega_tuples_validity():
    om = omega_tuples(4, 2)
    for t in om.tuples:
        assert t.count(0) == 1 and 1 in t and max(t) <= 3
    # edges satisfy the coordinate rule, both ways
    for a, b in om.graph.edges():
        x, y = om.tuples[a], om.tuples[b]
        assert all(
            abs(xi - yi) == 1 or (xi == yi == 3) for xi, yi in zip(x, y)
        )


def test_omega_pinned_counts():
    assert omega_tuples(6, 3).graph.n == 4686
    assert omega_tuples(6, 3).graph.edge_count == 36015
    assert omega_tuples(8, 2).graph.n == 16472
    assert omega_vertex_count(6, 6) == 54186


def test_omega_is_triangle_free():
    g = omega_tuples(4, 1).graph
    for u, v in g.edges():
        assert not (g.adj[u] & g.adj[v]), "common neighbor on an edge"


def test_zero_positions_are_proper():
    om = omega_tuples(5, 2)
    zp = om.zero_positions()
    for u, v in om.graph.edges():
        assert zp[u] != zp[v]


def _chain_of(x, d):
    return tuple(
        sum(1 << p for p, xp in enumerate(x) if xp <= i and (xp - i) % 2 == 0)
        for i in range(d + 1)
    )


FEASIBLE = [
    (m, d)
    for m in range(2, 6)
    for d in range(1, 4)
]


@pytest.mark.parametrize("m,d", FEASIBLE)
def test_set_form_equals_tuple_form(m, d):
    """The two adjoint constructions agree under the explicit bijection
    sending a tuple to its chain of parity level sets."""
    tup = omega_tuples(m, d)
    st_ = omega_sets(complete_graph(m), d)
    index = {c: i for i, c in enumerate(st_.tuples)}
    perm = [index[_chain_of(x, d)] for x in tup.tuples]
    assert sorted(perm) == list(range(st_.graph.n))
    mapped = {(min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in tup.graph.edges()}
    stored = {(min(a, b), max(a, b)) for a, b in st_.graph.edges()}
    assert mapped == stored


def test_set_form_isomorphic_small():
    for m, d in [(3, 1), (3, 2), (4, 1)]:
        a = omega_tuples(m, d).graph
        b = omega_sets(complete_graph(m), d).graph
        assert is_isomorphic(a, b)


def test_set_form_guards():
    with pytest.raises(ValueError):
        omega_sets(complete_graph(6), 1)
    with pytest.raises(ValueError):
        omega_sets(complete_graph(3), 4)
    with pytest.raises(ValueError):
        omega_sets(complete_graph(3), 0)


@given(st.integers(2, 5), st.integers(1, 3))
def test_omega_degree_positive(n, d):
    g = omega_tuples(n, d).graph
    if n == 2:
        # the two-vertex adjoint is a single edge
        assert g.edge_count == 1
        return
    assert all(g.degree(v) > 0 for v in range(g.n))
