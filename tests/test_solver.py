import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from hedcex.families import complete_graph, cycle_graph, kneser_graph
from hedcex.graphs import new_graph
from hedcex.solver import (
    EXHAUSTED,
    NONE,
    SOME,
    SearchBudget,
    chromatic_number,
    find_coloring,
    find_homomorphism,
    greedy_clique,
    verify_coloring,
    verify_homomorphism,
)
from oracles import (
    brute_coloring,
    brute_homomorphism,
    reference_coloring,
    reference_greedy_clique,
    reference_homomorphism,
)


def test_verify_coloring_rules():
    g = new_graph(3, [(0, 1), (1, 2)])
    assert verify_coloring(g, [1, 2, 1], 2)
    assert not verify_coloring(g, [1, 1, 2], 2)
    assert not verify_coloring(g, [1, 3, 1], 2)  # out of range
    assert not verify_coloring(g, [1, 2], 2)  # wrong length


def test_verify_homomorphism_rules():
    c5, k3 = cycle_graph(5), complete_graph(3)
    hom = find_homomorphism(c5, k3)
    assert hom.status == SOME
    assert verify_homomorphism(c5, k3, hom.mapping)
    assert not verify_homomorphism(c5, k3, [0, 0, 0, 0, 0])


def test_find_coloring_odd_cycle():
    c7 = cycle_graph(7)
    assert find_coloring(c7, 2).status == NONE
    res = find_coloring(c7, 3)
    assert res.status == SOME
    assert verify_coloring(c7, res.assignment, 3)


def test_find_coloring_loop_never_colors():
    g = new_graph(2, [(0, 0), (0, 1)])
    assert find_coloring(g, 5).status == NONE


def test_find_coloring_rejects_bad_counts():
    with pytest.raises(ValueError):
        find_coloring(cycle_graph(3), -1)
    with pytest.raises(ValueError):
        find_coloring(cycle_graph(3), 63)


def test_chromatic_known_values():
    assert chromatic_number(complete_graph(6)).value == 6
    assert chromatic_number(cycle_graph(8)).value == 2
    assert chromatic_number(cycle_graph(9)).value == 3
    assert chromatic_number(new_graph(4, [])).value == 1
    assert chromatic_number(new_graph(0, [])).value == 0


def test_chromatic_kneser_petersen():
    # chi(KG(5,2)) = 5 - 2*2 + 2 = 3
    assert chromatic_number(kneser_graph(5, 2)).value == 3


def test_chromatic_loop_has_no_finite_value():
    g = new_graph(1, [(0, 0)])
    assert chromatic_number(g).status == "no_finite"


def test_budget_exhaustion_reports_nodes():
    g = kneser_graph(8, 3)  # 56 vertices, chi = 4
    res = find_coloring(g, 3, SearchBudget(node_limit=5))
    assert res.status == EXHAUSTED
    assert res.reason == "nodes"


def test_chromatic_range_narrowing():
    # the range is honored: the answer is the smallest value inside it
    res = chromatic_number(cycle_graph(9), lo=4)
    assert res.status == "value" and res.value == 4
    res2 = chromatic_number(cycle_graph(9), lo=1, hi=2)
    assert res2.status == "none_in_range"
    with pytest.raises(ValueError):
        chromatic_number(cycle_graph(9), lo=5, hi=2)


def test_greedy_clique_is_a_clique():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 12), 0.5)
        clique = greedy_clique(g)
        assert len(clique) >= 1
        for i, u in enumerate(clique):
            for v in clique[i + 1 :]:
                assert g.has_edge(u, v)


def test_homomorphism_to_smaller_clique_fails():
    assert find_homomorphism(complete_graph(4), complete_graph(3)).status == NONE


def test_homomorphism_odd_cycle_gap():
    # C5 -> C7 would retract an odd cycle onto a longer one
    assert find_homomorphism(cycle_graph(5), cycle_graph(7)).status == NONE
    assert find_homomorphism(cycle_graph(7), cycle_graph(5)).status == SOME


@given(st.integers(0, 2**30), st.integers(1, 8), st.integers(1, 4))
def test_coloring_agrees_with_brute_force(seed, n, c):
    rng = random.Random(seed)
    g = random_graph(rng, n, 0.5)
    ours = find_coloring(g, c)
    ref = brute_coloring(g, c)
    assert (ours.status == SOME) == (ref is not None)
    if ours.status == SOME:
        assert verify_coloring(g, ours.assignment, c)


@given(st.integers(0, 2**30), st.integers(1, 6), st.integers(1, 5))
def test_homomorphism_agrees_with_brute_force(seed, n, m):
    rng = random.Random(seed)
    g = random_graph(rng, n, 0.45)
    h = random_graph(rng, m, 0.5)
    ours = find_homomorphism(g, h)
    ref = brute_homomorphism(g, h)
    assert (ours.status == SOME) == (ref is not None)
    if ours.status == SOME:
        assert verify_homomorphism(g, h, ours.mapping)


@given(st.integers(0, 2**30))
def test_coloring_vs_clique_lower_bound(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 10), 0.5)
    res = chromatic_number(g)
    assert res.status == "value"
    assert res.value >= len(greedy_clique(g))
    assert verify_coloring(g, res.assignment, res.value)


def _loopy_graph(seed: int, n: int, p: float, loop_p: float):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    edges += [(v, v) for v in range(n) if rng.random() < loop_p]
    return new_graph(n, edges)


@settings(max_examples=300)
@given(
    st.integers(0, 2**30),
    st.integers(0, 14),
    st.sampled_from([0.0, 0.2, 0.5, 0.8]),
    st.sampled_from([0.0, 0.0, 0.1]),
    st.integers(1, 5),
    st.integers(1, 10_000),
    st.booleans(),
)
def test_coloring_transcript_matches_reference(seed, n, p, loop_p, c, limit, use_clique):
    g = _loopy_graph(seed, n, p, loop_p)
    budget = SearchBudget(node_limit=limit, use_clique=use_clique)
    ours, ref = find_coloring(g, c, budget), reference_coloring(g, c, budget)
    assert (ours.status, ours.nodes, ours.assignment, ours.reason) == (
        ref.status,
        ref.nodes,
        ref.assignment,
        ref.reason,
    )
    assert greedy_clique(g) == reference_greedy_clique(g)


def test_coloring_transcript_matches_reference_on_larger_graphs():
    # deep backtracking over sparse graphs revisits vertices whose heap
    # entries went stale, which graphs of a dozen vertices rarely do
    rng = random.Random(11)
    for _ in range(40):
        g = _loopy_graph(rng.randrange(2**30), rng.randint(20, 90), rng.choice([0.05, 0.1, 0.2]), 0.0)
        c = rng.randint(2, 6)
        budget = SearchBudget(node_limit=rng.choice([50, 2_000]), use_clique=rng.random() < 0.7)
        ours, ref = find_coloring(g, c, budget), reference_coloring(g, c, budget)
        assert (ours.status, ours.nodes, ours.assignment, ours.reason) == (
            ref.status,
            ref.nodes,
            ref.assignment,
            ref.reason,
        )


@given(
    st.integers(0, 2**30),
    st.integers(0, 9),
    st.integers(0, 6),
    st.sampled_from([0.0, 0.15]),
    st.integers(1, 1_000),
)
def test_homomorphism_transcript_matches_reference(seed, n, m, loop_p, limit):
    g = _loopy_graph(seed, n, 0.4, loop_p)
    h = _loopy_graph(seed + 1, m, 0.5, loop_p)
    budget = SearchBudget(node_limit=limit)
    ours, ref = find_homomorphism(g, h, budget), reference_homomorphism(g, h, budget)
    assert (ours.status, ours.nodes, ours.mapping, ours.reason) == (
        ref.status,
        ref.nodes,
        ref.mapping,
        ref.reason,
    )


def test_search_transcripts_pinned(c5_report, c7_report):
    for report, nodes in ((c5_report, 10_829), (c7_report, 114_029)):
        assert report.item("chi_h").detail == {"colors": report.params.c, "nodes": nodes}
        budget = SearchBudget(node_limit=100_000)
        host = find_coloring(report.build.g, report.params.c, budget)
        assert (host.status, host.nodes, host.reason) == (EXHAUSTED, 100_001, "nodes")


def test_searches_never_touch_the_recursion_limit(monkeypatch):
    def refuse(limit):
        raise AssertionError("search changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    n = 20_000
    path = new_graph(n, [(i, i + 1) for i in range(n - 1)])
    col = find_coloring(path, 2)
    assert col.status == SOME and col.nodes == n
    assert verify_coloring(path, col.assignment, 2)
    hom = find_homomorphism(path, complete_graph(2))
    assert hom.status == SOME and verify_homomorphism(path, complete_graph(2), hom.mapping)
    assert path._adj is None  # the path's bitset rows were never built
