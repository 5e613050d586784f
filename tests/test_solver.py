import hashlib
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from hedcex import counterexample, graphs, solver
from hedcex.families import omega_tuples
from hedcex.graphs import new_graph
from hedcex.solver import (
    EXHAUSTED,
    NONE,
    SOME,
    SearchBudget,
    find_coloring,
    verify_coloring,
)
from oracles import (
    bits,
    brute_coloring,
    brute_homomorphism,
    complete_graph,
    cycle_graph,
    kneser_graph,
    reference_coloring,
    reference_greedy_clique,
    reference_homomorphism,
    rows,
)


def chromatic(g, budget=SearchBudget()):
    """Smallest c with a coloring, walking c upward with ``find_coloring``;
    each refusal below it must be an exhaustive ``none``."""
    for c in range(g.n + 1):
        res = find_coloring(g, c, budget)
        if res.status == SOME:
            return c, res.assignment
        assert res.status == NONE
    return None, None


def test_verify_coloring_rules():
    g = new_graph(3, [(0, 1), (1, 2)])
    assert verify_coloring(g, [1, 2, 1], 2)
    assert not verify_coloring(g, [1, 1, 2], 2)
    assert not verify_coloring(g, [1, 3, 1], 2)  # out of range
    assert not verify_coloring(g, [1, 2], 2)  # wrong length
    # a path past two slices of edges, improper only at its last edge
    n = 2 * graphs._SLICE + 3
    path = new_graph(n, [(v, v + 1) for v in range(n - 1)])
    colors = [1 + v % 2 for v in range(n)]
    assert verify_coloring(path, colors, 2)
    colors[-1] = colors[-2]
    assert not verify_coloring(path, colors, 2)


def test_verify_homomorphism_rules():
    # a homomorphism to K_3 is a proper 3-coloring, which verify_coloring judges
    c5, k3 = cycle_graph(5), complete_graph(3)
    hom = reference_homomorphism(c5, k3)
    assert hom is not None
    assert verify_coloring(c5, [t + 1 for t in hom], 3)
    assert not verify_coloring(c5, [1, 1, 1, 1, 1], 3)


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
    assert chromatic(complete_graph(6))[0] == 6
    assert chromatic(cycle_graph(8))[0] == 2
    assert chromatic(cycle_graph(9))[0] == 3
    assert chromatic(new_graph(4, []))[0] == 1
    assert chromatic(new_graph(0, []))[0] == 0


def test_chromatic_kneser_petersen():
    # chi(KG(5,2)) = 5 - 2*2 + 2 = 3
    assert chromatic(kneser_graph(5, 2))[0] == 3


def test_chromatic_loop_has_no_finite_value():
    g = new_graph(2, [(0, 1), (1, 1)])
    for c in range(0, 8):
        res = find_coloring(g, c)
        assert (res.status, res.nodes, res.reason) == (NONE, 0, "loop")


def test_budget_exhaustion_reports_nodes():
    g = kneser_graph(8, 3)  # 56 vertices, chi = 4
    res = find_coloring(g, 3, SearchBudget(node_limit=5))
    assert res.status == EXHAUSTED
    assert res.reason == "nodes"


def test_chromatic_range_narrowing():
    # chi = m decided from both sides, as the census does it: a verified
    # m-coloring bounds it above, one exhaustive (m-1)-refusal below
    c9 = cycle_graph(9)
    assert verify_coloring(c9, [1 + v % 2 for v in range(8)] + [3], 3)
    assert find_coloring(c9, 2).status == NONE
    om = omega_tuples(4, 1)
    assert verify_coloring(om.graph, (om.zero_positions + 1).tolist(), 4)
    res = find_coloring(om.graph, 3)
    assert (res.status, res.nodes) == (NONE, 8586)


@given(st.integers(0, 40), st.sampled_from([0, 65_537]), st.integers(1, 4), st.data())
def test_neighbor_lists_and_verify_coloring_match_the_oracles(n, low, c, data):
    # random loopy graphs on n vertices, or on the last n of n + 65,537,
    # whose keys are uint64
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    pairs = [
        (low + rng.randrange(n), low + rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))
    ]
    g = new_graph(low + n, pairs)
    assert solver._neighbor_lists(g) == [list(bits(row)) for row in rows(g)]
    # the pairs whose ends differ in color, and now and then one whose ends
    # do not (a loop more often), so the colors are often proper and a color
    # out of 1..c or a list of the wrong length decides
    colors = [1] * low + [rng.randint(1, c) for _ in range(n)]
    kept = [
        (u, v)
        for u, v in pairs
        if colors[u] != colors[v] or rng.random() < (0.2 if u == v else 0.02)
    ]
    h = new_graph(g.n, kept)
    for _ in range(4):
        assignment = list(colors)
        for v in rng.sample(range(low, g.n), min(n, rng.choice([0, 0, 1]))):
            assignment[v] = rng.choice([0, c + 1])
        size = rng.choice([g.n, g.n, g.n, g.n - 1, g.n + 1])
        assignment = (assignment + [1])[: max(size, 0)]
        brute = (
            len(assignment) == g.n
            and all(1 <= col <= c for col in assignment)
            and all(assignment[u] != assignment[v] for u, v in kept)
        )
        assert verify_coloring(h, assignment, c) == brute


def test_greedy_clique_is_a_clique():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 12), 0.5)
        adj = rows(g)
        clique = solver._clique_from(solver._neighbor_lists(g))
        assert len(clique) >= 1
        for i, u in enumerate(clique):
            for v in clique[i + 1 :]:
                assert adj[u] >> v & 1


def test_homomorphism_to_smaller_clique_fails():
    k4, k3 = complete_graph(4), complete_graph(3)
    assert reference_homomorphism(k4, k3) is None
    assert find_coloring(k4, 3).status == NONE


def test_homomorphism_odd_cycle_gap():
    # C5 -> C7 would retract an odd cycle onto a longer one
    c5, c7 = cycle_graph(5), cycle_graph(7)
    assert reference_homomorphism(c5, c7) is None
    assert brute_homomorphism(c5, c7) is None
    assert reference_homomorphism(c7, c5) is not None


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
    # the forward-checking search is what the adjunction tests decide with
    rng = random.Random(seed)
    g = random_graph(rng, n, 0.45)
    h = random_graph(rng, m, 0.5)
    ours = reference_homomorphism(g, h)
    assert (ours is None) == (brute_homomorphism(g, h) is None)
    if ours is not None:
        hadj = rows(h)
        assert all(hadj[ours[u]] >> ours[v] & 1 for u, v in g.edges())


@given(st.integers(0, 2**30))
def test_coloring_vs_clique_lower_bound(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 10), 0.5)
    value, assignment = chromatic(g)
    assert value >= len(solver._clique_from(solver._neighbor_lists(g)))
    assert verify_coloring(g, assignment, value)


def _loopy_graph(seed: int, n: int, p: float, loop_p: float):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    edges += [(v, v) for v in range(n) if rng.random() < loop_p]
    return new_graph(n, edges)


def _transcript(res):
    return res.status, res.nodes, res.assignment, res.reason


@settings(max_examples=300)
@given(
    st.integers(0, 2**30),
    st.integers(0, 14),
    st.sampled_from([0.0, 0.2, 0.5, 0.8]),
    st.sampled_from([0.0, 0.0, 0.1]),
    st.integers(1, 5),
    st.integers(1, 10_000),
)
def test_coloring_verdicts_match_references(seed, n, p, loop_p, c, limit):
    g = _loopy_graph(seed, n, p, loop_p)
    full = find_coloring(g, c)
    assert full.status == reference_coloring(g, c).status
    if n <= 9:  # plain backtracking is exponential in n
        assert (full.status == SOME) == (brute_coloring(g, c) is not None)
    if full.status == SOME:
        assert verify_coloring(g, full.assignment, c)
    # a smaller budget cuts the same search short, and only then says exhausted
    ours = find_coloring(g, c, SearchBudget(node_limit=limit))
    if full.nodes > limit:
        assert (ours.status, ours.nodes, ours.reason) == (EXHAUSTED, limit + 1, "nodes")
    else:
        assert _transcript(ours) == _transcript(full)
    again = find_coloring(g, c, SearchBudget(node_limit=limit))
    assert _transcript(again) == _transcript(ours)
    assert solver._clique_from(solver._neighbor_lists(g)) == reference_greedy_clique(g)


def _transcript_corpus():
    """300 seeded random graphs, about one in ten with a loop, at 1 to 8
    colors and node limits 5, 500 and 10**6; then Omega_3K_4 and Omega_5K_3
    at chi - 1 and chi colors."""
    rng = random.Random(23)
    for _ in range(300):
        n, p = rng.randint(0, 60), rng.uniform(0.05, 0.8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        if n and rng.random() < 0.1:
            v = rng.randrange(n)
            edges.append((v, v))
        yield new_graph(n, edges), rng.randint(1, 8), rng.choice([5, 500, 10**6])
    for n, d in ((4, 1), (3, 2)):
        g = omega_tuples(n, d).graph
        for c in (n - 1, n):
            yield g, c, 10**6


def test_search_transcript_corpus_pinned():
    # the branch order, propagation order and component splits together
    # decide every transcript; a rewrite of the search must leave this
    # digest as it is
    digest = hashlib.sha256()
    for g, c, limit in _transcript_corpus():
        res = find_coloring(g, c, SearchBudget(node_limit=limit))
        digest.update(repr(_transcript(res)).encode())
    assert digest.hexdigest() == "4f347219871d4b26d24cbbee0939ca3a237ccc8f0955d8ec4a4a25607f31d8ff"


def _larger_graph(family: str, rng: random.Random):
    """A graph of at least 20 vertices, and its parts when it is a disjoint
    union of parts small enough for ``brute_coloring`` (else None).

    default: sparse random graphs, which fall apart as the search colors them;
    no-split: sparse random graphs threaded by a spanning path, so the search
    starts on one component; split-below-8: disjoint random parts of 1 to 7
    vertices each, so the first split leaves only small components.
    """
    n, p = rng.randint(20, 90), rng.choice([0.05, 0.1, 0.2])
    if family == "default":
        return _loopy_graph(rng.randrange(2**30), n, p, 0.0), None
    if family == "no-split":
        edges = [(v, v + 1) for v in range(n - 1)]
        edges += [(u, v) for u in range(n) for v in range(u + 2, n) if rng.random() < p]
        return new_graph(n, edges), None
    parts = []
    while sum(h.n for h in parts) < n:
        parts.append(random_graph(rng, rng.randint(1, 7), rng.choice([0.3, 0.6, 0.9])))
    return _disjoint_union(*parts), parts


@pytest.mark.parametrize("family", ["default", "no-split", "split-below-8"])
def test_coloring_verdicts_match_reference_on_larger_graphs(family):
    # deep searches over graphs the search splits into many components
    rng = random.Random(11)
    for _ in range(40):
        g, parts = _larger_graph(family, rng)
        c = rng.randint(2, 6)
        budget = SearchBudget(node_limit=1_000_000)
        # the parts decide a union exactly, and without components the
        # reference re-colors the earlier parts on every backtrack
        ref_budget = SearchBudget(node_limit=200_000 if parts is None else 20_000)
        ours, ref = find_coloring(g, c, budget), reference_coloring(g, c, ref_budget)
        assert ours.status != EXHAUSTED
        if ref.status != EXHAUSTED:
            assert ours.status == ref.status
        if parts is not None:  # a union is colorable exactly when every part is
            assert (ours.status == SOME) == all(brute_coloring(h, c) is not None for h in parts)
        if ours.status == SOME:
            assert verify_coloring(g, ours.assignment, c)
        assert _transcript(find_coloring(g, c, budget)) == _transcript(ours)


def test_split_transcripts_pinned():
    # which component a split keeps decides the branch order after it, and
    # the corpus above cannot see that choice; these unions of small parts
    # split at every branch
    rng = random.Random(11)
    digest = hashlib.sha256()
    for _ in range(40):
        g, _ = _larger_graph("split-below-8", rng)
        c = rng.randint(2, 6)
        res = find_coloring(g, c, SearchBudget(node_limit=1_000_000))
        digest.update(repr(_transcript(res)).encode())
    assert digest.hexdigest() == "aa6b034c2f047b22665ce96527e4d5b103b2a16db26e0965294ef857c4ba2536"


def _mycielski(g):
    """Mycielski's construction: triangle-free in, triangle-free out, and
    the chromatic number goes up by one."""
    n = g.n
    edges = []
    for u, v in g.edges():
        edges += [(u, v), (u + n, v), (u, v + n)]
    edges += [(v + n, 2 * n) for v in range(n)]
    return new_graph(2 * n + 1, edges)


def _disjoint_union(*graphs):
    edges, base = [], 0
    for h in graphs:
        edges += [(u + base, v + base) for u, v in h.edges()]
        base += h.n
    return new_graph(base, edges)


def _shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return new_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@pytest.mark.parametrize("interleave", [True, False])
def test_only_the_last_component_has_no_coloring(interleave):
    # the Groetzsch graph is triangle-free with chi = 4, so the clique bound
    # cannot refute it and the search must reach the last component;
    # interleaving scatters each component's vertices over the numbering
    groetzsch = _mycielski(cycle_graph(5))
    rng = random.Random(5)
    easy = [cycle_graph(9), kneser_graph(5, 2), cycle_graph(4)]
    easy += [random_graph(rng, 12, 0.25) for _ in range(3)]
    colorable = [h for h in easy if find_coloring(h, 3).status == SOME]
    assert len(colorable) >= 4
    g = _disjoint_union(*colorable, groetzsch)
    alone = _disjoint_union(*colorable)
    if interleave:
        g, alone = _shuffled(g, rng), _shuffled(alone, rng)
    res = find_coloring(g, 3)
    assert (res.status, res.reason) == (NONE, "search")
    # plain DSATUR would re-color the earlier components on every backtrack
    assert reference_coloring(groetzsch, 3).status == NONE
    assert verify_coloring(g, find_coloring(g, 4).assignment, 4)
    res = find_coloring(alone, 3)
    assert res.status == SOME and verify_coloring(alone, res.assignment, 3)


@pytest.mark.parametrize(
    "rounds,c,nodes", [(1, 3, 26), (2, 4, 1432)], ids=["groetzsch", "m(groetzsch)"]
)
def test_each_branch_tries_its_whole_domain(rounds, c, nodes):
    # triangle-free graphs one color short: the greedy clique is an edge, so
    # the pre-coloring fixes only two colors and, at 4 colors, a fresh-color
    # cap would prune branches these counts pin; one color up, a verified
    # coloring
    g = cycle_graph(5)
    for _ in range(rounds):
        g = _mycielski(g)
    res = find_coloring(g, c)
    assert (res.status, res.nodes, res.reason) == (NONE, nodes, "search")
    res = find_coloring(g, c + 1)
    assert res.status == SOME and verify_coloring(g, res.assignment, c + 1)


def test_zero_node_budget_does_no_work(monkeypatch):
    def refuse(g):
        raise AssertionError("a zero-node search built neighbor lists")

    monkeypatch.setattr(solver, "_neighbor_lists", refuse)
    res = find_coloring(complete_graph(7), 5, SearchBudget(node_limit=0))
    assert (res.status, res.nodes, res.reason) == (EXHAUSTED, 0, "nodes")
    # loops and empty graphs are still decided before the budget matters
    assert find_coloring(new_graph(1, [(0, 0)]), 3, SearchBudget(node_limit=0)).status == NONE
    assert find_coloring(new_graph(0, []), 3, SearchBudget(node_limit=0)).status == SOME


def test_search_transcripts_pinned(c5_report, c7_report, c5_wide_report):
    for report, nodes in ((c5_report, 66), (c7_report, 473), (c5_wide_report, 366)):
        assert report.item("chi_h").detail == {"colors": report.params.c, "nodes": nodes}


def test_c9_search_transcript_pinned(monkeypatch):
    # the c9 pair (k=2, c=9, n=5, d=2) under the c7 name, whose inequality
    # set it meets: 3,310 nodes refute chi(H) <= 9, the one search on a real
    # H past the presets' 473
    k, c, n = 2, 9, 5
    monkeypatch.setitem(counterexample.VARIANTS, "c7", dict(k=k, c=c, n=n, d=2))
    counts = dict(g_vertices=191_710, g_edges=17_578_125, h_vertices=40, h_edges=280)
    monkeypatch.setitem(counterexample.EXPECTED_COUNTS, "c7", counts)
    report = counterexample.verify_counterexample(counterexample.params_for("c7"))
    assert report.status == counterexample.PASS
    assert report.item("chi_h").detail == {"colors": 9, "nodes": 3310}
    # the constants, f, and per family q the k + 1 colors past n of its
    # h(q,1,q,j) and g(q,2,j): no more than the argument needs
    assert report.build.h.n == c + 1 + 2 * n * (k + 1)


def test_searches_never_touch_the_recursion_limit(monkeypatch):
    def refuse(limit):
        raise AssertionError("search changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    n = 20_000
    path = new_graph(n, [(i, i + 1) for i in range(n - 1)])
    col = find_coloring(path, 2)
    assert col.status == SOME and col.nodes == n
    assert verify_coloring(path, col.assignment, 2)
    # two colors leave propagation nothing to choose; three make every
    # vertex past the clique a branch, about 2,000 frames deep against the
    # default recursion limit of 1,000, in memory that does not grow with
    # the depth times the order
    n = 2_000
    path = new_graph(n, [(i, i + 1) for i in range(n - 1)])
    tracemalloc.start()
    try:
        col = find_coloring(path, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert col.status == SOME and col.nodes == n
    assert verify_coloring(path, col.assignment, 3)
    assert peak < 8 * 2**20
