import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

import numpy as np

from conftest import random_graph
from hedcex import families, graphs
from hedcex.families import (
    OmegaGraph,
    n_shells,
    omega_edge_count,
    omega_shell_bits,
    omega_tuples,
    omega_type_pairs,
    omega_vertex_count,
    omega_vertices,
    shell_bits,
)
from hedcex.graphs import graph_sha256, new_graph
from oracles import (
    block_codes,
    complete_graph,
    cycle_graph,
    edge_ends,
    edge_type_pairs,
    exact_shell,
    kneser_graph,
    omega_sets,
    rows,
    tuple_vertices,
    walk_matrix,
)


def test_complete_graph_counts():
    for n in range(1, 7):
        g = complete_graph(n)
        assert g.n == n and g.edge_count == n * (n - 1) // 2


def test_cycle_graph_counts():
    g = cycle_graph(5)
    assert g.n == 5 and g.edge_count == 5
    assert rows(g)[0] == 0b10010
    assert cycle_graph(2).edge_count == 1
    assert cycle_graph(1).loops() == 1
    with pytest.raises(ValueError):
        cycle_graph(0)


def test_kneser_petersen():
    g = kneser_graph(5, 2)
    assert g.n == 10 and g.edge_count == 15
    degrees = {row.bit_count() for row in rows(g)}
    assert degrees == {3}


def test_kneser_counts_general():
    g = kneser_graph(6, 2)
    assert g.n == math.comb(6, 2)
    assert g.edge_count == math.comb(6, 2) * math.comb(4, 2) // 2


def power_rows(g, d):
    """The d-th walk power read off one ``shell_bits`` sweep with a
    singleton set per vertex: bit u of entry v says a walk of length exactly
    d joins u and v."""
    seeds = np.array([1 << v for v in range(g.n)], dtype=np.uint16)
    return shell_bits(g, seeds, d)[d]


def test_gamma_power_square_of_cycle():
    p = power_rows(cycle_graph(6), 2)
    # even powers of an even cycle include loops (walk out and back)
    assert p[2] >> 0 & 1 and p[0] >> 0 & 1
    assert not p[3] >> 0 & 1


def test_gamma_power_matches_walk_matrix():
    rng = random.Random(11)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 10), 0.4)
        d = rng.randint(1, 4)
        p = power_rows(g, d)
        w = walk_matrix(g, d)
        for u in range(g.n):
            for v in range(g.n):
                assert bool(p[v] >> u & 1) == bool(w[u, v])


def test_shells_match_oracle():
    rng = random.Random(23)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 11), 0.35)
        members = np.array([rng.random() < 0.4 for _ in range(g.n)], dtype=bool)
        members[0] |= not members.any()
        d = rng.randint(0, 4)
        shells = n_shells(g, members, d)
        assert len(shells) == d + 1
        for i, shell in enumerate(shells):
            assert shell.dtype == bool and shell.shape == (g.n,)
            assert np.array_equal(shell, exact_shell(g, members, i))


@st.composite
def swept_graphs(draw):
    """A random graph with at least one loop, one isolated vertex and one
    vertex whose only edges go to lower indices, seed bits for up to 12
    vertex sets, and a walk length."""
    n = draw(st.integers(1, 10))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    loop = draw(vertex)
    edges.append((loop, loop))
    lower = draw(st.lists(vertex, min_size=1, max_size=n, unique=True))
    # vertex n is isolated; vertex n + 1 joins only lower vertices
    edges.extend((n + 1, u) for u in lower)
    sets = draw(st.integers(1, 12))
    dtype = np.min_scalar_type((1 << sets) - 1)
    seeds = draw(st.lists(st.integers(0, (1 << sets) - 1), min_size=n + 2, max_size=n + 2))
    return new_graph(n + 2, edges), np.array(seeds, dtype=dtype), sets, draw(st.integers(0, 4))


@given(swept_graphs())
def test_shell_bits_equals_one_sweep_per_set(case):
    g, seeds, sets, d = case
    shells = shell_bits(g, seeds, d)
    assert len(shells) == d + 1
    assert all(s.dtype == seeds.dtype and s.shape == (g.n,) for s in shells)
    isolated = g.n - 2
    assert all(s[isolated] == 0 for s in shells[1:])
    for j in range(sets):
        members = (seeds >> j & 1).astype(bool)
        per_set = n_shells(g, members, d)
        for t in range(d + 1):
            got = (shells[t] >> j & 1).astype(bool)
            assert np.array_equal(got, per_set[t]), (j, t)
            assert np.array_equal(got, exact_shell(g, members, t)), (j, t)


@st.composite
def repeating_graphs(draw):
    """A random graph on up to 8 vertices plus up to 2 isolated ones,
    bipartite (edges only across the halves) when drawn so, and seed bits
    for 4 vertex sets."""
    n = draw(st.integers(1, 8))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    if draw(st.booleans()):
        edges = [(u, v) for u, v in edges if (u < n // 2) != (v < n // 2)]
    n += draw(st.integers(0, 2))
    seeds = draw(st.lists(st.integers(0, 15), min_size=n, max_size=n))
    return new_graph(n, edges), np.array(seeds, dtype=np.uint8)


@given(repeating_graphs())
def test_shell_bits_past_the_repeat_matches_the_walk_oracle(case):
    # the sweep stops once a shell repeats the one two steps back; every
    # depth up to 3|V|, and every cut d of the list, still matches the oracle
    g, seeds = case
    sets = [(seeds >> j & 1).astype(bool) for j in range(4)]
    want = [[exact_shell(g, members, t) for members in sets] for t in range(3 * g.n + 1)]
    for d in range(3 * g.n + 1):
        shells = shell_bits(g, seeds, d)
        assert len(shells) == d + 1
        for t, shell in enumerate(shells):
            for j in range(4):
                assert np.array_equal((shell >> j & 1).astype(bool), want[t][j]), (d, t, j)


@pytest.mark.parametrize("s", [1, 3])
@pytest.mark.parametrize("d", range(1, 7))
def test_path_step_is_the_coordinate_pair_table(d, s):
    # one step from bit i at value i, two rows deep and s wide, over an
    # output filled with ones, marks in each value exactly the values it
    # pairs with: the rows of _coordinate_pairs less one on a block's grid
    # (values 1..d+1), and those plus 0 <-> 1 on the class sweep (0..d+1)
    pairs = {(x, y) for x, y in families._coordinate_pairs(d).tolist()}
    grid, sweep = {(x - 1, y - 1) for x, y in pairs}, pairs | {(0, 1), (1, 0)}
    for side, want in ((d + 1, grid), (d + 2, sweep)):
        a = np.repeat(np.tile(1 << np.arange(side, dtype=np.uint16), 2), s)
        b = np.full_like(a, 0xFFFF)
        families._path_step(a, b, side, s)
        b = b.reshape(2, side, s)
        assert (b == b[:1, :, :1]).all()
        got = {(i, j) for i in range(side) for j in range(side) if b[0, i, 0] >> j & 1}
        assert got == want


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint64])
@pytest.mark.parametrize("n,d", [(n, d) for n in range(2, 6) for d in range(1, 4)])
def test_omega_shell_bits_equal_shell_bits_at_every_depth(n, d, dtype):
    # random seeds of every bit width on about a third of the vertices, swept
    # to 2|V| + 3, past the depth where the shells repeat
    om = omega_tuples(n, d)
    rng = np.random.default_rng(100 * n + 10 * d + np.dtype(dtype).itemsize)
    seeds = rng.integers(0, np.iinfo(dtype).max, size=om.graph.n, dtype=dtype, endpoint=True)
    seeds[rng.random(om.graph.n) < 2 / 3] = 0
    t = 2 * om.graph.n + 3
    want, got = shell_bits(om.graph, seeds, t), omega_shell_bits(om, seeds, t)
    assert len(got) == t + 1
    for depth, (shell, expected) in enumerate(zip(got, want)):
        assert shell.dtype == seeds.dtype and np.array_equal(shell, expected), depth


@pytest.mark.parametrize("report", ["c5_report", "c7_report", "c5_wide_report"])
def test_omega_shell_bits_equal_shell_bits_on_the_preset_hosts(request, report):
    # the hosts of the three variants, seeded with one bit per class of their
    # wide coloring as the build seeds them, to twice the half width and more
    build = request.getfixturevalue(report).build
    k, pairs = build.params.k, build.gamma.pairs.astype(np.uint16)
    seeds = np.left_shift(np.uint16(1), (pairs[:, 0] - 1) * k + pairs[:, 1] - 1)
    t = 2 * build.omega.d + 3
    want, got = shell_bits(build.omega.graph, seeds, t), omega_shell_bits(build.omega, seeds, t)
    assert len(got) == t + 1
    for depth, (shell, expected) in enumerate(zip(got, want)):
        assert np.array_equal(shell, expected), depth


def test_omega_formula_matches_enumeration():
    for n in range(2, 7):
        for d in range(1, 5):
            assert len(tuple_vertices(n, d)) == omega_vertex_count(n, d)


def _tuples(om):
    """The vertex tuples of ``om`` as the rows of an array, decoded from
    their codes."""
    return np.column_stack(np.unravel_index(om.codes, (om.d + 2,) * om.n))


def test_omega_tuples_validity():
    om = omega_tuples(4, 2)
    tuples = tuple_vertices(4, 2)
    assert om.codes.tolist() == [int("".join(map(str, t)), 4) for t in tuples]
    assert _tuples(om).tolist() == [list(t) for t in tuples]
    for t in tuples:
        assert t.count(0) == 1 and 1 in t and max(t) <= 3
    # edges satisfy the coordinate rule, both ways
    for a, b in om.graph.edges():
        x, y = tuples[a], tuples[b]
        assert all(
            abs(xi - yi) == 1 or (xi == yi == 3) for xi, yi in zip(x, y)
        )


def test_omega_vertices_peak_near_their_code_space():
    # the enumeration of the 4^10 codes at (n, d) = (10, 2) holds three
    # bytes a code (a flag byte, a zero position and the validity test)
    # and the codes it keeps: 4.7 MB, where a 10-byte digit row per code
    # once peaked at 16.0 MB
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        codes, zero = families._omega_vertices(10, 2)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(codes) == omega_vertex_count(10, 2) == 191710
    digits = np.column_stack(np.unravel_index(codes, (4,) * 10))
    assert ((digits == 0).sum(axis=1) == 1).all() and (digits == 1).any(axis=1).all()
    assert np.array_equal(zero, np.argmax(digits == 0, axis=1))
    assert peak < 5 * 4**10


def test_omega_vertices_refuse_a_count_off_the_formula(monkeypatch):
    # the enumeration checks itself against the closed form: a formula one
    # higher than the 9 codes it finds at (n, d) = (3, 1) is refused
    count = families.omega_vertex_count
    monkeypatch.setattr(families, "omega_vertex_count", lambda n, d: count(n, d) + 1)
    error = "^tuple enumeration produced 9 vertices, formula says 10$"
    with pytest.raises(RuntimeError, match=error):
        families._omega_vertices(3, 1)


@pytest.mark.parametrize("n,d", [(10, 2), (8, 6)])
def test_large_hosts_pass_the_build_bound(monkeypatch, n, d):
    # footprints of 0.15 and 1.20 GB, under the 2 GiB bound that refuses
    # (8, 7) and (12, 2): checked without building, as an enumeration that
    # stands in for the real one is reached only past the bound
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(families, "_omega_vertices", reached)
    with pytest.raises(Reached):
        omega_tuples(n, d)


def test_omega_pinned_counts():
    assert omega_tuples(6, 3).graph.n == 4686
    assert omega_tuples(6, 3).graph.edge_count == 36015
    assert omega_tuples(8, 2).graph.n == 16472
    assert omega_vertex_count(6, 6) == 54186


# (vertices, edges, host SHA-256) of omega_tuples(n, d): small cases, the
# hosts of c5_refined, c7 and c5_wide, then one host on uint64 pair keys.
OMEGA_PINS = {
    (2, 1): (2, 1, "cc285fb6c093465e44eea624d59b8c14809e353c4f67d98f96c5f8361d82d41d"),
    (3, 1): (9, 9, "a6d17c3b191089f985865bdedd6b6726b254ed96a5b8c6bb708c96930be848e1"),
    (3, 2): (15, 15, "217dc0a15e2b5cd5518d5621c7b63cd30216dfe76d5a4ed1839b3c908d9678d8"),
    (4, 1): (28, 54, "f7b7b2333d7c4bc5a7d36e2c859a5e455320d5a761d3535bcebde49cbff0ed47"),
    (4, 2): (76, 150, "2f4c7e1ed10c1479990133c746536e0b1174f8f9f72c940102310c080a8095de"),
    (5, 2): (325, 1250, "0df7513b82027ac9a34d972d3a8c2797959cea5714ba2e26cda200522dfb3ce5"),
    (5, 3): (875, 3430, "faceb4f831d1e571e8647a6de98f8866ff608cc58c7b0d8f5c7ae5ed8a11f440"),
    (6, 3): (4686, 36015, "d3965243aff8c5692659b570f51e6c2f169d2ffddd660c7dead5b52ec84fc60b"),
    (8, 2): (16472, 437500, "aa35fa2974489b519a6608b39a6fae5868694e6bd71e61a982e996dd132a1701"),
    (6, 6): (54186, 428415, "957d172cca1db53129f5145f564d155fb10b7cbb1b8daee99597ee37cf19d905"),
    # past 65,536 vertices, so its pair keys are uint64
    (7, 4): (80703, 1240029, "4aa08eff80c06d44e1269c0a3e672cbeef1d40d8fd9e0bb0ccc2cd572e17739c"),
}


@pytest.mark.parametrize("n,d", sorted(OMEGA_PINS))
def test_omega_tuples_pinned(n, d):
    # the written host's hash, and the pin of a host with no edge written
    g = omega_tuples(n, d).graph
    assert (g.n, g.edge_count, graph_sha256(g)) == OMEGA_PINS[n, d]
    assert omega_vertices(n, d).sha256 == OMEGA_PINS[n, d][2]


def test_the_pin_writes_the_edge_keys_once_and_keeps_none(count_calls):
    # the digest is kept; the keys are written for the first read alone
    keys = count_calls(families, "_omega_keys")
    lines = count_calls(graphs, "_dimacs_lines")
    omega = omega_vertices(6, 3)
    assert omega.sha256 == omega.sha256 == OMEGA_PINS[6, 3][2]
    assert (keys, lines) == ({"_omega_keys": 1}, {"_dimacs_lines": 1})
    assert "graph" not in vars(omega)


@pytest.mark.parametrize("n,d", sorted(OMEGA_PINS))
def test_block_slices_match_the_code_sums(n, d):
    # every ordered block's slice of the index table holds the vertices
    # whose codes the digit-by-digit sums name, in the same order, for the
    # grid's values; read at the grid positions of either pair column, it
    # holds those of that column's values
    om = omega_vertices(n, d)
    index = np.full((d + 2) ** n, -1, dtype=np.int32)
    index[om.codes] = np.arange(om.codes.size, dtype=np.int32)
    cube, pairs = index.reshape((d + 2,) * n), families._coordinate_pairs(d)
    values = np.arange(1, d + 2)
    at = families._grid_positions(pairs, d, n)
    for p, q in itertools.permutations(range(n), 2):
        block = cube[families._block(n, p, q, d)].ravel()
        assert block.min() >= 0
        assert np.array_equal(block, np.take(index, block_codes(n, d, p, q, values)))
        for column, positions in zip(pairs.T, at):
            want = np.take(index, block_codes(n, d, p, q, column))
            assert np.array_equal(np.take(block, positions), want)


@pytest.mark.parametrize(
    "n,d", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (5, 2), (5, 3), (6, 1)]
)
def test_omega_edge_arrays_match_the_definition(n, d):
    om = omega_tuples(n, d)
    x = _tuples(om)
    step = np.abs(x[:, None, :] - x[None, :, :]) == 1
    top = (x[:, None, :] == d + 1) & (x[None, :, :] == d + 1)
    eu, ev = np.nonzero(np.triu((step | top).all(axis=2)))
    got_u, got_v = edge_ends(om.graph)
    assert np.array_equal(got_u, eu) and np.array_equal(got_v, ev)


@pytest.mark.parametrize("n,d", sorted(OMEGA_PINS))
def test_omega_edges_satisfy_the_definition_and_its_degrees(n, d):
    # read off the vertex tuples alone, without the enumerator: each edge is
    # listed once with u < v, each coordinate pair differs by one or both
    # sit at d+1, and a vertex with m 1s has exactly m 2^(n-1-m) partners
    # (its neighbor's 0 sits opposite one of its 1s, its other 1s face 2s,
    # and every other coordinate has two choices); with no repeats and
    # every listed edge valid, matching degrees leave no edge out
    om = omega_tuples(n, d)
    eu, ev = edge_ends(om.graph)
    keys = eu.astype(np.int64) << 32 | ev
    assert (eu < ev).all() and (keys[1:] > keys[:-1]).all()
    tuples = _tuples(om)
    for column in tuples.T:
        x, y = column[eu], column[ev]
        assert ((np.abs(x - y) == 1) | ((x == d + 1) & (y == d + 1))).all()
    ones = (tuples == 1).sum(axis=1)
    degree = np.bincount(eu, minlength=om.graph.n) + np.bincount(ev, minlength=om.graph.n)
    assert np.array_equal(degree, ones << (n - 1 - ones))


@pytest.mark.parametrize(
    "n,d,bound", [(6, 6, 7_000_000), (8, 2, 4_000_000), (7, 4, 16_000_000)]
)
def test_omega_tuples_peak_holds_one_copy_of_the_edges(n, d, bound):
    # traced peaks of omega_tuples, whose graph is its sorted pair keys:
    # 4.33 MB on the c5_wide host (6, 6) and 2.75 MB on the c7 host (8, 2),
    # where an (edges, 2) array beside its per-block pieces peaked at 9.98
    # and 9.45 MB, and int32 endpoint arrays split off the keys at 3.80 MB
    # on (8, 2); 13.91 MB on (7, 4), whose 9.9 MB of uint64 keys once had
    # the two int32 endpoint arrays beside them (21.05 MB)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        omega_tuples(n, d)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < bound


def _lacking_a_vertex(n, d):
    """The vertices of the tuple adjoint at (n, d) less its first one, which
    sits in a grid of some block, as every vertex does."""
    om = omega_vertices(n, d)
    return OmegaGraph(om.codes[1:], om.zero_positions[1:], n=n, d=d)


def test_omega_enumeration_off_the_vertex_set_is_caught():
    # the index table maps the missing vertex's code to -1
    with pytest.raises(RuntimeError, match="tuple adjoint grid left the vertex set"):
        _lacking_a_vertex(3, 1).graph


@pytest.mark.parametrize("n,d", sorted(OMEGA_PINS))
def test_omega_hosts_hold_one_key_array(n, d):
    # a host keeps its order and its sorted pair keys, and no endpoint
    # arrays beside them: 4 bytes an edge up to 65,536 vertices, 8 past that
    g = omega_tuples(n, d).graph
    held = [getattr(g, name) for name in type(g).__slots__]
    arrays = [a for a in held if isinstance(a, np.ndarray)]
    width = 4 if g.n <= 1 << 16 else 8
    assert len(arrays) == 1 and arrays[0].base is None
    assert arrays[0].nbytes == width * g.edge_count


@pytest.mark.parametrize("n,d", sorted(OMEGA_PINS))
def test_omega_edge_count_formula(n, d):
    assert omega_edge_count(n, d) == OMEGA_PINS[n, d][1]


def test_omega_enumeration_generates_each_edge_once(monkeypatch):
    # every ordered pair of zero positions, not only p < q: block (q, p)
    # generates the edges of block (p, q) from their other ends
    monkeypatch.setattr(families, "combinations", itertools.permutations)
    with pytest.raises(RuntimeError, match="generated 9 edges more than once"):
        omega_tuples(3, 1)


def test_omega_enumeration_with_a_wrong_menu_is_caught(monkeypatch):
    # every generated tuple is valid, but a pair table lacking (d+1, d+1)
    # gives each pair of zero positions two edges where there are three
    pairs = families._coordinate_pairs
    monkeypatch.setattr(families, "_coordinate_pairs", lambda d: pairs(d)[:-1])
    with pytest.raises(RuntimeError, match="produced 6 edges, formula says 9"):
        omega_tuples(3, 1)


def test_omega_enumeration_with_a_repeated_pair_is_caught(monkeypatch):
    # a pair table listing (1, 2) twice generates its edge at each of the
    # three pairs of zero positions twice
    pairs = families._coordinate_pairs
    monkeypatch.setattr(families, "_coordinate_pairs", lambda d: pairs(d)[[0, *range(2 * d + 1)]])
    with pytest.raises(RuntimeError, match="generated 3 edges more than once"):
        omega_tuples(3, 1)


def _random_codings(om, rng):
    """Codings of the vertices of ``om`` into 3, 70, 50 and 100 random
    types, whose bits start at 0, 3, 73 and 123: more than 64 types, and
    families that straddle the 64-bit words at 64, 128 and 192; plus the
    identity coding on hosts of at most 1,000 vertices."""
    size = om.codes.size
    codings = [(rng.integers(0, k, size=size), k) for k in (3, 70, 50, 100)]
    return codings + ([(np.arange(size), size)] if size <= 1000 else [])


@pytest.mark.parametrize("n,d", sorted(OMEGA_PINS))
def test_type_pairs_match_the_edge_pass(n, d):
    # the grid pass writes no edge and reads, in every coding, exactly the
    # type pairs that the explicit pass over the written edges marks, and
    # counts exactly the written edges
    om = omega_vertices(n, d)
    codings = _random_codings(om, np.random.default_rng(100 * n + d))
    got, edges = omega_type_pairs(om, codings)
    assert "graph" not in vars(om)
    want = edge_type_pairs(om.graph, codings)
    assert edges == om.graph.edge_count == OMEGA_PINS[n, d][1]
    assert all(g.dtype == bool and np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("grid_bytes", [1, 1 << 18, 1 << 30])
def test_type_pairs_do_not_depend_on_the_chunk(monkeypatch, grid_bytes):
    # one block per chunk, the default, and every block in one chunk
    om = omega_vertices(6, 3)
    codings = _random_codings(om, np.random.default_rng(7))
    want = edge_type_pairs(om.graph, codings)
    monkeypatch.setattr(families, "_GRID_BYTES", grid_bytes)
    got, edges = omega_type_pairs(om, codings)
    assert edges == 36015 and all(np.array_equal(g, w) for g, w in zip(got, want))


def test_type_pairs_with_a_grid_code_off_the_vertex_set_are_refused():
    # the same walk as the key write, so the same refusal
    with pytest.raises(RuntimeError, match="tuple adjoint grid left the vertex set"):
        omega_type_pairs(_lacking_a_vertex(3, 1), [(np.zeros(8, dtype=np.uint8), 1)])


@pytest.mark.parametrize(
    "menu,counted", [(lambda p: p[:-1], 6), (lambda p: p[[0, *range(len(p))]], 12)]
)
def test_type_pairs_with_a_wrong_count_are_refused(monkeypatch, menu, counted):
    # a pair table lacking (d+1, d+1) relates two grid pairs per block
    # where there are three; one listing (1, 2) twice counts four, though
    # it reads the same type pairs
    om = omega_vertices(3, 1)
    pairs = families._coordinate_pairs
    monkeypatch.setattr(families, "_coordinate_pairs", lambda d: menu(pairs(d)))
    with pytest.raises(RuntimeError, match=f"grid counted {counted} edges, formula says 9"):
        omega_type_pairs(om, [(np.arange(9), 9)])


def test_type_pairs_past_the_build_bound_are_refused():
    # 2**40 types take 2**34 words at each of the 2 points of a block, so a
    # chunk of one block passes 2 GiB before anything is allocated
    om = omega_vertices(3, 1)
    with pytest.raises(ValueError, match="for its 27 codes and a 274877906944-byte grid chunk"):
        omega_type_pairs(om, [(np.zeros(9, dtype=np.uint8), 2**40)])


@pytest.mark.parametrize("n", [10_000, 10_000_000])
def test_a_huge_code_space_is_refused_on_bit_lengths(monkeypatch, n):
    # 3**10000 has 4,772 digits, past Python's limit for formatting an
    # int, and 3**(10**7) takes seconds: both hosts are refused before any
    # power is computed, and no array is allocated
    def reached(*args):
        raise AssertionError("reached past the bit-length refusal")

    for name in ("_omega_vertices", "omega_edge_count", "omega_vertex_count"):
        monkeypatch.setattr(families, name, reached)
    tracemalloc.start()
    try:
        for build in (omega_tuples, omega_vertices):
            with pytest.raises(ValueError, match=rf"n={n} d=1 has at least 2\*\*{n} codes"):
                build(n, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


@pytest.mark.parametrize("dtype", [np.uint8, np.uint64])
def test_the_class_sweep_stays_under_the_build_bound(monkeypatch, dtype):
    # at (10, 2), the traced peak of the enumeration and a sweep to depth
    # d + 1, as a build makes them, stays under the bytes the bound counts
    # for the sweep: 7 a code, the two code-space buffers and the shells
    # (on 64-bit seeds the buffers alone take 16 bytes a code)
    counted, bound = [], families._host_bound

    def spy(n, d, extra=None, of="grid chunk"):
        counted.append(7 * (d + 2) ** n + extra)
        return bound(n, d, extra, of)

    monkeypatch.setattr(families, "_host_bound", spy)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        om = omega_vertices(10, 2)
        seeds = np.left_shift(dtype(1), om.zero_positions.astype(dtype))
        omega_shell_bits(om, seeds, 3)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(counted) == 2 and peak < counted[1]


def test_a_sweep_past_the_build_bound_is_refused():
    # 64-bit seeds at (17, 1) need 16 bytes a code of buffers beside the
    # build's 7, past 2 GiB: refused before anything is allocated
    om = families.OmegaGraph(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.uint8), n=17, d=1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="129140163 codes and a 2066242608-byte shell sweep"):
            omega_shell_bits(om, np.zeros(0, dtype=np.uint64), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_a_build_bounds_its_code_space_alone():
    # the build writes no edge, so (20, 1) is refused on its 3**20 codes,
    # and the c11 host (12, 2), whose edge keys alone pass 2 GiB, is not
    with pytest.raises(ValueError, match="needs 24407490807 bytes for its 3486784401 codes, past"):
        omega_vertices(20, 1)
    families._host_bound(12, 2, 0)


def test_omega_is_triangle_free():
    g = omega_tuples(4, 1).graph
    adj = rows(g)
    for u, v in g.edges():
        assert not (adj[u] & adj[v]), "common neighbor on an edge"


def test_zero_positions_are_proper():
    om = omega_tuples(5, 2)
    zp = om.zero_positions
    assert zp.tolist() == [t.index(0) for t in tuple_vertices(5, 2)]
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
    perm = [index[_chain_of(x, d)] for x in tuple_vertices(m, d)]
    assert sorted(perm) == list(range(st_.graph.n))
    mapped = {(min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in tup.graph.edges()}
    stored = {(min(a, b), max(a, b)) for a, b in st_.graph.edges()}
    assert mapped == stored


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
    assert all(rows(g))
