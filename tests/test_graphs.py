import hashlib
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from conftest import random_graph
from hedcex import graphs
from hedcex.graphs import (
    Graph,
    edge_slices,
    emit_dimacs,
    emit_dot,
    graph_sha256,
    neighbor_arrays,
    new_graph,
    parse_dimacs,
    vertex_flags,
)
from hedcex.families import n_shells
from hedcex.widecolor import narrow_bits
from oracles import edge_ends, is_independent, reference_dimacs


def test_boundary_rejects_bad_vertex_sets():
    g = new_graph(3, [(0, 1)])
    for bad in (np.array([0, 1]), np.zeros(2, dtype=bool), np.zeros((3, 1), dtype=bool), 0b11):
        with pytest.raises(ValueError):
            vertex_flags(g, bad)
        with pytest.raises(ValueError):
            n_shells(g, bad, 1)


def test_new_graph_basics():
    g = new_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.n == 4
    assert g.edge_count == 4
    assert list(g.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert new_graph(4, [(1, 0), (2, 1), (3, 2), (0, 3)]).edge_count == 4


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
        g = new_graph(n, edges)
        sliced = list(edge_slices(g))
        assert all(u.dtype == v.dtype == np.intp for u, v in sliced)
        assert [e for u, v in sliced for e in zip(u.tolist(), v.tolist())] == expect
        assert list(g.edges()) == expect


def test_edge_bounds_checked():
    with pytest.raises(ValueError):
        new_graph(2, [(0, 2)])
    with pytest.raises(ValueError, match=r"edge \(-1, 0\)"):
        new_graph(2, np.array([[0, 1], [-1, 0]], dtype=np.int32))
    with pytest.raises(ValueError):
        new_graph(-1, [])
    with pytest.raises(ValueError, match="^edges must be pairs of vertices$"):
        new_graph(3, np.array([[0, 1, 2]]))


def test_new_graph_refuses_pairs_that_are_not_integers():
    for edges, named in [
        ([(0.5, 1.7)], r"\(0\.5, 1\.7\)"),
        ([(0, 1), (0.5, 1.7)], r"\(0\.5, 1\.7\)"),
        (np.array([[0.0, 1.0]]), r"\(0\.0, 1\.0\)"),
        (np.array([[True, False]]), r"\(True, False\)"),
        ([("1", "2")], r"\('1', '2'\)"),
    ]:
        with pytest.raises(ValueError, match=f"edge {named} is not a pair of integers"):
            new_graph(3, edges)
    # Python ints and signed or unsigned numpy integers are read as they are
    for edges in ([(2, 1)], [(np.uint8(2), np.int64(1))], np.array([[2, 1]], dtype=np.uint64)):
        assert list(new_graph(3, edges).edges()) == [(1, 2)]
    with pytest.raises(ValueError, match="out of range"):
        new_graph(3, [(0, 2**70)])


def test_vertex_count_is_capped_at_int32():
    # past 2**31 vertices an endpoint would wrap in int32, so the count is
    # refused by name, through the DIMACS reader too
    with pytest.raises(ValueError, match=r"vertex count 3000000000 exceeds 2\*\*31"):
        parse_dimacs("p edge 3000000000 1\ne 1 3000000000\n")
    with pytest.raises(ValueError, match=r"exceeds 2\*\*31"):
        new_graph(2**31 + 1, [])
    assert new_graph(2**31, np.zeros((0, 2), dtype=np.int32)).n == 2**31


@pytest.mark.parametrize("n,dtype", [(65535, np.uint32), (65536, np.uint32), (65537, np.uint64)])
def test_pair_keys_across_the_key_width(n, dtype):
    # the pair keys switch from uint32 to uint64 once 2 * (n - 1).bit_length()
    # passes 32; both widths give the same edge, CSR and DIMACS results
    assert graphs._key_array(n, 1)[0].dtype == dtype
    pairs = [(n - 1, 0), (n - 1, n - 1), (n - 1, n - 2)]
    expect = sorted({(min(u, v), max(u, v)) for u, v in pairs})
    g = new_graph(n, pairs)
    assert g.keys.dtype == dtype
    ((u, v),) = edge_slices(g)
    assert u.dtype == v.dtype == np.intp
    assert list(zip(u.tolist(), v.tolist())) == list(g.edges()) == expect
    # each edge lists both ends, so a loop is listed twice
    near = {v: [] for v in range(n)}
    for u, v in expect:
        near[u].append(v)
        near[v].append(u)
    ptr, dst = neighbor_arrays(g)
    assert ptr.dtype == np.intp and dst.dtype == dtype
    assert np.array_equal(np.diff(ptr), [len(near[v]) for v in range(n)])
    for v in (0, n - 2, n - 1):
        assert dst[ptr[v] : ptr[v + 1]].tolist() == sorted(near[v])
    assert emit_dimacs(g) == reference_dimacs(g)


def test_loop_is_representable():
    g = new_graph(2, [(0, 0), (0, 1)])
    assert g.has_loop() and g.loops() == 1
    assert list(g.edges()) == [(0, 0), (0, 1)]
    assert not new_graph(2, [(0, 1)]).has_loop()
    # a loop past the first slice of edges
    n = graphs._SLICE + 2
    g = new_graph(n, [(v, v + 1) for v in range(n - 1)] + [(n - 1, n - 1)])
    assert g.has_loop() and g.loops() == 1


def test_is_independent():
    # the edge reference and the shell reading, on plain edges and on a loop
    for edges, flags, independent in (
        ([(0, 1), (2, 3)], [1, 0, 1, 0], True),
        ([(0, 1), (2, 3)], [1, 1, 0, 0], False),
        ([(0, 1), (2, 3)], [0, 0, 0, 0], True),
        ([(0, 1), (2, 2)], [1, 0, 0, 1], True),
        ([(0, 1), (2, 2)], [0, 0, 1, 0], False),
    ):
        g, members = new_graph(4, edges), np.array(flags, dtype=bool)
        assert is_independent(g, members) == independent
        assert (not narrow_bits(*n_shells(g, members, 1))) == independent


def test_dimacs_round_trip_small():
    g = new_graph(4, [(0, 1), (2, 3)])
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
    assert graph_sha256(Graph(g.n, g.keys.copy())) == sha


def _emitter_cases():
    # n = 0 and 1, both sides of each digit-width boundary, loops, no edges
    yield new_graph(0, [])
    yield new_graph(1, [])
    yield new_graph(1, [(0, 0)])
    for n in (9, 10, 99, 100, 99_999, 100_000):
        yield new_graph(n, [])
        yield new_graph(n, [(0, 0), (0, n - 1), (n - 1, n - 1), (n // 2, n - 2)])
        yield new_graph(n, [(v, (7 * v + 3) % n) for v in range(min(n, 500))])
    # more edges than one chunk, with vertex numbers of every width 1..6
    widths = np.array([[0, 9], [99, 999], [9_999, 99_999]])
    pairs = np.random.default_rng(12).integers(0, 100_000, size=(70_000, 2))
    yield new_graph(100_000, np.vstack((widths, pairs)))


@pytest.mark.parametrize("g", list(_emitter_cases()), ids=repr)
def test_dimacs_bytes_match_the_percent_formatter(g):
    text = reference_dimacs(g)
    assert emit_dimacs(g) == text
    assert emit_dimacs(g, comment="note") == "c note\n" + text
    assert graph_sha256(g) == hashlib.sha256(text.encode("ascii")).hexdigest()
    # the problem line, then one chunk per _CHUNK edges or part of them
    assert len(list(graphs._dimacs_lines(g))) == 1 + -(-g.edge_count // graphs._CHUNK)


def test_rows_match_the_bitwise_build():
    # repeated pairs, both orientations and loops, on raw edge lists
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(0, 90)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))]
        expect = [0] * n
        for u, v in edges:
            expect[u] |= 1 << v
            expect[v] |= 1 << u
        ptr, dst = neighbor_arrays(new_graph(n, edges))
        listed = [dst[ptr[v] : ptr[v + 1]].tolist() for v in range(n)]
        assert [sum(1 << u for u in set(row)) for row in listed] == expect
        # each neighbor once and a loop twice, non-decreasing
        degrees = [row.bit_count() + (row >> v & 1) for v, row in enumerate(expect)]
        assert [len(row) for row in listed] == degrees
        assert all(row == sorted(row) for row in listed)


@given(st.integers(0, 40), st.sampled_from([0, 65_537]), st.data())
def test_edge_lists_once_ascending_on_loopy_graphs(n, low, data):
    # on n vertices, or on the last n of n + 65,537, whose keys are uint64
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    pairs = [
        (low + rng.randrange(n), low + rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))
    ]
    n += low
    g = new_graph(n, pairs)
    expect = sorted({(min(u, v), max(u, v)) for u, v in pairs})
    assert g.edge_count == len(expect)
    assert list(g.edges()) == expect
    sliced = [(u.tolist(), v.tolist()) for u, v in edge_slices(g)]
    assert [e for u, v in sliced for e in zip(u, v)] == expect
    assert all(0 < len(u) <= graphs._SLICE for u, _ in sliced)
    assert g.loops() == sum(u == v for u, v in expect)
    ptr, dst = neighbor_arrays(g)
    assert ptr.dtype == np.intp and dst.dtype == g.keys.dtype
    # the arcs of both orientations, sorted, so a loop is listed twice
    arcs = sorted(expect + [(v, u) for u, v in expect])
    degree = Counter(u for u, _ in arcs)
    assert np.diff(ptr).tolist() == [degree[v] for v in range(n)]
    assert dst.tolist() == [v for _, v in arcs]
    flags = np.array([rng.random() < 0.3 for _ in range(n)], dtype=bool)
    brute = not any(flags[u] and flags[v] for u, v in expect)
    assert (not narrow_bits(*n_shells(g, flags, 1))) == brute


def test_dot_output_mentions_labels():
    g = new_graph(2, [(0, 1)])
    dot = emit_dot(g, ["left", "right"])
    assert "left" in dot and "right" in dot and "0 -- 1" in dot


@given(st.integers(0, 60), st.data())
def test_dimacs_round_trip_random(n, data):
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    g = random_graph(rng, n, 0.3)
    assert sorted(parse_dimacs(emit_dimacs(g)).edges()) == sorted(g.edges())


def test_dimacs_round_trip_on_the_c5_refined_host(omega63):
    g = omega63.graph
    back = parse_dimacs(emit_dimacs(g, comment="c5_refined host"))
    assert back.n == g.n
    for got, want in zip(edge_ends(back), edge_ends(g)):
        assert np.array_equal(got, want)
    assert graph_sha256(back) == graph_sha256(g)


def _line_loop(text):
    """``parse_dimacs`` with its numpy pass refusing every text, so the line
    loop reads it."""
    with mock.patch.object(graphs, "_plain_dimacs", lambda text: None):
        return parse_dimacs(text)


def _parsed(parse, text):
    """(n, edge list) of the parsed text, or the ValueError's message."""
    try:
        g = parse(text)
    except ValueError as error:
        return str(error)
    return g.n, list(g.edges())


_FIRST_BAD_LINES = [
    ("", "missing problem line"),
    ("c only\n\n", "missing problem line"),
    ("e 1 2\np edge 2 1\n", "line 1: edge before problem line"),
    ("p edge 2 1\np edge 2 1\n", "line 2: repeated problem line"),
    ("c\np edge two 1\n", "line 2: malformed problem line 'p edge two 1'"),
    ("p col 3 1\ne 1 2\n", "line 1: malformed problem line 'p col 3 1'"),
    ("p edge 3\ne 1 2\n", "line 1: malformed problem line 'p edge 3'"),
    ("p edge 1_0 1\ne 1 2\n", "line 1: malformed problem line 'p edge 1_0 1'"),
    ("p edge +3 1\n", "line 1: malformed problem line 'p edge +3 1'"),
    ("p edge \u0663 1\n", "line 1: malformed problem line 'p edge \u0663 1'"),
    ("p edge -3 0\n", "line 1: negative vertex count"),
    ("p edge 3 -5\n", "line 1: negative edge count"),
    ("p edge 3 1\ne 1 2\ne 1\n", "line 3: malformed edge line 'e 1'"),
    ("p edge 3 1\ne 1 2\ne 1 x\n", "line 3: malformed edge line 'e 1 x'"),
    ("p edge 3 1\ne +1 2\n", "line 2: malformed edge line 'e +1 2'"),
    ("p edge 3 1\ne \u0661 2\n", "line 2: malformed edge line 'e \u0661 2'"),
    ("p edge 3 1\n\ne 0 2\n", "line 3: endpoint out of range in 'e 0 2'"),
    ("p edge 3 1\r\ne\t2  4 \r\n", "line 2: endpoint out of range in 'e\\t2  4'"),
    ("p edge 3 1\fe 1 2\x1ce 1 2\u2028e 1 9\n", "line 4: endpoint out of range in 'e 1 9'"),
    ("p edge 3 1\ne 1 2\nedge 1 2\ne 1 9\n", "line 3: unknown line type 'edge 1 2'"),
    ("p edge 3 1\ne 1 9\nx\n", "line 2: endpoint out of range in 'e 1 9'"),
]


@pytest.mark.parametrize("text,message", _FIRST_BAD_LINES)
def test_dimacs_names_the_first_bad_line(text, message):
    with pytest.raises(ValueError) as error:
        parse_dimacs(text)
    assert str(error.value) == message


def test_dimacs_reads_odd_edge_lines_in_ascii_digits():
    # leading zeros past 18 digits and no-break spaces leave the numpy pass
    # and are read by the line reader; a sign, an underscore or a non-ASCII
    # digit, which int() would take, is refused there by line
    text = "p edge 4 9\ne " + "0" * 20 + "3 4\ne 2\u00a03\n\t e 4  4\t\n"
    assert _parsed(parse_dimacs, text) == (4, [(1, 2), (2, 3), (3, 3)])
    assert graphs._plain_dimacs(text) is None
    for line in ("e +1 2", "e 1_0 2", "e \u0661 \u0664"):
        message = f"line 3: malformed edge line {line!r}"
        assert _parsed(parse_dimacs, "p edge 4 9\ne 1 2\n" + line + "\n") == message


@pytest.mark.parametrize("text", [text for text, _ in _FIRST_BAD_LINES])
def test_plain_dimacs_leaves_every_bad_file_to_the_line_loop(text):
    assert graphs._plain_dimacs(text) is None


@pytest.mark.parametrize("comment", [None, "a host"])
@pytest.mark.parametrize("host", ["omega63", "omega82", "c5_wide_build"])
def test_plain_dimacs_reads_the_three_hosts(request, host, comment):
    built = request.getfixturevalue(host)
    g = built.omega.graph if host == "c5_wide_build" else built.graph
    back = graphs._plain_dimacs(emit_dimacs(g, comment=comment))
    assert back is not None and graph_sha256(back) == graph_sha256(g)


_DIMACS_LINES = st.one_of(
    st.builds("e {} {}".format, st.integers(1, 5), st.integers(1, 5)),
    st.builds(
        "{}e{}{}{}{}{}".format,
        st.sampled_from(["", " ", "\t"]),
        st.sampled_from([" ", "\t", "  "]),
        st.sampled_from(["0", "1", "2", "3", "4", "5", "03", "+2", "x", "1" * 19]),
        st.sampled_from([" ", "\t "]),
        st.sampled_from(["1", "2", "4", "6", "-1", "4 1", "00000000000000000002"]),
        st.sampled_from(["", " ", "\t"]),
    ),
    st.sampled_from(["p edge 5 3", " p edge 5 0", "p edge 4", "p col 3 1", "p edge -1 0", "p"]),
    st.sampled_from(
        ["", " ", "c", "c e 1 2", "  cx", "e", "x 1 2", "e1 2 3", "\u00e9 1", "e 1\u00a02"]
    ),
)


# lines a plain file may hold (numbers of up to 18 digits), and two near
# misses, out of range under "p edge 5 9"
_NEAR_PLAIN_LINES = st.one_of(
    st.builds(
        "{}e{}{}{}{}{}".format,
        st.sampled_from(["", " ", "\t"]),
        st.sampled_from([" ", "\t", "  "]),
        st.sampled_from(["1", "2", "3", "4", "5", "03"]),
        st.sampled_from([" ", "\t "]),
        st.sampled_from(["1", "2", "4", "5", "0" * 17 + "2"]),
        st.sampled_from(["", " ", "\t"]),
    ),
    st.sampled_from(["", " ", "c", "c e 1 2", "  cx", "e 0 2", "e 6 1"]),
)


@settings(max_examples=300)
@given(
    st.one_of(
        st.lists(
            st.tuples(
                _DIMACS_LINES, st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0c", "\u2028"])
            )
        ),
        st.lists(st.tuples(_NEAR_PLAIN_LINES, st.just("\n"))),
    ),
    st.booleans(),
)
def test_dimacs_parser_matches_the_line_reader(lines, with_problem):
    # wherever the numpy pass accepts, the line loop reads the same graph
    text = "".join(line + end for line, end in lines)
    if with_problem:
        text = "p edge 5 9\n" + text
    plain = graphs._plain_dimacs(text)
    if plain is not None:
        assert (plain.n, list(plain.edges())) == _parsed(_line_loop, text)


@given(st.data())
def test_sha_is_permutation_sensitive_but_order_free(data):
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    g = random_graph(rng, 9, 0.35)
    edges = list(g.edges())
    rng.shuffle(edges)
    assert graph_sha256(new_graph(9, edges)) == graph_sha256(g)
