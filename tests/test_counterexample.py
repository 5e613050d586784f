import gc
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hedcex.counterexample import (
    CHI_G_ATTRIBUTION,
    CounterexampleParams,
    FunctionVertex,
    build_counterexample,
    chain_check,
    parameter_check,
    params_for,
    shifted,
    verify_counterexample,
)
from hedcex import counterexample, families, graphs, widecolor
from hedcex.certificate import check_certificate, emit_certificate
from hedcex.families import n_shells
from hedcex.graphs import graph_sha256, new_graph
from hedcex.solver import (
    DEFAULT_BUDGET,
    NONE,
    SOME,
    SearchBudget,
    find_coloring,
    verify_coloring,
)
from oracles import (
    collision_free,
    complete_graph,
    cycle_graph,
    edge_ends,
    edge_type_pairs,
    first_collision,
    is_independent,
    rows,
    table,
    unique_type_code,
)


def fv(label, values):
    """A vertex on the identity types of its host: its lookup is its table,
    and its stated image the values the table takes."""
    values = np.asarray(values, dtype=np.int8)
    return FunctionVertex(
        label, ("test",), frozenset(values.tolist()), np.arange(values.size), values
    )


def exp_adjacent(g, f, w):
    """Exponential-graph adjacency by the one-pair scan of E(G)."""
    return first_collision(g, table(f), table(w)) is None


# -- parameters ---------------------------------------------------------------


@pytest.mark.parametrize(
    "k,c,n,variant,expect",
    [
        (2, 7, 4, "c7", True),
        (2, 5, 3, "c5", True),
        (2, 4, 3, "c5", False),
        (1, 5, 3, "c7", False),
    ],
)
def test_parameter_check_table(k, c, n, variant, expect):
    assert parameter_check(k, c, n, variant) is expect


def test_parameter_check_rejects_garbage():
    with pytest.raises(ValueError):
        parameter_check(2, 7, 4, "nope")
    with pytest.raises(ValueError):
        parameter_check(3, 11, 7, "tardif")
    with pytest.raises(ValueError):
        parameter_check(0, 7, 4, "c7")


def test_params_for_pins_base():
    p = params_for("c5_refined")
    assert (p.k, p.c, p.n, p.d) == (2, 5, 3, 3)
    assert p.base == 6
    with pytest.raises(ValueError):
        params_for("c9")
    with pytest.raises(ValueError):
        CounterexampleParams("c7", k=2, c=7, n=4, d=2, reading="odd").validate()


def test_validate_requires_exact_types():
    # 2.0 == 2, so only a type check keeps a float out of the build
    for field, value, message in (
        ("k", 2.0, "k must be an integer, got 2.0"),
        ("d", 3.0, "d must be an integer, got 3.0"),
        ("n", True, "n must be an integer, got True"),
        ("variant", ["c5_refined"], "variant must be a string, got ['c5_refined']"),
        ("reading", None, "reading must be a string, got None"),
    ):
        bad = replace(params_for("c5_refined"), **{field: value})
        with pytest.raises(ValueError, match=re.escape(message)):
            bad.validate()
    report = verify_counterexample(replace(params_for("c5_refined"), k=2.0))
    assert report.status == "FAILED"
    assert report.item("parameters").detail == {"error": "k must be an integer, got 2.0"}


def test_shifted_wraps():
    assert [shifted(1, m, 3) for m in range(4)] == [1, 2, 3, 1]
    assert shifted(3, 2, 3) == 2


# -- exponential adjacency ----------------------------------------------------


def test_exp_adjacent_on_a_path():
    g = complete_graph(2)
    a, b, c_ = fv("a", [1, 2]), fv("b", [2, 1]), fv("c", [1, 1])
    # a-b collide: a[0]=1 == b[1]=1
    assert not exp_adjacent(g, a, b)
    assert exp_adjacent(g, a, a)  # a proper coloring is a loop
    assert not exp_adjacent(g, c_, c_)  # a constant is not
    assert exp_adjacent(g, c_, fv("d", [2, 2]))


def test_exp_adjacent_matches_oracle():
    g = cycle_graph(5)
    rng = np.random.default_rng(5)
    vertices = [fv(str(i), rng.integers(1, 4, size=5)) for i in range(12)]
    for f in vertices:
        for w in vertices:
            assert exp_adjacent(g, f, w) == collision_free(g, 3, table(f), table(w))


def test_const_vs_const_adjacency():
    g = cycle_graph(5)
    c1, c2 = fv("c1", [1] * 5), fv("c2", [2] * 5)
    assert exp_adjacent(g, c1, c2)
    assert not exp_adjacent(g, c1, fv("c1b", [1] * 5))


def group(code, vertices, members):
    """The group of the tables ``members`` on the types ``code`` (0..K-1,
    each taken by some vertex): each lookup is the table read at the first
    vertex of each type."""
    first = np.unique(code, return_index=True)[1]
    return code, np.stack([table(vertices[a])[first] for a in members]), members


def whole(vertices):
    """One group of all tables over the identity types of their host."""
    return [group(np.arange(vertices[0].code.size), vertices, list(range(len(vertices))))]


def asked(groups, m):
    """(m, m) flags of the pairs of tables that share a group."""
    share = np.zeros((m, m), dtype=bool)
    for _, _, members in groups:
        share[np.ix_(members, members)] = True
    return share


def questions(g, vertices, groups):
    """``_table_questions`` on the type pairs that the explicit edge pass
    (``edge_type_pairs``) reads off the edges of g in each group."""
    realized = edge_type_pairs(g, [(code, lut.shape[1]) for code, lut, _ in groups])
    return counterexample._table_questions(realized, vertices, groups)


@st.composite
def tables_on_a_loopy_graph(draw):
    """A graph on 1-12 vertices, loops allowed and possibly edgeless, up to
    20 tables over [c] that repeat host columns and include constants, and
    the groups they are asked in.  Either the identity types with one group
    of all tables, or coarse random types (arbitrary integers, a few kinds)
    coded by ``np.unique`` and random subsets of tables as groups, each
    table in at least one.  Each table is its lookup read at the types."""
    n = draw(st.integers(1, 12))
    c = draw(st.integers(1, 6))
    slots = [(u, v) for u in range(n) for v in range(u, n)]
    edges = draw(st.lists(st.sampled_from(slots), unique=True, max_size=len(slots)))
    rows = draw(
        st.lists(st.lists(st.integers(1, c), min_size=n, max_size=n), min_size=1, max_size=18)
    )
    for x in draw(st.lists(st.integers(1, c), max_size=2)):
        rows.append([x] * n)
    lut = np.array(rows, dtype=np.int8)
    m = len(lut)
    if draw(st.booleans()):
        for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))):
            lut[:, dst] = lut[:, src]
        code, subsets = np.arange(n), [list(range(m))]
    else:
        kind = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        names = st.integers(-(2**31), 2**31 - 1)
        types = np.array(draw(st.lists(names, min_size=4, max_size=4, unique=True)))[kind]
        _, code = np.unique(types, return_inverse=True)
        lut = lut[:, : code.max() + 1]
        home = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
        subsets = [[a for a in range(m) if home[a] == i] for i in range(3)]
        subsets += draw(st.lists(st.lists(st.integers(0, m - 1), unique=True), max_size=2))
    groups = [(code, lut[members], members) for members in subsets if members]
    vertices = [fv(str(a), row[code]) for a, row in enumerate(lut)]
    return new_graph(n, edges), c, vertices, groups


@given(tables_on_a_loopy_graph())
def test_collision_matrix_matches_oracle(case):
    # pairs that share a group against the oracle; the rest are not asked
    # and read True
    g, c, vertices, groups = case
    hit = questions(g, vertices, groups)[0]
    assert hit.shape == (len(vertices), len(vertices)) and hit.dtype == bool
    share = asked(groups, len(vertices))
    for a, f in enumerate(vertices):
        for b, w in enumerate(vertices):
            want = not collision_free(g, c, table(f), table(w)) if share[a, b] else True
            assert hit[a, b] == want


@given(tables_on_a_loopy_graph())
def test_image_matches_unique(case):
    # the identity behind stated images: on a host with no isolated vertex
    # (a loop counts), const(x) collides with a table exactly where the
    # table takes x, so the constants' collision rows are the tables'
    # images; and the distinct count against each table's bytes
    g, c, vertices, groups = case
    touched = {x for edge in g.edges() for x in edge}
    host = new_graph(g.n, [*g.edges(), *((u, u) for u in range(g.n) if u not in touched)])
    constants = [fv(f"const({x})", [x] * g.n) for x in range(1, c + 1)]
    tables = constants + vertices
    hit = questions(host, tables, whole(tables))[0]
    for b, w in enumerate(tables):
        image = set(np.unique(table(w)).tolist())
        assert {x for x in range(1, c + 1) if hit[x - 1, b]} == image
    assert questions(g, vertices, groups)[1] == len({table(v).tobytes() for v in vertices})


def test_an_isolated_vertex_breaks_the_identity():
    # vertex 1 has no edge, so const(2) meets no 2 of w across an edge, though
    # w takes 2: the build refuses such a host before any table exists
    # (test_cli.py::test_an_isolated_vertex_is_refused_on_every_zero_position_path)
    tables = [fv("const(1)", [1, 1]), fv("const(2)", [2, 2]), fv("w", [1, 2])]
    hit = questions(new_graph(2, [(0, 0)]), tables, whole(tables))[0]
    assert hit[0, 2] and not hit[1, 2]


@given(tables_on_a_loopy_graph())
def test_distinct_tables_in_one_fingerprint_bucket(case):
    # zero weights give every table the fingerprint 0, so the count rests on
    # the whole-table compares alone
    g, _, vertices, groups = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counterexample, "_fingerprint_weights", lambda n: np.zeros(n))
        distinct = questions(g, vertices, groups)[1]
    assert distinct == len({table(v).tobytes() for v in vertices})


def test_equal_tables_in_two_groups_are_counted_once():
    # a and b are equal but fingerprinted in groups of different types, and
    # each vertex is held on its own group's types, so their lookups differ
    g = new_graph(3, [(0, 1), (1, 2)])
    lookup = np.array([2, 1], dtype=np.int8)
    a = FunctionVertex("a", ("test",), frozenset({1, 2}), np.array([1, 0, 1]), lookup)
    vertices = [a, fv("b", [1, 2, 1]), fv("c", [3, 3, 3])]
    groups = [group(np.array([1, 0, 1]), vertices, [0, 2]), group(np.arange(3), vertices, [1, 2])]
    assert questions(g, vertices, groups)[1] == 2


@pytest.mark.parametrize("m", [70, 131])
def test_table_questions_on_more_than_64_tables(m):
    # more than 64 tables, m not a multiple of 8, and colors 0, 2 and 4
    # taken by no table
    g = new_graph(7, [*cycle_graph(7).edges(), (3, 3)])
    rng = np.random.default_rng(m)
    t = rng.choice(np.array([1, 3, 5], dtype=np.int8), size=(m, 7))
    t[:3] = [[1] * 7, [3] * 7, [5] * 7]
    t[-1] = t[-2]
    vertices = [fv(str(a), row) for a, row in enumerate(t)]
    hit, distinct = questions(g, vertices, whole(vertices))
    for a, f in enumerate(vertices):
        for b, w in enumerate(vertices):
            assert hit[a, b] == (not collision_free(g, 5, table(f), table(w)))
    assert distinct == len({row.tobytes() for row in t})


@pytest.mark.parametrize("m", [9, 12])
@pytest.mark.parametrize("top", [1, 3, 15, 16, 127])
def test_table_questions_at_every_bit_width_top(top, m):
    # values up to 1, 3, 15, 16 and 127, each the top of a bit width.  Host
    # vertex 20 + j repeats the column of vertex j except in one table,
    # where they hold 0 and the top bit alone, so the two differ only there.
    rng = np.random.default_rng(top * 100 + m)
    n = 40
    edges = [(u, v) for u in range(n) for v in range(u, n) if rng.random() < 0.02]
    g = new_graph(n, edges + [(7, 7)])
    t = rng.integers(0, top + 1, size=(m, n), dtype=np.int8)
    t[0, 0] = top
    high = 1 << (top.bit_length() - 1)
    for j in range(n - 20):
        a = (20 + j) % m
        t[:, 20 + j] = t[:, j]
        t[a, j], t[a, 20 + j] = 0, high
    t[-1] = t[-2]
    vertices = [fv(str(a), row) for a, row in enumerate(t)]
    hit, distinct = questions(g, vertices, whole(vertices))
    for a, f in enumerate(vertices):
        for b, w in enumerate(vertices):
            assert hit[a, b] == (not collision_free(g, top, table(f), table(w)))
    assert distinct == len({row.tobytes() for row in t}) == m - 1


def test_collision_matrix_on_an_edgeless_host():
    g = new_graph(4, [])
    vertices = [fv("a", [1, 1, 2, 2]), fv("b", [1, 1, 1, 1])]
    assert not questions(g, vertices, whole(vertices))[0].any()
    empty = new_graph(0, [])
    pair = [fv("a", []), fv("b", [])]
    assert not questions(empty, pair, whole(pair))[0].any()
    assert questions(empty, pair[:1], whole(pair[:1]))[0].shape == (1, 1)


# -- builds -------------------------------------------------------------------


def test_c5_build_counts(c5_report):
    build = c5_report.build
    assert build.omega.graph.n == 4686 and build.omega.graph.edge_count == 36015
    assert build.h.n == 30 and build.h.edge_count == 108
    distinct = c5_report.item("distinct_tables").detail
    assert len({table(v).tobytes() for v in build.vertices}) == distinct["count"] == 30


def test_c7_build_counts(c7_report):
    build = c7_report.build
    assert build.omega.graph.n == 16472
    assert build.h.n == 32 and build.h.edge_count == 168
    distinct = c7_report.item("distinct_tables").detail
    assert len({table(v).tobytes() for v in build.vertices}) == distinct["count"] == 32


def test_c5_wide_build_counts(c5_wide_report):
    build = c5_wide_report.build
    assert build.omega.graph.n == 54186
    assert build.h.n == 165 and build.h.edge_count == 648
    distinct = c5_wide_report.item("distinct_tables").detail
    assert len({table(v).tobytes() for v in build.vertices}) == distinct["count"] == 165


# Certificates pin the host by these digests, so they must survive any change
# of graph representation.
HOST_PINS = {
    "c5_refined": ("d3965243aff8c5692659b570f51e6c2f169d2ffddd660c7dead5b52ec84fc60b", 36015),
    "c7": ("aa35fa2974489b519a6608b39a6fae5868694e6bd71e61a982e996dd132a1701", 437500),
    "c5_wide": ("957d172cca1db53129f5145f564d155fb10b7cbb1b8daee99597ee37cf19d905", 428415),
}


def test_host_hashes_and_edge_counts_pinned(c5_report, c7_report, c5_wide_build):
    builds = {"c5_refined": c5_report.build, "c7": c7_report.build, "c5_wide": c5_wide_build}
    for variant, (sha, edges) in HOST_PINS.items():
        g = builds[variant].omega.graph
        assert g.edge_count == edges, variant
        assert builds[variant].g_hash == sha, variant
        assert graph_sha256(g) == sha, variant


# Unordered pairs of distinct H vertices in one family (the constants and f
# lie in each) that the exponential graph joins, under the q reading; no
# table is a proper coloring of its host.  Pairs across families are not
# asked and read as collisions.
ADJACENT_PAIRS = {"c5_refined": 126, "c7": 192, "c5_wide": 1981}


def questions_of(monkeypatch, params, name="_table_questions"):
    """The arguments that a build of ``params`` passes its one call of
    ``name``: (realized, vertices, groups) for ``_table_questions``, and
    (omega, codings) for ``omega_type_pairs``."""
    inner = getattr(counterexample, name)
    seen = []

    def capture(*args):
        seen.append(args)
        return inner(*args)

    with monkeypatch.context() as mp:
        mp.setattr(counterexample, name, capture)
        build_counterexample(params)
    (args,) = seen
    return args


def family_pairs(build):
    """(m, m) flags of the pairs of tables the build asks about: both in one
    family q, or one of them a constant or f."""
    family = np.array([v.role[1] if v.role[0] in ("h", "g") else 0 for v in build.vertices])
    return (family[:, None] == family) | (family[:, None] == 0) | (family == 0)


def test_collision_matrix_counts_pinned(c5_report, c7_report, c5_wide_build):
    builds = {"c5_refined": c5_report.build, "c7": c7_report.build, "c5_wide": c5_wide_build}
    for variant, pairs in ADJACENT_PAIRS.items():
        hit = builds[variant].collisions
        assert np.array_equal(hit, hit.T), variant
        assert np.diag(hit).all(), variant
        assert int((~hit[np.triu_indices(len(hit), 1)]).sum()) == pairs, variant


def test_collision_matrix_matches_scan_on_refined(c5_report):
    # every asked pair against the one-pair scan; the others read True
    build = c5_report.build
    hit, share = build.collisions, family_pairs(build)
    assert hit[~share].all() and (~share).any()
    for a, f in enumerate(build.vertices):
        for b, w in enumerate(build.vertices[a:], start=a):
            if share[a, b]:
                assert hit[a, b] == (not exp_adjacent(build.omega.graph, f, w))


@pytest.mark.parametrize("variant,classes", [("c5_refined", 6), ("c7", 8), ("c5_wide", 6)])
def test_build_sweeps_each_class_once(monkeypatch, variant, classes):
    seeds = []

    def counting(sweep):
        def counted(graph, bits, d):
            seeds.append(bits)
            return sweep(graph, bits, d)

        return counted

    # n_shells sweeps through families.shell_bits, and the build's sweep is
    # widecolor.decide_zero_position, so this sees every sweep of either kind
    for name in ("shell_bits", "omega_shell_bits"):
        counted = counting(getattr(families, name))
        for mod in (families, widecolor):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted)
    build_counterexample(params_for(variant))
    # one sweep for the whole build, each vertex seeded with its class's bit
    (seed,) = seeds
    assert np.unique(seed).tolist() == [1 << j for j in range(classes)]


@pytest.mark.parametrize("variant,n_families", [("c5_refined", 3), ("c7", 4), ("c5_wide", 3)])
def test_build_reads_each_family_shells_once(count_calls, variant, n_families):
    # one family per value q of f; its shells and selectors serve both its
    # vertex types and its tables
    calls = count_calls(counterexample, "_family_shells")
    build_counterexample(params_for(variant))
    assert calls == {"_family_shells": n_families}


def assert_type_code_is_the_oracle(lead, flags):
    """``_type_code`` against the ``np.unique`` coding: the same codes, in
    the narrowest unsigned dtype, and each type's decoded lead value and
    flags are those at every vertex of that type."""
    code, lead_of, flags_of = counterexample._type_code(lead, flags)
    want, first = unique_type_code(lead, flags)
    assert np.array_equal(code, want)
    assert code.dtype == np.min_scalar_type(first.size - 1)
    assert np.array_equal(lead_of, lead[first]) and np.array_equal(lead_of[code], lead)
    assert len(flags_of) == len(flags)
    for got, flag in zip(flags_of, flags):
        assert got.dtype == bool and np.array_equal(got[code], flag)


@st.composite
def typed_vertices(draw):
    """(lead, flags): up to 300 vertices, each with a lead value (uint8 or
    int8, up to 2**6 - 1) and 1 to 16 flags, drawn from a few kinds so that
    types repeat."""
    m, nflags = draw(st.integers(1, 300)), draw(st.integers(1, 16))
    kinds = draw(st.integers(1, 8))
    dtype = draw(st.sampled_from([np.uint8, np.int8]))
    lead = np.array(draw(st.lists(st.integers(0, 63), min_size=kinds, max_size=kinds)), dtype)
    words = np.array(
        draw(st.lists(st.integers(0, (1 << nflags) - 1), min_size=kinds, max_size=kinds))
    )
    kind = np.array(draw(st.lists(st.integers(0, kinds - 1), min_size=m, max_size=m)))
    flags = [(words[kind] >> (nflags - 1 - j) & 1).astype(bool) for j in range(nflags)]
    return lead[kind], flags


@given(typed_vertices())
def test_type_codes_are_the_unique_inverse(vertices):
    assert_type_code_is_the_oracle(*vertices)


@pytest.mark.parametrize("nflags", [1, 5, 16])
def test_a_family_with_one_type(nflags):
    lead = np.full(40, 3, dtype=np.int8)
    flags = [np.full(40, j % 2 == 0) for j in range(nflags)]
    assert_type_code_is_the_oracle(lead, flags)
    code, lead_of, flags_of = counterexample._type_code(lead, flags)
    assert not code.any() and lead_of.tolist() == [3] and all(f.size == 1 for f in flags_of)


def test_every_word_present():
    # lead values 0..3 and three flags: all 32 words occur, shuffled and
    # repeated, and each word's code is the word itself
    words = np.random.default_rng(5).permutation(np.tile(np.arange(32), 3))
    lead = (words >> 3).astype(np.uint8)
    flags = [(words >> s & 1).astype(bool) for s in (2, 1, 0)]
    assert_type_code_is_the_oracle(lead, flags)
    assert np.array_equal(counterexample._type_code(lead, flags)[0], words)


def test_the_largest_word_that_fits():
    # a lead of 31 and eleven set flags spell 2**16 - 1, the largest uint16
    # word; 0 beside it makes two types
    lead = np.array([31, 0, 31], dtype=np.int8)
    flags = [np.array([True, False, True])] * 11
    assert_type_code_is_the_oracle(lead, flags)
    assert counterexample._type_code(lead, flags)[0].tolist() == [1, 0, 1]


@pytest.mark.parametrize("variant,types", [("c5_refined", 29), ("c7", 26), ("c5_wide", 71)])
def test_build_codes_types_by_counting(monkeypatch, variant, types):
    # no np.unique in a build; every family's types are the np.unique
    # coding of f and its shells and selectors, uint8, 29 / 26 / 71 of them
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **kw: calls.append(1) or unique(*a, **kw))
    coded = []
    type_code = counterexample._type_code
    monkeypatch.setattr(
        counterexample, "_type_code", lambda *a: coded.append(a) or type_code(*a)
    )
    build, _ = build_counterexample(params_for(variant))
    assert calls == []
    monkeypatch.setattr(np, "unique", unique)
    assert len(coded) == build.params.n
    codes = {id(v.code): v.code for v in build.vertices}
    assert len(codes) == build.params.n
    for (lead, flags), code in zip(coded, codes.values()):
        assert code.dtype == np.uint8 and int(code.max()) + 1 == types
        assert_type_code_is_the_oracle(lead, flags)
        assert np.array_equal(code, unique_type_code(lead, flags)[0])


def test_one_host_per_verify(count_calls):
    # every report item is read off one vertex enumeration, one sweep by the
    # coordinate rule and one grid pass for the type pairs; a verify pins
    # nothing, so it writes no host edge and hashes no host, and the search
    # on H reads plain neighbor lists, so no CSR arrays are built at all
    names = ("omega_vertices", "omega_tuples", "_omega_keys", "omega_type_pairs")
    calls = count_calls(families, *names, "omega_shell_bits", "shell_bits")
    derived = count_calls(graphs, "_dimacs_lines", "neighbor_arrays", "edge_slices")
    report = verify_counterexample(params_for("c5_refined"))
    assert report.status == "PASS"
    assert calls == {
        "omega_vertices": 1,
        "omega_tuples": 0,
        "_omega_keys": 0,
        "omega_type_pairs": 1,
        "omega_shell_bits": 1,
        "shell_bits": 0,
    }
    assert derived == {"_dimacs_lines": 0, "neighbor_arrays": 0, "edge_slices": 0}


@pytest.mark.parametrize("variant", ["c5_refined", "c7", "c5_wide"])
def test_host_edges_are_written_only_for_a_pin(count_calls, variant):
    # the build reads the type pairs off the coordinate rule: it writes no
    # host edge and makes no pass over them; a certificate writes the host's
    # edges once for its pins, and its check once for the rebuilt host
    writes = count_calls(families, "_omega_keys")
    passes = count_calls(graphs, "edge_slices")
    report = verify_counterexample(params_for(variant))
    assert report.status == "PASS"
    assert (writes, passes) == ({"_omega_keys": 0}, {"edge_slices": 0})
    cert = emit_certificate(report)
    assert writes == {"_omega_keys": 1}
    assert check_certificate(cert).ok
    assert (writes, passes) == ({"_omega_keys": 2}, {"edge_slices": 0})


@pytest.mark.parametrize("variant", ["c5_refined", "c7", "c5_wide"])
def test_type_pairs_match_the_edge_pass_on_the_presets(monkeypatch, variant):
    # each family's realized pairs, read off the block grids, against the
    # explicit pass over the host's written edges, and the edge count
    omega, codings = questions_of(monkeypatch, params_for(variant), "omega_type_pairs")
    got, edges = families.omega_type_pairs(omega, codings)
    assert edges == HOST_PINS[variant][1] == omega.graph.edge_count
    want = edge_type_pairs(omega.graph, codings)
    assert len(got) == len(want) == params_for(variant).n
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_a_miscounted_grid_fails_the_build(monkeypatch):
    # a pair table lacking (d+1, d+1) relates 6**4 grid pairs in each of
    # the 15 blocks of the c5_refined host, not 7**4: the build is refused
    pairs = families._coordinate_pairs
    monkeypatch.setattr(families, "_coordinate_pairs", lambda d: pairs(d)[:-1])
    report = verify_counterexample(params_for("c5_refined"))
    assert [(item.name, item.ok) for item in report.items] == [
        ("parameters", True),
        ("build", False),
    ]
    error = "tuple adjoint grid counted 19440 edges, formula says 36015"
    assert report.item("build").detail == {"error": error}


def test_build_builds_no_host_csr(count_calls):
    # the build sweeps the host by its coordinate rule and reads wideness
    # off the shells and the realized type pairs off the block grids
    calls = count_calls(graphs, "neighbor_arrays")
    build_counterexample(params_for("c5_refined"))
    assert calls == {"neighbor_arrays": 0}


def test_a_c7_report_keeps_no_host_csr():
    # the host's codes and the four uint8 family codes stay with the
    # report, 0.26 MiB in all; the host's pair keys (1.7 MB), which a
    # verify never writes, and its CSR arrays (3.4 MB more) do not (2.49
    # MiB when the build wrote the keys and kept intp family codes)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = verify_counterexample(params_for("c7"))
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert report.status == "PASS"
    assert kept < 2**20


def test_a_c7_report_keeps_no_host_keys_past_its_pin():
    # emitting the certificate writes the host's pair keys (1.75 MB) for
    # the pin and drops them with it: the report keeps its hash alone
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = verify_counterexample(params_for("c7"))
        cert = emit_certificate(report)
        del cert
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert report.status == "PASS"
    assert kept < 2**20


def test_a_c5_wide_report_keeps_no_host_length_tables():
    # an H vertex is its family's code and its lookup: the report keeps the
    # host's codes and three uint8 family codes, shared by every vertex,
    # 0.82 MiB in all (3.82 MiB when the build wrote the host's pair keys
    # and kept intp family codes), and no table of host length (165 of them
    # would be 8.9 MB more)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = verify_counterexample(params_for("c5_wide"))
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert report.status == "PASS"
    assert len({id(v.code) for v in report.build.vertices}) == 3
    assert kept < 2 * 2**20


def test_table_questions_peak_on_the_wide_build(monkeypatch, c5_wide_build):
    # the grid pass and the wide questions peak at about 2 MB together: the
    # grid pass holds an index table over the code space (1 MB) and chunks
    # of about 256 KB of type words, and every answer is read off the
    # groups' codes and lookups, which the build made, and the distinct
    # tables are counted on fingerprints of those lookups, so no table of
    # host length is made
    grid = questions_of(monkeypatch, c5_wide_build.params, "omega_type_pairs")
    _, vertices, groups = questions_of(monkeypatch, c5_wide_build.params)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        realized, _ = families.omega_type_pairs(*grid)
        counterexample._table_questions(realized, vertices, groups)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_a_host_is_hashed_only_for_a_pin(count_calls):
    # a verify writes no pin and hashes no host; a certificate pins the host
    # and gamma with one hash of it, however often g_hash is read, and its
    # check hashes the rebuilt host once
    calls = count_calls(graphs, "graph_sha256")
    report = verify_counterexample(params_for("c5_refined"))
    assert calls == {"graph_sha256": 0}
    cert = emit_certificate(report)
    assert report.build.g_hash == cert["g_hash"] == cert["gamma"]["graph_sha256"]
    assert calls == {"graph_sha256": 1}
    assert check_certificate(cert).ok
    assert calls == {"graph_sha256": 2}
    assert cert["gamma"]["graph_sha256"] == graph_sha256(report.build.omega.graph)


def moved_build(monkeypatch, variant, moves):
    """The build of ``variant`` on its zero-position gamma with each vertex
    v of ``moves`` moved into its class (a, b)."""
    zero_position = widecolor._zero_position

    def corrupted(omega, n, k):
        wc = zero_position(omega, n, k)
        pairs = wc.pairs.copy()
        for v, pair in moves.items():
            pairs[v] = pair
        return replace(wc, pairs=pairs)

    monkeypatch.setattr(widecolor, "_zero_position", corrupted)
    return build_counterexample(params_for(variant))


def narrow_reference(build):
    """The classes whose depth-d shell the edge reference finds dependent."""
    g, gamma, p = build.omega.graph, build.gamma, build.params
    return [
        (a, b)
        for a in range(1, p.n + 1)
        for b in range(1, p.k + 1)
        if not is_independent(g, n_shells(g, gamma.class_set(a, b), p.d)[p.d])
    ]


def test_a_narrow_class_is_named(monkeypatch, c5_report):
    # a certificate of the sound build, emitted before the corruption
    cert = emit_certificate(c5_report)
    # vertex 0 (class (1, 1)) moved into class (3, 2)
    build, checks = moved_build(monkeypatch, "c5_refined", {0: (3, 2)})
    # the per-class reference: only the enlarged class loses wideness
    assert narrow_reference(build) == [(3, 2)]
    message = "zero-position coloring is not 3-wide on classes [(3, 2)]"
    (wide,) = [item for item in checks if item.name == "wide_coloring"]
    assert (wide.ok, wide.detail["narrow"], wide.detail["error"]) == (False, [[3, 2]], message)
    # the moved vertex also breaks a g family; the rebuild names both checks
    unreal = "H edge is not an edge of the exponential graph: g(q=3,d=3,i=4) ~ g(q=3,d=3,i=5)"
    assert [item.detail["error"] for item in checks if not item.ok] == [message, unreal]
    assert check_certificate(cert).failures == [
        f"canonical rebuild failed: {message}",
        f"canonical rebuild failed: {unreal}",
    ]


@pytest.mark.parametrize("variant", ["c5_refined", "c7", "c5_wide"])
def test_the_named_narrow_classes_are_the_per_class_reference(monkeypatch, variant):
    # the first and the last vertex swap classes: (1, 1) and (n, k) each
    # take a vertex of the other, and both lose wideness
    p = params_for(variant)
    build, checks = moved_build(monkeypatch, variant, {0: (p.n, p.k), -1: (1, 1)})
    narrow = narrow_reference(build)
    assert narrow == [(1, 1), (p.n, p.k)]
    (wide,) = [item for item in checks if item.name == "wide_coloring"]
    assert (wide.ok, wide.detail["narrow"]) == (False, [list(pair) for pair in narrow])
    assert wide.detail["error"] == f"zero-position coloring is not {p.d}-wide on classes {narrow}"


def test_a_class_narrow_only_at_depth_d_is_named(monkeypatch):
    # vertex 1 moved into class (3, 2): the class's depth-2 shell stays
    # independent and its depth-3 shell does not, so only the shells at
    # depths d and d + 1 tell
    build, checks = moved_build(monkeypatch, "c5_refined", {1: (3, 2)})
    g = build.omega.graph
    shells = n_shells(g, build.gamma.class_set(3, 2), 3)
    assert is_independent(g, shells[2]) and not is_independent(g, shells[3])
    assert narrow_reference(build) == [(3, 2)]
    (wide,) = [item for item in checks if item.name == "wide_coloring"]
    assert (wide.ok, wide.detail["narrow"]) == (False, [[3, 2]])


def test_build_shells_of_q_are_its_class_shells(c5_report):
    build = c5_report.build
    d = build.params.d
    for q in range(1, build.params.n + 1):
        shells = n_shells(build.omega.graph, build.gamma.pairs[:, 0] == q, d)
        for v in build.vertices:
            if v.role[:2] == ("h", q):
                _, _, depth, i, j = v.role
                assert np.array_equal(table(v), np.where(shells[depth], j, i)), v.label
            elif v.role[:2] == ("g", q):
                assert (table(v)[~shells[d]] == v.role[3]).all(), v.label


def test_wide_coloring_item_counts_checked_classes(c5_report, c7_report, c5_wide_report):
    for report, classes in ((c5_report, 6), (c7_report, 8), (c5_wide_report, 6)):
        assert report.item("wide_coloring").detail == {
            "condition": 2,
            "d": report.params.d,
            "classes": classes,
            "edges_checked": report.build.omega.graph.edge_count,
        }


def test_h_edges_are_exponential_edges(c5_report):
    build = c5_report.build
    for a, b in build.h.edges():
        assert exp_adjacent(build.omega.graph, build.vertices[a], build.vertices[b])


def test_level_one_h_meet_f(c5_report):
    build = c5_report.build
    adj = rows(build.h)
    f_idx = 5
    for idx, v in enumerate(build.vertices):
        if v.role[0] == "h" and v.role[2] == 1:
            assert adj[f_idx] >> idx & 1


def test_g_families_are_cliques(c5_report):
    build = c5_report.build
    adj = rows(build.h)
    for q in (1, 2, 3):
        members = [i for i, v in enumerate(build.vertices) if v.role[:2] == ("g", q)]
        assert len(members) == 3
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                assert adj[a] >> b & 1


def test_const_edges_match_images():
    # on every preset and under both readings, each table takes exactly the
    # image its recipe states, and const(i) ~ w in H exactly where w misses i
    for variant in counterexample.VARIANTS:
        for reading in ("q", "literal"):
            build, _ = build_counterexample(params_for(variant, reading))
            adj, c = rows(build.h), build.params.c
            for idx, w in enumerate(build.vertices):
                assert w.image == set(np.unique(table(w)).tolist()), (variant, reading, w.label)
                for i in set(range(1, c + 1)) - {idx + 1}:
                    assert bool(adj[i - 1] >> idx & 1) == (i not in w.image), (variant, w.label)


@pytest.mark.parametrize("reading", ["q", "literal"])
@pytest.mark.parametrize("variant", list(counterexample.VARIANTS))
def test_h_needs_no_host(count_calls, variant, reading):
    # H is stated by its recipe alone: the roles and images of _recipe give
    # the build's H key for key, in vertex order, with no host enumerated
    params = params_for(variant, reading)
    calls = count_calls(counterexample, "omega_vertices")
    recipe = counterexample._recipe(params)
    h = new_graph(len(recipe), counterexample._skeleton_edges(params, recipe))
    assert calls == {"omega_vertices": 0}
    build, _ = build_counterexample(params)
    assert [label for label, _, _ in recipe] == build.labels
    assert h.n == build.h.n and np.array_equal(h.keys, build.h.keys)


@pytest.mark.parametrize(
    "args,order,size,nodes",
    [
        (("c7", 2, 9, 5, 2), 40, 280, 3310),
        (("c7", 3, 11, 4, 2), 44, 374, 2921),
        (("c5_wide", 2, 7, 4, 6), 472, 2828, 5073),
        (("c7", 2, 13, 7, 2), 56, 588, 162_074),
        (("c7", 3, 14, 5, 2), 55, 610, 43_769),
    ],
    ids=["c9", "c11", "c7_wide", "c13", "c14"],
)
def test_h_at_scale_from_its_recipe(args, order, size, nodes):
    # the scale points' H, from unvalidated parameters and no host: its
    # order, size and the nodes that refute a c-coloring
    params = CounterexampleParams(*args)
    recipe = counterexample._recipe(params)
    h = new_graph(len(recipe), counterexample._skeleton_edges(params, recipe))
    found = find_coloring(h, params.c)
    assert (h.n, h.edge_count, found.status, found.nodes) == (order, size, NONE, nodes)


def test_a_misstated_image_fails_const_adjacency(monkeypatch):
    # h(q=1,d=1,i=1,j=4) stating {1}: const_adjacency names the table, and
    # the skeleton, which reads the statement, joins it to const(4) across
    # a collision and adds one H edge
    label = "h(q=1,d=1,i=1,j=4)"
    special = counterexample.build_special_family

    def misstated(*args):
        return [
            (name, role, frozenset({1}) if name == label else image)
            for name, role, image in special(*args)
        ]

    monkeypatch.setattr(counterexample, "build_special_family", misstated)
    _, checks = build_counterexample(params_for("c5_refined"))
    failed = {item.name: item.detail for item in checks if not item.ok}
    assert sorted(failed) == ["const_adjacency", "counts", "h_edges_real"]
    assert failed["const_adjacency"]["witness"] == [4, label]
    error = f"const(4) adjacency to {label} disagrees with its image"
    assert failed["const_adjacency"]["error"] == error
    assert failed["h_edges_real"]["edge"] == ["const(4)", label]


@pytest.mark.parametrize("value", [6, 0])
def test_a_table_value_outside_the_colors_fails_const_adjacency(monkeypatch, value):
    # h(q=1,d=1,i=1,j=4) taking a value outside 1..5 on one type of its
    # inside shell: no constant's collision row sees it, yet (v, f) -> f(v)
    # is then no 5-coloring of the product
    label = "h(q=1,d=1,i=1,j=4)"
    lookup = counterexample._lookup

    def corrupted(role, f, shells, selectors):
        table = lookup(role, f, shells, selectors)
        if role == ("h", 1, 1, 1, 4):
            table[np.flatnonzero(shells[1])[0]] = value
        return table

    monkeypatch.setattr(counterexample, "_lookup", corrupted)
    report = verify_counterexample(params_for("c5_refined"))
    assert report.status == "FAILED"
    assert [item.name for item in report.items if not item.ok] == ["const_adjacency"]
    detail = report.item("const_adjacency").detail
    assert detail["witness"] == [value, label]
    assert detail["error"] == f"{label} takes {value}, outside 1..5"


@pytest.mark.parametrize(
    "report,order,size",
    [("c5_report", 30, 108), ("c7_report", 32, 168)],
    ids=["c5_refined", "c7"],
)
def test_h_is_critical(request, report, order, size):
    # H keeps exactly the edges the argument walks: without any one vertex
    # (all its edges gone) or any one edge, H is c-colorable
    build = request.getfixturevalue(report).build
    h, c = build.h, build.params.c
    edges = sorted(h.edges())
    assert (h.n, len(edges)) == (order, size)
    smaller = [[e for e in edges if v not in e] for v in range(h.n)]
    smaller += [edges[:i] + edges[i + 1 :] for i in range(len(edges))]
    for kept in smaller:
        g = new_graph(h.n, kept)
        found = find_coloring(g, c)
        assert found.status == SOME and verify_coloring(g, found.assignment, c)


def test_chain_holds_at_every_depth(c5_wide_build):
    for depths in (range(1, 2), range(2, 3), range(3, 4), range(4, 5)):
        pairs, bad = chain_check(c5_wide_build, depths=depths)
        assert bad is None and pairs > 0, bad


def test_build_rejects_wrong_vertex_budget(monkeypatch):
    # a vertex pin the build does not meet fails the counts item, which names
    # both numbers; every other check still runs and holds
    pins = dict(counterexample.EXPECTED_COUNTS["c5_refined"], h_vertices=31)
    monkeypatch.setitem(counterexample.EXPECTED_COUNTS, "c5_refined", pins)
    _, checks = build_counterexample(params_for("c5_refined"))
    assert [(item.name, item.detail["error"]) for item in checks if not item.ok] == [
        ("counts", "h_vertices is 30, expected 31")
    ]
    report = verify_counterexample(params_for("c5_refined"))
    assert [item.name for item in report.items if item.ok is not True] == ["counts"]
    assert report.item("counts").detail["expected"] == pins


def test_product_coloring_and_corruption(c5_report, monkeypatch):
    # the product coloring is proper exactly when every H edge is an edge of
    # the exponential graph, so a colliding H edge fails h_edges_real
    build = c5_report.build
    g, f = build.omega.graph, build.vertices[build.params.c]
    (h1,) = [v for v in build.vertices if v.label == "h(q=1,d=1,i=1,j=4)"]
    assert first_collision(g, table(f), table(h1)) is None
    # a host edge u-v with f(u) = 1 puts v in h1's inside shell (value 4);
    # h1's lookup set to 1 at v's type in family 1 makes h1 collide with f
    # across u-v and keeps its image {1, 4}, so the skeleton keeps the edge
    # f ~ h1
    eu, ev = edge_ends(g)
    at = int(np.flatnonzero(table(f)[eu] == 1)[0])
    v = int(ev[at])
    assert table(h1)[v] == 4
    _, vertices, groups = questions_of(monkeypatch, build.params)
    index = [w.label for w in vertices].index(h1.label)
    ((code, lut, members),) = [grp for grp in groups if index in grp[2]]
    assert lut[members.index(index), code[v]] == 4
    same = code == code[v]
    corrupt = np.where(same, 1, table(h1))
    assert set(np.unique(corrupt).tolist()) == {1, 4}
    read = counterexample._lookup

    def corrupted(role, *args):
        lookup = read(role, *args)
        if role == h1.role:
            lookup[code[v]] = 1
        return lookup

    monkeypatch.setattr(counterexample, "_lookup", corrupted)
    message = "H edge is not an edge of the exponential graph: f ~ h(q=1,d=1,i=1,j=4)"
    _, checks = build_counterexample(build.params)
    assert [(item.name, item.detail["error"]) for item in checks if not item.ok] == [
        ("h_edges_real", message)
    ]
    report = verify_counterexample(build.params)
    assert report.status == "FAILED"
    assert [it.name for it in report.items if it.ok is False] == ["h_edges_real"]
    real = report.item("h_edges_real").detail
    assert (real["edge"], real["error"]) == (["f", "h(q=1,d=1,i=1,j=4)"], message)
    assert np.array_equal(table(report.build.vertices[index]), corrupt)
    # the reference scan finds a G edge at v's type on which the two tables
    # collide
    at = first_collision(g, table(f), corrupt)
    x, y = int(eu[at]), int(ev[at])
    assert same[x] or same[y]
    assert table(f)[x] == corrupt[y] or table(f)[y] == corrupt[x]


def test_verify_pass_end_to_end(c5_report):
    assert c5_report.status == "PASS"
    names = [it.name for it in c5_report.items]
    assert names == [
        "parameters",
        "counts",
        "wide_coloring",
        "distinct_tables",
        "chi_h",
        "h_edges_real",
        "const_adjacency",
        "chi_g",
    ]
    assert all(it.ok for it in c5_report.items)


def test_verify_c7_pass(c7_report):
    assert c7_report.status == "PASS"
    assert c7_report.item("chi_h").ok is True
    assert c7_report.item("h_edges_real").detail == {
        "count": 168,
        "ordered_checks": 2 * 168 * 437500,
    }


def test_verify_c5_wide_pass(c5_wide_report):
    # chi(H) > 5 on the 165-vertex H is decided at the default budget
    assert c5_wide_report.status == "PASS"
    assert all(item.ok is True for item in c5_wide_report.items)


def test_verify_rejects_bad_parameters():
    bad = CounterexampleParams("c5_refined", k=2, c=5, n=2, d=3)
    report = verify_counterexample(bad)
    assert report.status == "FAILED"
    assert report.item("parameters").ok is False
    assert len(report.items) == 1


@pytest.mark.parametrize(
    "variant,edge,chi_h",
    [
        ("c5_refined", ["h(q=2,d=2,i=4,j=5)", "g(q=2,d=3,i=5)"], {"colors": 5, "nodes": 66}),
        ("c7", ["h(q=2,d=1,i=2,j=5)", "g(q=2,d=2,i=5)"], {"colors": 7, "nodes": 473}),
        ("c5_wide", ["h(q=2,d=5,i=3,j=4)", "g(q=2,d=6,i=4)"], {"colors": 5, "nodes": 366}),
    ],
    ids=["c5_refined", "c7", "c5_wide"],
)
def test_verify_literal_reading_fails_fast(variant, edge, chi_h):
    # on every variant the literal selector reading breaks one H edge and
    # nothing else; the run goes on, so chi(H) is still refused
    report = verify_counterexample(params_for(variant, reading="literal"))
    assert report.status == "FAILED"
    assert [item.name for item in report.items if item.ok is not True] == ["h_edges_real"]
    assert report.item("h_edges_real").detail["edge"] == edge
    assert report.item("chi_h").detail == chi_h


def test_chi_h_budget_exhaustion_is_incomplete(c5_report):
    report = verify_counterexample(
        params_for("c5_refined"),
        budget=SearchBudget(node_limit=10),
    )
    assert report.status == "INCOMPLETE"
    assert report.item("chi_h").ok is None


def test_chi_g_exhaustion_cites_the_identity(c5_report, c7_report, c5_wide_report):
    # no search decides chi(G) > c at host scale, so none is run: the item
    # cites the published identity, with the loop check as its evidence
    for report in (c5_report, c7_report, c5_wide_report):
        item = report.item("chi_g")
        assert item.ok is True
        assert item.detail == {
            "colors": report.params.c,
            "status": "external_theorem",
            "attribution": CHI_G_ATTRIBUTION,
            "tables_checked": report.build.h.n,
        }


def test_report_round_trips_to_dict(c5_report):
    doc = c5_report.to_dict()
    assert doc["status"] == "PASS"
    assert doc["params"]["variant"] == "c5_refined"
    assert doc["budgets"] == {"search": {"nodes": DEFAULT_BUDGET.node_limit}}
    assert len(doc["items"]) == len(c5_report.items)
