import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from hedcex import families, graphs, widecolor
from hedcex.families import (
    n_shells,
    omega_shell_bits,
    omega_tuples,
    omega_vertex_count,
    omega_vertices,
    shell_bits,
)
from hedcex.graphs import graph_sha256, new_graph
from hedcex.widecolor import (
    WideColoring,
    _depth,
    _failing_classes,
    _zero_position,
    check_wide,
    decide_zero_position,
    narrow_bits,
    zero_position_coloring,
)
from oracles import (
    adjunction_holds,
    class_set,
    complete_graph,
    cycle_graph,
    exact_shell,
    is_independent,
    rows,
    walk_matrix,
    wide_condition,
)
from test_families import OMEGA_PINS


def identity_coloring(g, d):
    return WideColoring(n=g.n, k=1, d=d, pairs=tuple((v + 1, 1) for v in range(g.n)))


def test_pairing_round_trip():
    # position p <-> pair (a, b) = (p // k + 1, p % k + 1) is a bijection of
    # the base [n*k] onto [n] x [k], for every shape of the same base
    om = omega_tuples(6, 1)
    zero = om.zero_positions
    for n, k in ((6, 1), (3, 2), (2, 3)):
        wc = zero_position_coloring(om, n, k)
        a, b = wc.pairs[:, 0].astype(int), wc.pairs[:, 1].astype(int)
        assert (1 <= a).all() and (a <= n).all() and (1 <= b).all() and (b <= k).all()
        assert np.array_equal((a - 1) * k + (b - 1), zero)
        assert len({(x, y) for x, y in wc.pairs.tolist()}) == n * k


def test_identity_on_c7_is_2_wide():
    c7 = cycle_graph(7)
    wc = identity_coloring(c7, 2)
    for condition in (1, 2, 3, 4):
        assert check_wide(c7, wc, condition)


def test_identity_on_c5_is_not_2_wide():
    c5 = cycle_graph(5)
    wc = identity_coloring(c5, 2)
    for condition in (1, 2, 3, 4):
        assert not check_wide(c5, wc, condition)


def test_parity_split_rejects_endpoint_class_on_path():
    # s1 - u - v - s2 with {s1, s2} one class: the depth-1 shell {u, v} is an
    # edge, so every condition must fail even though the reach region itself
    # is an abstractly 2-colorable path.
    p4 = new_graph(4, [(0, 1), (1, 2), (2, 3)])
    wc = WideColoring(n=2, k=1, d=1, pairs=((1, 1), (2, 1), (2, 1), (1, 1)))
    for condition in (1, 2, 3, 4):
        assert not check_wide(p4, wc, condition)


def test_validation_rejects_bad_shapes():
    c5 = cycle_graph(5)
    with pytest.raises(ValueError):
        check_wide(c5, WideColoring(n=1, k=1, d=1, pairs=((1, 1),) * 4))
    with pytest.raises(ValueError):
        check_wide(c5, WideColoring(n=1, k=1, d=1, pairs=((1, 2),) * 5))
    with pytest.raises(ValueError):
        check_wide(
            c5, WideColoring(n=1, k=1, d=1, pairs=((1, 1),) * 5), condition=7
        )
    isolated = new_graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        check_wide(isolated, WideColoring(n=1, k=1, d=1, pairs=((1, 1),) * 3))


@pytest.mark.parametrize("condition", [0, 5, "2", True])
def test_every_decider_refuses_a_condition_outside_the_four_before_it_sweeps(
    omega63, count_calls, condition
):
    # a condition is an int key of CONDITION_NAMES; anything else would be
    # read as condition 4 by _failing_classes, or as condition 1 if True
    wc = _zero_position(omega63, 3, 2)
    calls = count_calls(families, "omega_shell_bits", "n_shells")
    refused = pytest.raises(ValueError, match=r"^condition must be 1, 2, 3 or 4$")
    with refused:
        decide_zero_position(omega63, 3, 2, condition)
    with refused:
        check_wide(omega63.graph, wc, condition)
    with refused:
        _depth(omega63.d, condition)
    assert calls == {"omega_shell_bits": 0, "n_shells": 0}


def test_hash_pinning():
    c5, c7 = cycle_graph(5), cycle_graph(7)
    wc = WideColoring(
        n=5, k=1, d=1,
        pairs=tuple((v + 1, 1) for v in range(5)),
        graph_sha=graph_sha256(c7),
    )
    with pytest.raises(ValueError):
        check_wide(c5, wc)


def test_json_round_trip():
    wc = zero_position_coloring(omega_tuples(3, 1), 3, 1)
    back = WideColoring.from_json(wc.to_json())
    assert back == wc


def test_zero_position_two_vertex_host():
    wc = zero_position_coloring(omega_tuples(2, 1), 2, 1)
    assert wc.pairs.tolist() == [[1, 1], [2, 1]]
    assert wc.pairs.dtype == np.int8 and not wc.pairs.flags.writeable


def test_zero_position_coloring_hashes_its_host_once(count_calls):
    # checked unpinned, then pinned with one hash by omega.sha256, which
    # writes the edge keys for the pin alone and leaves none on the host
    lines = count_calls(graphs, "_dimacs_lines")
    om = omega_vertices(4, 1)
    wc = zero_position_coloring(om, 2, 2)
    assert lines == {"_dimacs_lines": 1} and "graph" not in vars(om)
    assert wc.graph_sha == om.sha256 == graph_sha256(omega_tuples(4, 1).graph)


def test_zero_position_coloring_refuses_a_class_the_sweep_fails(monkeypatch):
    # wideness of the zero-position coloring is a construction invariant:
    # a sweep that fails a class means the host and the checker disagree
    monkeypatch.setattr(widecolor, "_failing_classes", lambda shells, condition: 1)
    with pytest.raises(RuntimeError, match="^zero-position coloring failed the wideness check; "):
        zero_position_coloring(omega_vertices(4, 1), 2, 2)


def test_zero_position_shape_mismatch():
    with pytest.raises(ValueError):
        zero_position_coloring(omega_tuples(4, 1), 3, 1)


def test_zero_position_split_classes():
    om = omega_tuples(4, 1)
    wc = zero_position_coloring(om, 2, 2)
    assert wc.n == 2 and wc.k == 2
    assert check_wide(om.graph, wc, condition=3)
    # consecutive blocks of k = 2 zero positions share a first coordinate
    assert wc.pairs.tolist() == [
        [p // 2 + 1, p % 2 + 1] for p in om.zero_positions.tolist()
    ]
    # merged alpha classes are unions of the fine classes
    assert np.array_equal(wc.pairs[:, 0] == 1, class_set(wc, 1, 1) | class_set(wc, 1, 2))


@pytest.mark.parametrize("base,d,n,k", [(4, 1, 2, 2), (6, 2, 3, 2), (8, 2, 4, 2), (2, 1, -1, -2)])
def test_zero_position_pairs_are_the_signed_formula(base, d, n, k):
    # read off the uint8 zero positions through one int8 row per position:
    # (p // k + 1, p % k + 1) in signed arithmetic, so a negative k reaches
    # _validate
    om = omega_tuples(base, d)
    zero = om.zero_positions.astype(np.int64)
    wc = _zero_position(om, n, k)
    assert np.array_equal(wc.pairs, np.column_stack((zero // k + 1, zero % k + 1)))
    assert wc.pairs.dtype == np.int8 and wc.pairs.shape == (om.graph.n, 2)
    assert not wc.pairs.flags.writeable


def test_an_int8_pair_array_is_held_as_given():
    pairs = np.array([[1, 1], [2, 1]], dtype=np.int8)
    wc = WideColoring(n=2, k=1, d=1, pairs=pairs)
    assert wc.pairs is pairs and not pairs.flags.writeable
    # anything else is converted into a new int8 array, checked for fit
    listed = WideColoring(n=2, k=1, d=1, pairs=pairs.astype(np.int64))
    assert listed == wc and listed.pairs.dtype == np.int8
    with pytest.raises(ValueError, match="do not fit the int8 pair array"):
        WideColoring(n=2, k=1, d=1, pairs=[[1, 128], [2, 1]])


def test_class_sets_partition():
    om = omega_tuples(3, 2)
    wc = zero_position_coloring(om, 3, 1)
    cover = np.zeros(om.graph.n, dtype=np.int64)
    for a in range(1, wc.n + 1):
        for b in range(1, wc.k + 1):
            cover += class_set(wc, a, b)
    assert (cover == 1).all()


@given(st.integers(0, 2**30))
def test_four_conditions_agree(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(2, 12), 0.35)
    if not all(rows(g)):
        return
    n, k = rng.choice([(2, 1), (3, 1), (2, 2), (4, 1)])
    d = rng.randint(0, 3)
    pairs = tuple(
        (rng.randint(1, n), rng.randint(1, k)) for _ in range(g.n)
    )
    wc = WideColoring(n=n, k=k, d=d, pairs=pairs)
    answers = [check_wide(g, wc, condition) for condition in (1, 2, 3, 4)]
    assert len(set(answers)) == 1, answers


@st.composite
def loopy_graphs(draw):
    """A random graph with at least one loop and at least one isolated
    vertex (the last), seed bits for up to 8 vertex sets, and a depth."""
    n = draw(st.integers(1, 9))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    loop = draw(vertex)
    sets = draw(st.integers(1, 8))
    seeds = draw(st.lists(st.integers(0, (1 << sets) - 1), min_size=n + 1, max_size=n + 1))
    g = new_graph(n + 1, edges + [(loop, loop)])
    return g, np.array(seeds, dtype=np.uint8), sets, draw(st.integers(0, 4))


@given(loopy_graphs())
def test_a_shell_is_independent_iff_it_misses_the_next(case):
    # read off the sweeps, of one set on boolean shells and of all at once
    # on bits, against the edge reference on the walk-matrix shells
    g, seeds, sets, d = case
    swept = shell_bits(g, seeds, d + 1)
    for j in range(sets):
        members = (seeds >> j & 1).astype(bool)
        shells = n_shells(g, members, d + 1)
        for t in range(d + 1):
            independent = is_independent(g, exact_shell(g, members, t))
            assert (not narrow_bits(shells[t], shells[t + 1])) == independent, (j, t)
            assert (not narrow_bits(swept[t], swept[t + 1]) >> j & 1) == independent, (j, t)


@given(loopy_graphs())
def test_each_condition_on_a_class_is_its_statement(case):
    # the drawn sets and every single vertex, at every depth up to 4, read
    # off one class's boolean shells and off the bit shells of all of them
    # at once: a single vertex on an odd cycle of length 2d + 1 is where a
    # missing last shell of condition 4's parity unions shows
    g, seeds, sets, _ = case
    classes = [(seeds >> j & 1).astype(bool) for j in range(sets)] + list(np.eye(g.n, dtype=bool))
    every = sum(members.astype(np.uint32) << j for j, members in enumerate(classes))
    for d in range(5):
        for condition in (1, 2, 3, 4):
            failing = _failing_classes(shell_bits(g, every, _depth(d, condition)), condition)
            for j, members in enumerate(classes):
                want = wide_condition(g, members, d, condition)
                shells = n_shells(g, members, _depth(d, condition))
                assert (not _failing_classes(shells, condition)) == want, (j, d, condition)
                assert (not failing >> j & 1) == want, (j, d, condition)


@given(st.integers(2, 9), st.integers(0, 6), st.booleans())
def test_a_declared_d_past_twice_the_order_changes_no_verdict(cycle, tail, identity):
    # check_wide cuts d to 2|V| or 2|V| + 1.  On a cycle with a path hung on
    # it, a class's shells keep growing for up to about 2|V| steps; past 2|V|
    # each one equals the shell at the cut, and for all four conditions the
    # verdicts at d and d + 2 are the uncut ones, and agree
    n = cycle + tail
    ring = [(v, (v + 1) % cycle) for v in range(cycle)]
    g = new_graph(n, ring + [(v, v + 1) for v in range(cycle - 1, n - 1)])
    pairs = tuple((v + 1, 1) if identity else (v % 2 + 1, 1) for v in range(n))
    classes = [np.array([p == q for p in pairs]) for q in set(pairs)]
    for d in (2 * n, 2 * n + 1):
        cut = walk_matrix(g, d)
        for wide in (d, d + 2):
            walks = walk_matrix(g, wide)
            assert all(np.array_equal(walks[c].any(axis=0), cut[c].any(axis=0)) for c in classes)
        for condition in (1, 2, 3, 4):
            answers = []
            for wide in (d, d + 2):
                wc = WideColoring(n=len(set(pairs)), k=1, d=wide, pairs=pairs)
                uncut = not any(
                    _failing_classes(n_shells(g, c, _depth(wide, condition)), condition)
                    for c in classes
                )
                assert check_wide(g, wc, condition) == uncut, (condition, wide)
                answers.append(uncut)
            assert answers[0] == answers[1], (condition, d)


def test_zero_position_coloring_sweeps_by_the_rule(count_calls):
    # every class at once on the coordinate rule: no CSR arrays, no
    # per-class sweep
    calls = count_calls(graphs, "neighbor_arrays")
    sweeps = count_calls(families, "n_shells", "shell_bits", "omega_shell_bits")
    zero_position_coloring(omega_tuples(6, 3), 3, 2)
    assert calls == {"neighbor_arrays": 0}
    assert sweeps == {"n_shells": 0, "shell_bits": 0, "omega_shell_bits": 1}


def test_check_wide_lists_classes_without_np_unique(monkeypatch):
    # np.unique(..., axis=0) imports numpy.ma; the classes are read off one
    # sort of the packed pair codes instead, in (a, b) order
    def refuse(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", refuse)
    seen = []

    def counted(g, members, d):
        seen.append(np.flatnonzero(members).tolist())
        return n_shells(g, members, d)

    monkeypatch.setattr(widecolor, "n_shells", counted)
    c7 = cycle_graph(7)
    pairs = ((2, 1), (1, 3), (2, 1), (1, 1), (1, 3), (2, 1), (1, 1))
    assert check_wide(c7, WideColoring(n=2, k=3, d=0, pairs=pairs))
    assert seen == [[3, 6], [1, 4], [0, 2, 5]]


# the tuple adjoints of OMEGA_PINS up to the c5_wide host, by vertex count
RULE_HOSTS = sorted(p for p in OMEGA_PINS if OMEGA_PINS[p][0] <= omega_vertex_count(6, 6))


@pytest.mark.parametrize("moved", [False, True], ids=["zero", "moved"])
@pytest.mark.parametrize("base,d", RULE_HOSTS)
def test_the_rule_sweep_fails_the_classes_the_csr_sweep_and_the_oracle_fail(base, d, moved):
    # the zero-position gamma, and the same with vertex 0 moved into the
    # last class: for conditions 1 to 4, bit (a-1)*k + (b-1) of the failing
    # word read off the rule sweep of every class is set exactly when class
    # (a, b) fails on a CSR sweep of the written graph, and when the oracle's
    # statement of the condition fails (on hosts small enough for its dense
    # walk matrices); check_wide on the written graph fails exactly when
    # some class does
    om = omega_tuples(base, d)
    k = 2 if base % 2 == 0 else 1
    n = base // k
    wc = _zero_position(om, n, k)
    if moved:
        pairs = wc.pairs.copy()
        pairs[0] = (n, k)
        wc = replace(wc, pairs=pairs)
    g = om.graph
    classes = [class_set(wc, j // k + 1, j % k + 1) for j in range(base)]
    seeds = sum(members.astype(np.uint8) << j for j, members in enumerate(classes))
    verdicts = []
    for condition in (1, 2, 3, 4):
        depth = _depth(d, condition)
        failing = int(_failing_classes(omega_shell_bits(om, seeds, depth), condition))
        csr = int(_failing_classes(shell_bits(g, seeds, depth), condition))
        assert failing == csr, condition
        if g.n <= 325:
            oracle = [not wide_condition(g, members, d, condition) for members in classes]
            assert [bool(failing >> j & 1) for j in range(base)] == oracle, condition
        assert check_wide(g, wc, condition) == (not failing), condition
        verdicts.append(failing)
    # the zero-position gamma is wide, and the moved one is not
    assert any(verdicts) == moved, verdicts


def test_condition_one_decides_a_host_above_the_old_power_limit(omega63):
    # 4,686 vertices: the odd power is never built, each class is swept
    wc = zero_position_coloring(omega63, 6, 1)
    assert check_wide(omega63.graph, wc, condition=1)


def test_adjunction_argument_guards():
    c5, k3 = cycle_graph(5), complete_graph(3)
    with pytest.raises(ValueError):
        adjunction_holds(c5, k3, 2)
    with pytest.raises(ValueError):
        adjunction_holds(c5, new_graph(3, []), 3)


def test_adjunction_width_one_is_plain_hom():
    assert adjunction_holds(cycle_graph(5), complete_graph(3), 1)


@given(st.integers(0, 2**30))
@settings(max_examples=60)
def test_adjunction_random_instances(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 7), 0.5)
    h = rng.choice(
        [complete_graph(2), complete_graph(3), complete_graph(4), cycle_graph(5)]
    )
    d = rng.choice([1, 3, 5])
    assert adjunction_holds(g, h, d)


def test_adjunction_detects_the_known_gap():
    # odd cycles map into omega of a complete base one step before the
    # power graph does: both directions must still agree instance by instance
    assert adjunction_holds(cycle_graph(7), complete_graph(3), 3)
    assert adjunction_holds(cycle_graph(9), complete_graph(3), 3)
