import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from hedcex.families import complete_graph, cycle_graph, omega_tuples
from hedcex.graphs import graph_sha256, new_graph
from hedcex.widecolor import (
    WideColoring,
    adjunction_holds,
    check_wide,
    default_pairing,
    pair_to_color,
    zero_position_coloring,
)


def identity_coloring(g, d):
    return WideColoring(n=g.n, k=1, d=d, pairs=tuple((v + 1, 1) for v in range(g.n)))


def test_pairing_round_trip():
    for k in (1, 2, 3):
        for a in range(1, 13):
            assert pair_to_color(default_pairing(a, k), k) == a


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
    assert wc.pairs == ((1, 1), (2, 1))


def test_zero_position_shape_mismatch():
    with pytest.raises(ValueError):
        zero_position_coloring(omega_tuples(4, 1), 3, 1)


def test_zero_position_split_classes():
    om = omega_tuples(4, 1)
    wc = zero_position_coloring(om, 2, 2)
    assert wc.n == 2 and wc.k == 2
    assert check_wide(om.graph, wc, condition=3)
    # merged alpha classes are unions of the fine classes
    assert np.array_equal(wc.class_set(1), wc.class_set(1, 1) | wc.class_set(1, 2))


def test_class_sets_partition():
    om = omega_tuples(3, 2)
    wc = zero_position_coloring(om, 3, 1)
    cover = np.zeros(om.graph.n, dtype=np.int64)
    for a in range(1, wc.n + 1):
        for b in range(1, wc.k + 1):
            cover += wc.class_set(a, b)
    assert (cover == 1).all()


@given(st.integers(0, 2**30))
def test_four_conditions_agree(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(2, 12), 0.35)
    if any(g.adj[v] == 0 for v in range(g.n)):
        return
    n, k = rng.choice([(2, 1), (3, 1), (2, 2), (4, 1)])
    d = rng.randint(0, 3)
    pairs = tuple(
        (rng.randint(1, n), rng.randint(1, k)) for _ in range(g.n)
    )
    wc = WideColoring(n=n, k=k, d=d, pairs=pairs)
    answers = [check_wide(g, wc, condition) for condition in (1, 2, 3, 4)]
    assert len(set(answers)) == 1, answers


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
