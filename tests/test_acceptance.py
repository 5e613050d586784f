"""The acceptance gate: ten checks, one printed pass/fail line each.

Each test prints its verdict line (visible under -s; the -v test status
carries the same information) and then asserts, so a red line and a red test
always coincide.
"""

import random

import numpy as np

from conftest import random_graph
from hedcex import counterexample as cex
from hedcex import solver
from hedcex.counterexample import params_for, verify_counterexample
from hedcex.families import n_shells, omega_tuples, omega_vertex_count
from hedcex.solver import NONE, find_coloring, verify_coloring
from hedcex.widecolor import WideColoring, check_wide, zero_position_coloring
from oracles import (
    adjunction_holds,
    bits,
    complete_graph,
    omega_sets,
    rows,
    table,
    tuple_vertices,
    walk_matrix,
)


def announce(num: int, name: str, ok: bool, extra: str = "") -> None:
    state = "pass" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"criterion {num:2d} {name}: {state}{suffix}")
    assert ok, f"criterion {num} {name}{suffix}"


def test_criterion_01_pinned_counts(omega63, omega82):
    ok = (
        omega63.graph.n == 4686
        and omega63.graph.edge_count == 36015
        and omega82.graph.n == 16472
        and omega_vertex_count(6, 6) == 54186
    )
    announce(1, "host graph counts", ok, "4686/36015, 16472, 54186")


def test_criterion_02_vertex_count_formula():
    bad = [
        (n, d)
        for n in range(2, 7)
        for d in range(1, 5)
        if len(tuple_vertices(n, d)) != omega_vertex_count(n, d)
    ]
    announce(2, "closed-form order matches enumeration", not bad, "n in 2..6, d in 1..4")


def test_criterion_03_h_shapes(c5_report, c7_report):
    b5, b7 = c5_report.build, c7_report.build
    distinct = len({table(v).tobytes() for v in b5.vertices}) == 30
    ok = (
        b5.h.n == 30
        and b5.h.edge_count == 108
        and distinct
        and c5_report.item("distinct_tables").detail == {"tables": 30, "count": 30}
        and b7.h.n == 32
        and b7.h.edge_count == 168
    )
    announce(3, "H shapes", ok, "30/108 + 32/168, distinct tables")


def test_criterion_04_h_not_colorable(c5_report, c7_report):
    i5, i7 = c5_report.item("chi_h"), c7_report.item("chi_h")
    ok = i5.ok is True and i7.ok is True
    announce(
        4,
        "H admits no c-coloring",
        ok,
        f"refusal trees {i5.detail['nodes']} and {i7.detail['nodes']} nodes",
    )


def test_criterion_05_product_coloring(c5_report, c7_report):
    # (v, f) -> f(v) is proper on G x H exactly when every H edge is real
    i5, i7 = c5_report.item("h_edges_real"), c7_report.item("h_edges_real")
    ok = (
        i5.ok is True
        and i5.detail["ordered_checks"] == 2 * 108 * 36015
        and i7.ok is True
        and i7.detail["ordered_checks"] == 2 * 168 * 437500
    )
    announce(5, "product coloring proper", ok, "7779240 and 147000000 ordered checks")


def test_criterion_06_wide_colorings(omega63, omega82):
    wc6 = zero_position_coloring(omega63, 6, 1)
    wc8 = zero_position_coloring(omega82, 8, 1)
    ok = (
        wc6.d == 3
        and wc8.d == 2
        and check_wide(omega63.graph, wc6, condition=2)
        and check_wide(omega82.graph, wc8, condition=2)
    )
    announce(6, "zero-position colorings wide", ok, "6 classes at d=3, 8 at d=2")


def _chi_is_base(omega) -> bool:
    # the zero positions color with m colors; m - 1 colors are refused
    m = omega.n
    upper = verify_coloring(omega.graph, (omega.zero_positions + 1).tolist(), m)
    return upper and find_coloring(omega.graph, m - 1).status == NONE


def test_criterion_07_desk_scale_chromatic():
    ok = _chi_is_base(omega_tuples(4, 1)) and _chi_is_base(omega_tuples(3, 2))
    announce(7, "small adjoints have full chromatic number", ok, "chi=4 on 28, chi=3 on 15")


def test_criterion_08_structural_lemmas(c5_report, c7_report, c5_wide_report):
    # f ~ each level-one h and the pairwise edges of each g family are H
    # edges, so h_edges_real decides them; chain reads the consecutive h
    # levels, which H does not keep
    pairs = c5_wide_report.item("chain").detail["pairs"]
    ok = (
        all(r.item("h_edges_real").ok is True for r in (c5_report, c7_report, c5_wide_report))
        and c5_wide_report.item("chain").ok is True
        and pairs >= 200
    )
    announce(8, "lemma-level edge facts", ok, f"chain pairs checked: {pairs}")


def _suite_shell_agreement() -> tuple[int, int]:
    rng = random.Random(901)
    checked = failures = 0
    while checked < 110:
        g = random_graph(rng, rng.randint(1, 10), 0.4)
        d = rng.randint(1, 4)
        power = walk_matrix(g, d)
        for v in range(g.n):
            if not np.array_equal(n_shells(g, np.arange(g.n) == v, d)[d], power[v]):
                failures += 1
        checked += 1
    return checked, failures


def _suite_four_way() -> tuple[int, int]:
    rng = random.Random(902)
    checked = failures = 0
    while checked < 110:
        g = random_graph(rng, rng.randint(2, 11), 0.4)
        if not all(rows(g)):
            continue
        n, k = rng.choice([(2, 1), (3, 1), (2, 2)])
        wc = WideColoring(
            n=n,
            k=k,
            d=rng.randint(0, 3),
            pairs=tuple((rng.randint(1, n), rng.randint(1, k)) for _ in range(g.n)),
        )
        answers = {check_wide(g, wc, condition) for condition in (1, 2, 3, 4)}
        if len(answers) != 1:
            failures += 1
        checked += 1
    return checked, failures


def _suite_adjunction() -> tuple[int, int]:
    rng = random.Random(903)
    targets = [complete_graph(2), complete_graph(3), complete_graph(4)]
    checked = failures = 0
    while checked < 110:
        g = random_graph(rng, rng.randint(1, 7), 0.5)
        h = rng.choice(targets)
        d = rng.choice([1, 3, 5])
        if not adjunction_holds(g, h, d):
            failures += 1
        checked += 1
    return checked, failures


def _chain_of(x, d):
    return tuple(
        sum(1 << p for p, xp in enumerate(x) if xp <= i and (xp - i) % 2 == 0)
        for i in range(d + 1)
    )


def _suite_set_vs_tuple() -> tuple[int, int]:
    # one instance per vertex: its chain lands in the set form and carries
    # the same neighborhood across; every buildable (m, d) pair enumerated
    checked = failures = 0
    for m in range(2, 6):
        for d in range(1, 4):
            tup = omega_tuples(m, d)
            st = omega_sets(complete_graph(m), d)
            index = {c: i for i, c in enumerate(st.tuples)}
            perm = [index.get(_chain_of(x, d)) for x in tuple_vertices(m, d)]
            bijective = None not in perm and sorted(perm) == list(range(st.graph.n))
            tup_adj, st_adj = rows(tup.graph), rows(st.graph)
            for v in range(tup.graph.n):
                good = bijective and {perm[u] for u in bits(tup_adj[v])} == set(
                    bits(st_adj[perm[v]])
                )
                if not good:
                    failures += 1
                checked += 1
    return checked, failures


def test_criterion_09_property_suites():
    results = {
        "power-vs-shell": _suite_shell_agreement(),
        "four-way": _suite_four_way(),
        "adjunction": _suite_adjunction(),
        "set-vs-tuple": _suite_set_vs_tuple(),
    }
    ok = all(c >= 100 and f == 0 for c, f in results.values())
    extra = ", ".join(f"{name} {c}/{f}" for name, (c, f) in results.items())
    announce(9, "property suites (instances/failures)", ok, extra)


def test_criterion_10_host_excess_attribution(c5_report, count_calls):
    # chi(G) > c is attributed to the published identity, never searched:
    # the one search a verify makes is chi(H)'s, on H.  Its evidence is that
    # none of the 30 tables is a proper coloring of G (a loop)
    item = c5_report.item("chi_g")
    attributed = (
        c5_report.status == "PASS"
        and item.ok is True
        and item.detail
        == {
            "colors": 5,
            "status": "external_theorem",
            "attribution": cex.CHI_G_ATTRIBUTION,
            "tables_checked": 30,
        }
        and "not machine-checked" in item.detail["attribution"]
    )
    calls = count_calls(solver, "find_coloring")
    report = verify_counterexample(params_for("c5_refined"))
    one_search = calls == {"find_coloring": 1} and report.item("chi_h").detail == {
        "colors": 5,
        "nodes": 66,
    }
    announce(10, "host excess attributed, chi(H) the one search", attributed and one_search)
