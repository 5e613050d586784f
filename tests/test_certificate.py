import copy
import hashlib
import json
import re
from functools import reduce
from operator import getitem

import pytest

from hedcex import certificate as certmod
from hedcex import counterexample as cex
from hedcex import families
from hedcex.certificate import (
    CERTIFICATE_VERSION,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    emit_certificate,
)
from hedcex.counterexample import params_for, verify_counterexample
from hedcex.solver import DEFAULT_BUDGET, SearchBudget
from oracles import first_collision, table


@pytest.fixture(scope="module")
def c5_cert(c5_report):
    return emit_certificate(c5_report)


def test_emit_requires_pass():
    report = verify_counterexample(
        params_for("c5_refined"),
        budget=SearchBudget(node_limit=10),
    )
    assert report.status == "INCOMPLETE"
    with pytest.raises(ValueError):
        emit_certificate(report)


# SHA-256 of each certificate file as ``verify counterexample --cert`` writes it
CERT_SHA256 = {
    "c5_refined": "183f4e51107848e7e2bbded65c4adc0e3d6eef4f22540b3a9cea3529cf885c5e",
    "c7": "1f42f43e43f0d8c4bd569eeff6dd89966fd8e3d57fc43eacf75ac24a4ea4b79b",
    "c5_wide": "03bc77588c04d318b074bd8d13cda65717ece9ca2c79a9faec4cf3c99fb8a8dd",
}


@pytest.mark.parametrize(
    "variant, fixture",
    [("c5_refined", "c5_report"), ("c7", "c7_report"), ("c5_wide", "c5_wide_report")],
)
def test_certificate_bytes_are_pinned(variant, fixture, request):
    text = certificate_to_json(emit_certificate(request.getfixturevalue(fixture))) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == CERT_SHA256[variant]


def test_round_trip_verifies(c5_cert):
    text = certificate_to_json(c5_cert)
    back = certificate_from_json(text)
    assert back == c5_cert
    assert check_certificate(back)


def test_json_is_compact_and_indented_certificates_still_check(c5_cert):
    text = certificate_to_json(c5_cert)
    assert "\n" not in text
    # certificates used to be written with indent=1; whitespace is not part
    # of the format, so those still parse to the same document and check
    indented = json.dumps(c5_cert, sort_keys=True, indent=1)
    assert certificate_from_json(indented) == certificate_from_json(text)
    assert check_certificate(certificate_from_json(indented))


def test_json_shape(c5_cert):
    assert c5_cert["version"] == CERTIFICATE_VERSION
    assert c5_cert["params"]["variant"] == "c5_refined"
    assert len(c5_cert["h"]) == 30
    assert len(c5_cert["h_edges"]) == 108
    assert c5_cert["verdicts"]["chi_h"]["status"] == "none"
    assert c5_cert["verdicts"]["product"]["ok"] is True
    assert c5_cert["g_counts"] == {"vertices": 4686, "edges": 36015}
    assert c5_cert["verdicts"]["chi_g"] == {
        "colors": 5,
        "status": "external_theorem",
        "attribution": cex.CHI_G_ATTRIBUTION,
    }
    assert "budgets" not in c5_cert


def test_certificate_in_the_previous_layout_still_checks(c5_cert):
    # version 2 certificates used to record a chi(G) node count and budget,
    # with wall-clock limits; the checker reads none of those fields
    old = copy.deepcopy(c5_cert)
    old["verdicts"]["chi_g"]["nodes"] = 0
    old["verdicts"]["chi_g"]["attribution"] += " at this budget"
    old["budgets"] = {
        "search": {"nodes": DEFAULT_BUDGET.node_limit, "secs": 600.0},
        "chi_g": {"nodes": 0, "secs": 600.0},
    }
    assert check_certificate(old)


def test_edge_order_and_orientation_are_free(c5_cert):
    # the H edge list is a set: reversed, with every edge written (v, u), it
    # is the same skeleton
    turned = copy.deepcopy(c5_cert)
    turned["h_edges"] = [[v, u] for u, v in reversed(c5_cert["h_edges"])]
    assert turned["h_edges"] != c5_cert["h_edges"]
    assert check_certificate(turned)


def test_keys_the_rebuild_does_not_emit_are_not_read(c5_cert):
    # only the rebuild's fields are compared, at every depth
    extra = copy.deepcopy(c5_cert)
    extra["gamma"]["note"] = "x"
    extra["h"][3]["note"] = -1
    extra["verdicts"]["product"]["note"] = None
    assert check_certificate(extra)


def test_an_extra_key_in_g_counts_is_not_read(c5_cert):
    # g_counts follows the same rule as every other field: its two counts
    # are compared and a key beside them is not read
    extra = copy.deepcopy(c5_cert)
    extra["g_counts"]["loops"] = 0
    assert check_certificate(extra)
    extra["g_counts"]["edges"] += 1
    assert check_certificate(extra).failures == [
        "g_counts.edges: 36016 is not the rebuild's 36015"
    ]


def test_machine_checked_chi_g_is_refused(c5_cert):
    # no run searches chi(G), so a certificate claiming a search is not taken
    # on faith
    bad = copy.deepcopy(c5_cert)
    bad["verdicts"]["chi_g"]["status"] = "machine_checked"
    bad["verdicts"]["chi_g"]["nodes"] = 123
    chk = check_certificate(bad)
    assert chk.failures == [
        'verdicts.chi_g.status: "machine_checked" is not the rebuild\'s "external_theorem"'
    ]


@pytest.mark.parametrize(
    "attribution,failure",
    [
        (
            "machine-checked",
            'verdicts.chi_g.attribution: "machine-checked" is not the rebuild\'s '
            + json.dumps(cex.CHI_G_ATTRIBUTION),
        ),
        (None, "verdicts.chi_g.attribution is missing"),
    ],
    ids=["machine-checked", "None"],
)
def test_chi_g_attribution_is_compared(c5_cert, attribution, failure):
    # chi(G) > c rests on the published identity alone; a certificate that
    # rewrites or drops its attribution is refused by name
    bad = copy.deepcopy(c5_cert)
    if attribution is None:
        del bad["verdicts"]["chi_g"]["attribution"]
    else:
        bad["verdicts"]["chi_g"]["attribution"] = attribution
    assert check_certificate(bad).failures == [failure]


@pytest.mark.parametrize(
    "edit,failure",
    [
        (lambda p: p.pop("reading"), "missing ['reading'], extra []"),
        (lambda p: p.update(seed=1), "missing [], extra ['seed']"),
        (lambda p: (p.pop("k"), p.update(K=2)), "missing ['k'], extra ['K']"),
    ],
    ids=["no-reading", "extra-seed", "renamed-k"],
)
def test_params_keys_are_exactly_the_fields(c5_cert, edit, failure):
    # a params object without "reading" used to be read with the default "q"
    bad = copy.deepcopy(c5_cert)
    edit(bad["params"])
    assert check_certificate(bad).failures == [f"bad parameters: params keys {failure}"]


@pytest.mark.parametrize("params", [-1, "x", ["c5_refined"], None])
def test_params_that_are_not_an_object_are_refused_by_shape(c5_cert, params):
    # named by shape, so a string or a list is not read as a set of keys
    bad = copy.deepcopy(c5_cert)
    bad["params"] = params
    assert check_certificate(bad).failures == ["bad parameters: params is not a JSON object"]


@pytest.mark.parametrize(
    "verdict,key,value,failure",
    [
        ("chi_h", "colors", 2, "verdicts.chi_h.colors: 2 is not the rebuild's 5"),
        ("chi_h", "nodes", -7, "verdicts.chi_h.nodes: -7 is not a positive integer"),
        ("chi_h", "nodes", "lots", 'verdicts.chi_h.nodes: "lots" is not a positive integer'),
        ("chi_g", "colors", 99, "verdicts.chi_g.colors: 99 is not the rebuild's 5"),
        (
            "product",
            "ordered_checks",
            "x",
            'verdicts.product.ordered_checks: "x" is not the rebuild\'s 7779240',
        ),
    ],
    ids=["chi-h-colors", "negative-nodes", "string-nodes", "chi-g-colors", "string-checks"],
)
def test_verdict_fields_are_compared(c5_cert, verdict, key, value, failure):
    # a verdict about another color count, a node count that is no search,
    # or a product count other than the rebuild's is refused by name
    bad = copy.deepcopy(c5_cert)
    bad["verdicts"][verdict][key] = value
    assert check_certificate(bad).failures == [failure]


def _paths(doc, path=()):
    """Every path into a JSON document but its root, each before its children."""
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield path + (key,)
            yield from _paths(value, path + (key,))


#: The prefix of the refusal lines of the gates that read these fields.
GATES = {"version": "unsupported certificate version ", "params": "bad parameters: "}


def _top_key(line: str) -> str:
    """The top-level key of the path that a failure line names."""
    return re.match(r"[^.\[: ]*", line).group()


def test_every_leaf_mutation_is_refused(c5_cert):
    # every field is read: deleting any field, or setting it to -1 or to "x",
    # is refused by name, each line naming a path under the mutated field (or
    # coming from the gate that reads it).  H's tables and edges are covered
    # by their first three entries
    deleted = object()
    mutations = 0
    for path in _paths(c5_cert):
        if path[0] in ("h", "h_edges") and len(path) > 1 and path[1] >= 3:
            continue
        *where, key = path
        for value in (deleted, -1, "x"):
            bad = copy.deepcopy(c5_cert)
            target = reduce(getitem, where, bad)
            if value is deleted:
                del target[key]
            elif json.dumps(target[key]) == json.dumps(value):
                continue
            else:
                target[key] = value
            failures = check_certificate(bad).failures
            assert failures, (path, value)
            if path[0] in GATES:
                assert all(line.startswith(GATES[path[0]]) for line in failures), failures
            else:
                assert {_top_key(line) for line in failures} == {path[0]}, failures
            mutations += 1
    assert mutations == 150


def test_each_field_that_differs_is_one_line_in_key_order(c5_cert):
    # a table digest and a host count: two lines, g_counts before h as
    # _canonical orders them; a second fault inside h adds no line
    bad = copy.deepcopy(c5_cert)
    digest = bad["h"][6]["sha256"] = _flip(c5_cert["h"][6]["sha256"])
    bad["g_counts"]["vertices"] = 4687
    failures = [
        "g_counts.vertices: 4687 is not the rebuild's 4686",
        f'h[6].sha256: "{digest}" is not the rebuild\'s "{c5_cert["h"][6]["sha256"]}"',
    ]
    assert check_certificate(bad).failures == failures
    bad["h"][9]["label"] = "x"
    assert check_certificate(bad).failures == failures


def test_not_an_object():
    with pytest.raises(ValueError):
        certificate_from_json("[1, 2]")
    with pytest.raises(ValueError, match="^certificate JSON is nested too deeply$"):
        certificate_from_json("[" * 200000)


def test_missing_field_fails(c5_cert):
    bad = copy.deepcopy(c5_cert)
    del bad["gamma"]
    assert check_certificate(bad).failures == ["gamma is missing"]


def test_wrong_version_fails(c5_cert):
    # version 1 carried the tables themselves; it is refused like any other
    for version in ("0", "1"):
        bad = copy.deepcopy(c5_cert)
        bad["version"] = version
        chk = check_certificate(bad)
        assert chk.failures == [
            f"unsupported certificate version '{version}'; this checker reads version '2'"
        ]


def test_flipped_edge_fails(c5_cert):
    bad = copy.deepcopy(c5_cert)
    # replace one stored edge with a pair that is not in the skeleton
    present = {tuple(e) for e in bad["h_edges"]}
    for a in range(30):
        for b in range(a + 1, 30):
            if (a, b) not in present:
                bad["h_edges"][40] = [a, b]
                break
        else:
            continue
        break
    # (0, 5) is the first pair that is no H edge; sorted, it comes fifth
    assert bad["h_edges"][40] == [0, 5]
    assert check_certificate(bad).failures == ["h_edges[4][1]: 5 is not the rebuild's 8"]


def test_dropped_edge_fails(c5_cert):
    bad = copy.deepcopy(c5_cert)
    bad["h_edges"] = bad["h_edges"][:-1]
    assert check_certificate(bad).failures == ["h_edges has 107 entries, the rebuild's has 108"]


@pytest.mark.parametrize(
    "verdicts,failure",
    [
        ({}, "verdicts.chi_h is missing"),
        ({"chi_h": {}, "chi_g": {}}, "verdicts.chi_h.status is missing"),
        (["chi_h"], 'verdicts: ["chi_h"] is not a JSON object'),
    ],
    ids=["verdicts0", "verdicts1", "verdicts2"],
)
def test_missing_verdicts_fail(c5_cert, verdicts, failure):
    bad = copy.deepcopy(c5_cert)
    bad["verdicts"] = verdicts
    assert check_certificate(bad).failures == [failure]


@pytest.mark.parametrize(
    "edge, failure",
    [
        ([3, 30], "h_edges[40][1]: 11 is not the rebuild's 9"),
        ([-1, 3], "h_edges[0][0]: -1 is not the rebuild's 0"),
        ([7, 7], "h_edges[40][1]: 11 is not the rebuild's 9"),
    ],
    ids=["past-the-end", "negative", "loop"],
)
def test_edge_outside_h_is_spurious(c5_cert, edge, failure):
    # an endpoint outside H, or a loop, is an edge the rebuild does not have.
    # The list is compared sorted: [2, 9] is the 41st edge, so with it gone
    # the 41st is [2, 11], and a negative endpoint sorts first
    bad = copy.deepcopy(c5_cert)
    assert bad["h_edges"][40:42] == [[2, 9], [2, 11]]
    bad["h_edges"][40] = edge
    assert check_certificate(bad).failures == [failure]


def _flip(digest: str) -> str:
    return ("0" if digest[0] != "0" else "1") + digest[1:]


def test_corrupt_gamma_fails(c5_cert):
    gamma = c5_cert["gamma"]
    for key, message in (
        ("pairs_sha256", "gamma.pairs_sha256: {} is not the rebuild's {}"),
        ("graph_sha256", "gamma.graph_sha256: {} is not the rebuild's {}"),
        ("d", "gamma.d: {} is not the rebuild's {}"),
        (None, "gamma.pairs_sha256 is missing"),
    ):
        bad = copy.deepcopy(c5_cert)
        if key is None:
            del bad["gamma"]["pairs_sha256"]
        else:
            bad["gamma"][key] = gamma[key] + 1 if key == "d" else _flip(gamma[key])
            message = message.format(*map(json.dumps, (bad["gamma"][key], gamma[key])))
        assert check_certificate(bad).failures == [message]


def test_corrupt_table_fails(c5_cert):
    bad = copy.deepcopy(c5_cert)
    digest = bad["h"][6]["sha256"] = _flip(bad["h"][6]["sha256"])
    assert check_certificate(bad).failures == [
        f'h[6].sha256: "{digest}" is not the rebuild\'s "{c5_cert["h"][6]["sha256"]}"'
    ]


def test_wrong_host_hash_fails(c5_cert):
    bad = copy.deepcopy(c5_cert)
    bad["g_hash"] = "f" * 64
    chk = check_certificate(bad)
    assert not chk
    assert any("hash" in f for f in chk.failures)


def test_malformed_h_entry_fails(c5_cert):
    bad = copy.deepcopy(c5_cert)
    del bad["h"][0]["sha256"]
    assert check_certificate(bad).failures == ["h[0].sha256 is missing"]
    bad["h"] = "tables"
    assert not check_certificate(bad)


@pytest.mark.parametrize(
    "h,failure",
    [
        (0, "h: 0 is not a JSON array"),
        ("tables", 'h: "tables" is not a JSON array'),
        ({"label": "f"}, 'h: {"label": "f"} is not a JSON array'),
        ([1, 2], "h has 2 entries, the rebuild's has 30"),
        (["const(1)"], "h has 1 entries, the rebuild's has 30"),
        ([{}, None], "h has 2 entries, the rebuild's has 30"),
        (["const(1)"] * 30, 'h[0]: "const(1)" is not a JSON object'),
        ([{}, None] * 15, "h[0].label is missing"),
    ],
    ids=["int", "string", "object", "ints", "strings", "null-entry", "30-strings", "30-entries"],
)
def test_h_that_is_not_a_list_of_objects_is_refused_by_shape(c5_cert, h, failure):
    bad = copy.deepcopy(c5_cert)
    bad["h"] = h
    assert check_certificate(bad).failures == [failure]


def test_duplicate_tables_fail(c5_cert):
    bad = copy.deepcopy(c5_cert)
    bad["h"][8]["sha256"] = bad["h"][7]["sha256"]
    assert check_certificate(bad).failures == [
        f'h[8].sha256: "{c5_cert["h"][7]["sha256"]}" is not the rebuild\'s '
        f'"{c5_cert["h"][8]["sha256"]}"'
    ]


def test_relabelled_vertices_fail(c5_cert):
    bad = copy.deepcopy(c5_cert)
    bad["h"][5], bad["h"][6] = bad["h"][6], bad["h"][5]
    assert check_certificate(bad).failures == [
        f'h[5].label: "{c5_cert["h"][6]["label"]}" is not the rebuild\'s '
        f'"{c5_cert["h"][5]["label"]}"'
    ]


def test_bad_parameters_fail(c5_cert):
    bad = copy.deepcopy(c5_cert)
    bad["params"]["n"] = 2
    chk = check_certificate(bad)
    assert not chk
    assert any("parameters" in f for f in chk.failures)


def test_unreal_edge_in_the_rebuild_is_named(monkeypatch, c5_cert):
    # the rebuild refuses an H edge whose tables collide; f takes the value 1,
    # so const(1) ~ f is not an edge of the exponential graph.  It replaces
    # const(1) ~ const(2), so the H edge count still meets its pin
    skeleton = cex._skeleton_edges
    f_idx = c5_cert["params"]["c"]
    monkeypatch.setattr(
        cex, "_skeleton_edges", lambda *args: [(0, f_idx)] + skeleton(*args)[1:]
    )
    chk = check_certificate(c5_cert)
    assert not chk
    assert chk.failures == [
        "canonical rebuild failed: H edge is not an edge of the exponential graph: const(1) ~ f"
    ]


def test_rebuild_that_raises_is_one_failure_line(monkeypatch, c5_cert):
    # an exception from inside the rebuild is refused as one line, as the
    # failed checks of a rebuild that returns are
    def broken(params):
        raise RuntimeError("no skeleton")

    monkeypatch.setattr(certmod, "build_counterexample", broken)
    assert check_certificate(c5_cert).failures == ["canonical rebuild failed: no skeleton"]


def test_stored_edges_and_loops_agree_with_the_scan(c5_report, c5_cert):
    # the build reads loops and H edges off its collision matrix, and the
    # certificate's tables are the build's by digest; re-derive each loop and
    # stored edge with the independent one-pair scan
    build = c5_report.build
    g, vertices = build.omega.graph, build.vertices
    assert [e["label"] for e in c5_cert["h"]] == build.labels
    assert c5_cert["h_edges"]
    for a, b in c5_cert["h_edges"]:
        assert first_collision(g, table(vertices[a]), table(vertices[b])) is None
    for v in vertices:
        assert first_collision(g, table(v), table(v)) is not None


def test_certificates_of_every_variant_are_small_and_check(c5_cert, c7_report, c5_wide_report):
    for cert, limit in (
        (c5_cert, 8 * 1024),
        (emit_certificate(c7_report), 8 * 1024),
        (emit_certificate(c5_wide_report), 32 * 1024),
    ):
        text = certificate_to_json(cert)
        assert len(text.encode()) < limit
        assert check_certificate(certificate_from_json(text))


def test_check_sweeps_and_scans_only_inside_the_rebuild(count_calls, c5_cert):
    # count calls through every binding of the sweeps and the table questions
    # in the package, so a second one anywhere on the check path shows up
    sweeps = count_calls(families, "shell_bits", "omega_shell_bits")
    calls = count_calls(cex, "_table_questions")
    assert check_certificate(c5_cert)
    # one sweep by the coordinate rule for all six classes of the 3 x 2 wide
    # coloring, none over CSR arrays, one set of table questions
    assert sweeps == {"shell_bits": 0, "omega_shell_bits": 1}
    assert calls == {"_table_questions": 1}
