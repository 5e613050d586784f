import copy
import hashlib
import json

import pytest

from hedcex import counterexample as cex
from hedcex.certificate import (
    CERTIFICATE_VERSION,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    emit_certificate,
)
from hedcex.counterexample import params_for, verify_counterexample
from hedcex.solver import DEFAULT_BUDGET, SearchBudget
from oracles import first_collision


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
    "c5_refined": "a12f4afa5f4b31f3bd7a7d94c88e4c24481ccf3f8d1847f20c43f3b40363160d",
    "c7": "0c80e1672e69a00741e474b6a6f66411c894f0822935adf1c25362592a52ac92",
    "c5_wide": "ff8f14fd10ecfe9cdea31fe005f467b0e2b466f581c24027971ffa175a511092",
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
    assert c5_cert["budgets"] == {"search": {"nodes": DEFAULT_BUDGET.node_limit}}


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


def test_machine_checked_chi_g_is_refused(c5_cert):
    # no run searches chi(G), so a certificate claiming a search is not taken
    # on faith
    bad = copy.deepcopy(c5_cert)
    bad["verdicts"]["chi_g"]["status"] = "machine_checked"
    bad["verdicts"]["chi_g"]["nodes"] = 123
    chk = check_certificate(bad)
    assert chk.failures == ["chi_g verdict has an unknown status"]


@pytest.mark.parametrize(
    "verdict,key,value,failure",
    [
        ("chi_h", "colors", 2, "chi_h verdict colors 2 is not c = 5"),
        ("chi_h", "nodes", -7, "chi_h verdict nodes -7 is not a positive integer"),
        ("chi_h", "nodes", "lots", "chi_h verdict nodes 'lots' is not a positive integer"),
        ("chi_g", "colors", 99, "chi_g verdict colors 99 is not c = 5"),
        (
            "product",
            "ordered_checks",
            "x",
            "product verdict ordered_checks 'x' is not 2|E(H)||E(G)| = 7779240",
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


def test_not_an_object():
    with pytest.raises(ValueError):
        certificate_from_json("[1, 2]")


def test_missing_field_fails(c5_cert):
    bad = copy.deepcopy(c5_cert)
    del bad["gamma"]
    chk = check_certificate(bad)
    assert not chk and "missing required fields" in chk.failures


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
    chk = check_certificate(bad)
    assert not chk
    assert any("skeleton" in f or "realized" in f or "image" in f for f in chk.failures)


def test_dropped_edge_fails(c5_cert):
    bad = copy.deepcopy(c5_cert)
    bad["h_edges"] = bad["h_edges"][:-1]
    chk = check_certificate(bad)
    assert not chk
    assert any("number of H edges" in f for f in chk.failures)


@pytest.mark.parametrize("verdicts", [{}, {"chi_h": {}, "chi_g": {}}, ["chi_h"]])
def test_missing_verdicts_fail(c5_cert, verdicts):
    bad = copy.deepcopy(c5_cert)
    bad["verdicts"] = verdicts
    assert check_certificate(bad).failures == ["missing verdicts"]


@pytest.mark.parametrize(
    "edge, spurious",
    [([3, 30], "(3, 30)"), ([-1, 3], "(-1, 3)"), ([7, 7], "(7, 7)")],
    ids=["past-the-end", "negative", "loop"],
)
def test_edge_outside_h_is_spurious(c5_cert, edge, spurious):
    # an endpoint outside H, or a loop, is an edge the rebuild does not have
    bad = copy.deepcopy(c5_cert)
    replaced = bad["h_edges"][40]
    bad["h_edges"][40] = edge
    assert check_certificate(bad).failures == [
        f"H edges are not the canonical skeleton (spurious [{spurious}], "
        f"missing [{tuple(replaced)}])"
    ]


def _flip(digest: str) -> str:
    return ("0" if digest[0] != "0" else "1") + digest[1:]


def test_corrupt_gamma_fails(c5_cert):
    for key, message in (
        ("pairs_sha256", "wide coloring differs from the canonical zero-position coloring"),
        ("graph_sha256", "wide coloring pinned to a different graph"),
        ("d", "wide coloring shape differs from the parameters"),
        (None, "bad wide coloring: fields missing"),
    ):
        bad = copy.deepcopy(c5_cert)
        gamma = bad["gamma"]
        if key is None:
            del gamma["pairs_sha256"]
        elif key == "d":
            gamma["d"] += 1
        else:
            gamma[key] = _flip(gamma[key])
        chk = check_certificate(bad)
        assert chk.failures == [message]


def test_corrupt_table_fails(c5_cert):
    bad = copy.deepcopy(c5_cert)
    bad["h"][6]["sha256"] = _flip(bad["h"][6]["sha256"])
    chk = check_certificate(bad)
    assert not chk
    label = c5_cert["h"][6]["label"]
    assert chk.failures == [f"function table of {label} differs from the canonical build"]


def test_wrong_host_hash_fails(c5_cert):
    bad = copy.deepcopy(c5_cert)
    bad["g_hash"] = "f" * 64
    chk = check_certificate(bad)
    assert not chk
    assert any("hash" in f for f in chk.failures)


def test_malformed_h_entry_fails(c5_cert):
    bad = copy.deepcopy(c5_cert)
    del bad["h"][0]["sha256"]
    chk = check_certificate(bad)
    assert not chk
    assert any("malformed H vertex list" in f for f in chk.failures)
    bad["h"] = "tables"
    assert not check_certificate(bad)


def test_duplicate_tables_fail(c5_cert):
    bad = copy.deepcopy(c5_cert)
    bad["h"][8]["sha256"] = bad["h"][7]["sha256"]
    chk = check_certificate(bad)
    assert not chk
    label = c5_cert["h"][8]["label"]
    assert chk.failures == [f"function table of {label} differs from the canonical build"]


def test_relabelled_vertices_fail(c5_cert):
    bad = copy.deepcopy(c5_cert)
    bad["h"][5], bad["h"][6] = bad["h"][6], bad["h"][5]
    chk = check_certificate(bad)
    assert not chk
    assert "H vertex labels differ from the canonical build" in chk.failures


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


def test_stored_edges_and_loops_agree_with_the_scan(c5_report, c5_cert):
    # the build reads loops and H edges off collision_matrix, and the
    # certificate's tables are the build's by digest; re-derive each loop and
    # stored edge with the independent one-pair scan
    build = c5_report.build
    g, vertices = build.g, build.vertices
    assert [e["label"] for e in c5_cert["h"]] == build.labels
    assert c5_cert["h_edges"]
    for a, b in c5_cert["h_edges"]:
        assert first_collision(g, vertices[a].table, vertices[b].table) is None
    for v in vertices:
        assert first_collision(g, v.table, v.table) is not None


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
    # count calls through every binding of the two kernels in the package, so
    # a second sweep or table quotient anywhere on the check path shows up
    calls = count_calls(cex, "shell_bits", "_table_questions")
    assert check_certificate(c5_cert)
    # one sweep for all six classes of the 3 x 2 wide coloring, one quotient
    assert calls == {"shell_bits": 1, "_table_questions": 1}
