import copy
import json

import numpy as np
import pytest

from hedcex import graphs
from hedcex.certificate import (
    CERTIFICATE_VERSION,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    emit_certificate,
)
from hedcex.counterexample import FunctionVertex, exp_adjacent, params_for, verify_counterexample
from hedcex.solver import SearchBudget


@pytest.fixture(scope="module")
def c5_cert(c5_report):
    return emit_certificate(c5_report)


def test_emit_requires_pass():
    report = verify_counterexample(
        params_for("c5_refined"),
        budget=SearchBudget(node_limit=10),
        compare_readings=False,
    )
    assert report.status == "INCOMPLETE"
    with pytest.raises(ValueError):
        emit_certificate(report)


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
    assert {"search", "chi_g"} <= set(c5_cert["budgets"])


def test_not_an_object():
    with pytest.raises(ValueError):
        certificate_from_json("[1, 2]")


def test_missing_field_fails(c5_cert):
    bad = copy.deepcopy(c5_cert)
    del bad["gamma"]
    chk = check_certificate(bad)
    assert not chk and "missing required fields" in chk.failures


def test_wrong_version_fails(c5_cert):
    bad = copy.deepcopy(c5_cert)
    bad["version"] = "0"
    assert not check_certificate(bad)


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


def test_corrupt_gamma_fails(c5_cert):
    bad = copy.deepcopy(c5_cert)
    bad["gamma"]["pairs"][3] = [1, 1] if bad["gamma"]["pairs"][3] != [1, 1] else [2, 1]
    chk = check_certificate(bad)
    assert not chk
    assert any("wide" in f for f in chk.failures)


def test_corrupt_table_fails(c5_cert):
    bad = copy.deepcopy(c5_cert)
    table = bad["h"][6]["table"]
    table[17] = table[17] % 5 + 1
    assert not check_certificate(bad)


def test_wrong_host_hash_fails(c5_cert):
    bad = copy.deepcopy(c5_cert)
    bad["g_hash"] = "f" * 64
    chk = check_certificate(bad)
    assert not chk
    assert any("hash" in f for f in chk.failures)


def test_table_out_of_range_fails(c5_cert):
    bad = copy.deepcopy(c5_cert)
    bad["h"][0]["table"][0] = 6
    chk = check_certificate(bad)
    assert not chk
    assert any("function" in f for f in chk.failures)


def test_duplicate_tables_fail(c5_cert):
    bad = copy.deepcopy(c5_cert)
    bad["h"][1]["table"] = list(bad["h"][0]["table"])
    chk = check_certificate(bad)
    assert not chk
    assert any("distinct" in f for f in chk.failures)


def test_bad_parameters_fail(c5_cert):
    bad = copy.deepcopy(c5_cert)
    bad["params"]["n"] = 2
    chk = check_certificate(bad)
    assert not chk
    assert any("parameters" in f for f in chk.failures)


def test_collision_on_a_stored_edge_is_named(c5_report, c5_cert):
    bad = copy.deepcopy(c5_cert)
    u, v = next(iter(c5_report.build.g.edges()))
    # const(1) takes const(2)'s color at u, so the two collide across u-v
    bad["h"][0]["table"][u] = bad["h"][1]["table"][v]
    chk = check_certificate(bad)
    assert not chk
    assert "stored edge const(1) ~ const(2) is not realized by the tables" in chk.failures


def test_stored_edges_and_loops_agree_with_the_scan(c5_report, c5_cert):
    # check_certificate reads loops and stored edges off collision_matrix;
    # re-derive each of them here with the independent one-pair scan
    g = c5_report.build.g
    c = c5_cert["params"]["c"]
    vertices = [
        FunctionVertex(e["label"], ("cert",), np.asarray(e["table"], dtype=np.int8))
        for e in c5_cert["h"]
    ]
    assert c5_cert["h_edges"]
    for a, b in c5_cert["h_edges"]:
        assert exp_adjacent(g, c, vertices[a], vertices[b])
    for v in vertices:
        assert not exp_adjacent(g, c, v, v)


def test_verify_and_round_trip_build_no_bitset_rows(monkeypatch):
    def refuse(*args):
        raise AssertionError("bitset rows built")

    monkeypatch.setattr(graphs, "_rows_from_edges", refuse)
    report = verify_counterexample(params_for("c5_refined"))
    assert report.status == "PASS"
    text = certificate_to_json(emit_certificate(report))
    assert check_certificate(certificate_from_json(text))
    assert report.build.g._adj is None and report.build.h._adj is None
