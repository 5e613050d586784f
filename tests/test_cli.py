import hashlib
import json
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from hedcex import counterexample as cex
from hedcex import families, graphs
from hedcex.certificate import certificate_to_json, check_certificate, emit_certificate
from hedcex.cli import main
from hedcex.families import omega_tuples
from hedcex.graphs import emit_dimacs, graph_sha256
from hedcex.widecolor import zero_position_coloring


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def too_big(n, d, need, space, edges):
    """The refusal of a tuple adjoint whose build would pass 2 GiB."""
    return (
        f"hedcex: tuple adjoint at n={n} d={d} needs {need} bytes for its {space} codes "
        f"and {edges} edge keys, past the 2 GiB bound on a host build"
    )


def test_wide_check_zero_position(capsys):
    code, out, _ = run(
        capsys, "wide-check", "--n", "3", "--k", "2", "--d", "1", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["wide"] is True and doc["vertices"] == 186


def test_wide_check_zero_mode_decides_once(count_calls, capsys):
    # the zero-position coloring is built unchecked and swept once per class
    # (2 x 2 classes) for the requested condition only
    calls = count_calls(families, "n_shells")
    code, out, _ = run(capsys, "wide-check", "--n", "2", "--k", "2", "--d", "1", "--condition", "2")
    assert (code, out) == (0, "wide: True (condition 2, d=1)\n")
    assert calls == {"n_shells": 4}


def test_wide_check_zero_mode_hashes_only_to_pin(count_calls, tmp_path, capsys):
    # the zero-position coloring is checked unpinned; its host is hashed
    # once, and only when --gamma-out writes the pinned coloring
    lines = count_calls(graphs, "_dimacs_lines")
    code, _, _ = run(capsys, "wide-check", "--n", "4", "--k", "2", "--d", "2")
    assert (code, lines) == (0, {"_dimacs_lines": 0})
    gamma = tmp_path / "gamma.json"
    code, _, _ = run(
        capsys, "wide-check", "--n", "4", "--k", "2", "--d", "2", "--gamma-out", str(gamma)
    )
    assert (code, lines) == (0, {"_dimacs_lines": 1})
    omega = omega_tuples(8, 2)
    wc = zero_position_coloring(omega, 4, 2)
    assert gamma.read_text() == wc.to_json() + "\n"
    assert wc.graph_sha == graph_sha256(omega.graph)


def test_wide_check_file_mode(tmp_path, capsys):
    gamma = tmp_path / "gamma.json"
    code, _, _ = run(
        capsys,
        "wide-check", "--n", "2", "--k", "1", "--d", "2",
        "--gamma-out", str(gamma),
    )
    assert code == 0
    host = tmp_path / "om.col"
    host.write_text(emit_dimacs(omega_tuples(2, 2).graph))
    code, out, _ = run(
        capsys,
        "wide-check", "--graph", str(host), "--gamma", str(gamma),
        "--condition", "4", "--json",
    )
    assert code == 0
    assert json.loads(out)["wide"] is True


def test_wide_check_refuses_a_host_past_int32(tmp_path, capsys):
    gamma = tmp_path / "gamma.json"
    code, _, _ = run(
        capsys, "wide-check", "--n", "2", "--k", "1", "--d", "2", "--gamma-out", str(gamma)
    )
    assert code == 0
    host = tmp_path / "big.col"
    host.write_text("p edge 3000000000 1\ne 1 3000000000\n")
    code, out, err = run(capsys, "wide-check", "--graph", str(host), "--gamma", str(gamma))
    assert (code, out) == (2, "")
    assert "vertex count 3000000000 exceeds 2**31" in err and "Traceback" not in err
    # a zero-position host past 2**31 vertices is refused by its footprint
    # before the (d+2)^(nk) code space is built: its 8**20 codes pass the
    # bound on bit lengths alone
    code, out, err = run(capsys, "wide-check", "--n", "5", "--k", "4", "--d", "6")
    assert (code, out) == (2, "")
    assert families.omega_vertex_count(20, 6) > 1 << 31
    assert err == (
        "hedcex: tuple adjoint at n=20 d=6 has at least 2**60 codes, "
        "past the 2 GiB bound on a host build\n"
    )


@pytest.mark.parametrize(
    "gamma,field",
    [
        ("{}", "'n'"),
        ('{"n": null, "k": 1, "d": 2, "pairs": [[1, 1], [2, 1]]}', "'n'"),
        ('{"n": 2, "k": 1, "d": 2, "pairs": null}', "'pairs'"),
        ('{"n": 2, "k": 1, "d": 2, "pairs": [[1, null], [2, 1]]}', "'pairs'"),
        ("[[1, 1], [2, 1]]", "object"),
        ('{"n": 2, "k": 1, "d": 2, "pairs": [[1, 1], [99999999999999999999, 1]]}', "int8"),
        ('{"n": 2, "k": 1, "d": 2, "pairs": [], "graph_sha256": 7}', "'graph_sha256'"),
        ('{"n": 2, "k": 1, "d": 2, "pairs": [], "graph_sha256": []}', "'graph_sha256'"),
        ('{"n": 2, "k": 1, "d": 2, "pairs": [], "graph_sha256": {}}', "'graph_sha256'"),
        ('{"n": 0, "k": 1, "d": 2, "pairs": [[1, 1], [2, 1]]}', "bad wide-coloring parameters"),
        ('{"n": 2, "k": 0, "d": 2, "pairs": [[1, 1], [2, 1]]}', "bad wide-coloring parameters"),
        ('{"n": 2, "k": 1, "d": -1, "pairs": [[1, 1], [2, 1]]}', "bad wide-coloring parameters"),
        ("[" * 200000, "wide coloring JSON is nested too deeply"),
    ],
    ids=[
        "empty", "null-n", "null-pairs", "null-in-a-pair", "list", "past-int64",
        "number-pin", "list-pin", "object-pin", "n-0", "k-0", "d-negative", "nested",
    ],
)
def test_wide_check_refuses_a_malformed_gamma(tmp_path, capsys, gamma, field):
    host = tmp_path / "om.col"
    host.write_text(emit_dimacs(omega_tuples(2, 2).graph))
    bad = tmp_path / "gamma.json"
    bad.write_text(gamma)
    code, out, err = run(capsys, "wide-check", "--graph", str(host), "--gamma", str(bad))
    assert code == 2
    assert out == ""
    assert field in err and "Traceback" not in err


def test_wide_check_sweeps_only_the_classes_that_occur(tmp_path, capsys, count_calls):
    # the gamma declares 10**9 x 1 classes, and the 2-vertex host meets two
    # of them; an empty class is trivially wide, so it costs no sweep
    gamma = tmp_path / "gamma.json"
    code, _, _ = run(
        capsys, "wide-check", "--n", "2", "--k", "1", "--d", "2", "--gamma-out", str(gamma)
    )
    assert code == 0
    doc = json.loads(gamma.read_text())
    doc["n"] = 10**9
    gamma.write_text(json.dumps(doc))
    host = tmp_path / "om.col"
    host.write_text(emit_dimacs(omega_tuples(2, 2).graph))
    calls = count_calls(families, "n_shells")
    code, out, _ = run(capsys, "wide-check", "--graph", str(host), "--gamma", str(gamma))
    assert (code, out) == (0, "wide: True (condition 2, d=2)\n")
    assert calls == {"n_shells": 2}


def test_wide_check_cuts_a_declared_d_to_the_host(tmp_path, capsys):
    # the gamma declares d = 10**9 on the 2-vertex host; every shell past
    # depth 2|V| repeats, so the four conditions are decided at once
    gamma = tmp_path / "gamma.json"
    code, _, _ = run(
        capsys, "wide-check", "--n", "2", "--k", "1", "--d", "2", "--gamma-out", str(gamma)
    )
    assert code == 0
    doc = json.loads(gamma.read_text())
    doc["d"] = 10**9
    gamma.write_text(json.dumps(doc))
    host = tmp_path / "om.col"
    host.write_text(emit_dimacs(omega_tuples(2, 2).graph))
    start = time.perf_counter()
    for condition in (1, 2, 3, 4):
        code, out, _ = run(
            capsys, "wide-check", "--graph", str(host), "--gamma", str(gamma),
            "--condition", str(condition),
        )
        assert (code, out) == (0, f"wide: True (condition {condition}, d=1000000000)\n")
    assert time.perf_counter() - start < 1.0


def test_color_budget_exhaustion_exit_code(capsys):
    # a chi(H) search stopped by its node budget leaves the verdict open
    code, _, _ = run(
        capsys,
        "verify", "counterexample", "--variant", "c5_refined", "--budget-nodes", "10",
    )
    assert code == 3


def test_build_and_verify_certificate(tmp_path, capsys):
    cert = tmp_path / "c5.cert.json"
    code, out, _ = run(
        capsys,
        "verify", "counterexample", "--variant", "c5_refined",
        "--cert", str(cert),
    )
    assert code == 0
    assert "verify c5_refined: PASS" in out
    assert cert.exists()
    code, out, _ = run(capsys, "verify", "certificate", "--cert", str(cert))
    assert code == 0
    assert "certificate: ok" in out

    doc = json.loads(cert.read_text())
    doc["h_edges"] = doc["h_edges"][:-1]
    cert.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "certificate", "--cert", str(cert))
    assert code == 1

    doc = json.loads(cert.read_text())
    doc["version"] = "1"
    cert.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "certificate", "--cert", str(cert))
    assert code == 1
    assert "unsupported certificate version '1'" in out


@pytest.mark.parametrize("name", ["chi_h", "product", "chi_g"])
def test_verdict_that_is_not_an_object_is_a_failure_line(tmp_path, capsys, c5_report, name):
    doc = emit_certificate(c5_report)
    doc["verdicts"][name] = "none"
    cert = tmp_path / "bad.cert.json"
    cert.write_text(certificate_to_json(doc))
    code, out, err = run(capsys, "verify", "certificate", "--cert", str(cert))
    assert code == 1
    assert f"  - verdict is not a JSON object: {name}" in out
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "path,value,failure",
    [
        (("params", "k"), 2.0, "bad parameters: k must be an integer, got 2.0"),
        (("params", "d"), 3.0, "bad parameters: d must be an integer, got 3.0"),
        (("h_edges", 0), [0.5, 3], "malformed H edge list"),
        (("h_edges", 0), "01", "malformed H edge list"),
        (("gamma", "n"), 3.0, "wide coloring shape differs from the parameters"),
        (("g_counts", "vertices"), 4686.0, "host graph counts mismatch"),
        (
            ("verdicts", "product", "ordered_checks"),
            7779240.0,
            "product verdict ordered_checks 7779240.0 is not 2|E(H)||E(G)| = 7779240",
        ),
    ],
    ids=[
        "float-k",
        "float-d",
        "float-edge-end",
        "string-edge",
        "float-gamma-n",
        "float-count",
        "float-checks",
    ],
)
def test_mistyped_certificate_field_is_a_failure_line(
    tmp_path, capsys, c5_report, path, value, failure
):
    # a value equal to the right one but of the wrong JSON type is refused by
    # name, not coerced, and never escapes as an exception
    doc = emit_certificate(c5_report)
    *where, key = path
    target = doc
    for step in where:
        target = target[step]
    target[key] = value
    cert = tmp_path / "bad.cert.json"
    cert.write_text(certificate_to_json(doc))
    code, out, err = run(capsys, "verify", "certificate", "--cert", str(cert))
    assert (code, out, err) == (1, f"certificate: INVALID\n  - {failure}\n", "")


def test_verify_literal_reading_fails(capsys):
    # the literal selector reading fails one check, which names the H edge
    # it breaks; the q reading passes
    verify = ("verify", "counterexample", "--variant", "c5_refined", "--reading")
    code, out, _ = run(capsys, *verify, "literal")
    assert code == 1
    assert [line for line in out.splitlines() if "FAILED" in line] == [
        "h_edges_real: FAILED",
        "verify c5_refined: FAILED",
    ]
    code, out, _ = run(capsys, *verify, "literal", "--json")
    assert code == 1
    items = {item["name"]: item for item in json.loads(out)["items"]}
    assert items["h_edges_real"]["detail"]["edge"] == ["h(q=2,d=2,i=4,j=5)", "g(q=2,d=3,i=5)"]
    code, out, _ = run(capsys, *verify, "q")
    assert code == 0 and "FAILED" not in out


def _rewire(monkeypatch, edit):
    """Rebind the table questions so that ``edit(collisions, takes, distinct,
    index)`` corrupts copies of its answers; it returns the distinct count,
    and ``index`` maps a label to its table."""
    questions = cex._table_questions

    def corrupted(g, vertices, groups):
        collisions, takes, distinct = questions(g, vertices, groups)
        collisions, takes = collisions.copy(), takes.copy()
        index = {v.label: i for i, v in enumerate(vertices)}
        return collisions, takes, edit(collisions, takes, distinct, index)

    monkeypatch.setattr(cex, "_table_questions", corrupted)


def _collide(*pairs, value=True):
    """An ``edit`` that sets the collision entries of each label pair."""

    def edit(collisions, takes, distinct, index):
        for a, b in pairs:
            collisions[index[a], index[b]] = collisions[index[b], index[a]] = value
        return distinct

    return edit


def _unvalidated_params(monkeypatch):
    # a bundle that skips validation, with a pairing shape that misses the base
    def params_for(variant, reading="q"):
        shape = cex.VARIANTS[variant] | {"n": 2}
        return cex.CounterexampleParams(variant, reading=reading, **shape)

    monkeypatch.setattr(cex, "params_for", params_for)


def _pin_one_more_h_edge(monkeypatch):
    pins = cex.EXPECTED_COUNTS["c5_refined"] | {"h_edges": 109}
    monkeypatch.setitem(cex.EXPECTED_COUNTS, "c5_refined", pins)


def _narrow_class(monkeypatch):
    zero_position = cex._zero_position

    def corrupted(omega, n, k):
        # vertex 0 (class (1, 1)) moved into class (3, 2)
        wc = zero_position(omega, n, k)
        pairs = wc.pairs.copy()
        pairs[0] = (3, 2)
        return replace(wc, pairs=pairs)

    monkeypatch.setattr(cex, "_zero_position", corrupted)


def _drop_an_h_edge(monkeypatch):
    skeleton = cex._skeleton_edges
    monkeypatch.setattr(cex, "_skeleton_edges", lambda *args: skeleton(*args)[1:])


def _flip_takes_bit(collisions, takes, distinct, index):
    takes[2, index["const(1)"]] = True
    return distinct


H1, H2 = "h(q=1,d=1,i=1,j=4)", "h(q=1,d=2,i=4,j=5)"
G4, G5 = "g(q=1,d=3,i=4)", "g(q=1,d=3,i=5)"


# At least one corruption per item that can fail: case -> (item, variant,
# corruption, every item it fails, part of the failed item's --json
# evidence).  f ~ each level-one h and each g family's pairwise edges are H
# edges, so h_edges_real names them; a narrow class also breaks a g family.
CORRUPTIONS = {
    "parameters": (
        "parameters",
        "c5_refined",
        _unvalidated_params,
        {"parameters"},
        {"error": "variant c5_refined requires {'k': 2, 'c': 5, 'n': 3, 'd': 3}, "
         "got {'k': 2, 'c': 5, 'n': 2, 'd': 3}"},
    ),
    "counts": (
        "counts",
        "c5_refined",
        _pin_one_more_h_edge,
        {"counts"},
        {"h_edges": 108, "error": "h_edges is 108, expected 109"},
    ),
    "wide_coloring": (
        "wide_coloring",
        "c5_refined",
        _narrow_class,
        {"wide_coloring", "h_edges_real"},
        {"narrow": [[3, 2]]},
    ),
    "distinct_tables": (
        "distinct_tables",
        "c5_refined",
        lambda mp: _rewire(mp, lambda collisions, takes, distinct, index: distinct - 1),
        {"distinct_tables"},
        {"tables": 30, "count": 29},
    ),
    # without one edge, H is 5-colorable
    "chi_h": (
        "chi_h", "c5_refined", _drop_an_h_edge, {"counts", "chi_h"}, {"colors": 5, "nodes": 35}
    ),
    "h_edges_real": (
        "h_edges_real",
        "c5_refined",
        lambda mp: _rewire(mp, _collide((H1, H2))),
        {"h_edges_real"},
        {"edge": [H1, H2]},
    ),
    "h_edges_real-f-h1": (
        "h_edges_real",
        "c5_refined",
        lambda mp: _rewire(mp, _collide(("f", H1))),
        {"h_edges_real"},
        {"edge": ["f", H1]},
    ),
    "h_edges_real-g4-g5": (
        "h_edges_real",
        "c5_refined",
        lambda mp: _rewire(mp, _collide((G4, G5))),
        {"h_edges_real"},
        {"edge": [G4, G5]},
    ),
    # const(1) claims color 2, and const(2) is adjacent to it
    "const_adjacency": (
        "const_adjacency",
        "c5_refined",
        lambda mp: _rewire(mp, _flip_takes_bit),
        {"const_adjacency"},
        {"witness": [2, "const(1)"]},
    ),
    # a chain pair that is not an H edge
    "chain": (
        "chain",
        "c5_wide",
        lambda mp: _rewire(mp, _collide((H1, "h(q=1,d=2,i=5,j=2)"))),
        {"chain"},
        {"witness": [H1, "h(q=1,d=2,i=5,j=2)"]},
    ),
    # a table with no collision would be a proper coloring of the host
    "chi_g": (
        "chi_g",
        "c5_refined",
        lambda mp: _rewire(mp, _collide(("f", "f"), value=False)),
        {"chi_g"},
        {"loop": "f"},
    ),
}


def test_corruptions_cover_every_item(c5_report, c7_report, c5_wide_report):
    printed = {item.name for r in (c5_report, c7_report, c5_wide_report) for item in r.items}
    assert printed == {case[0] for case in CORRUPTIONS.values()}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_every_item_can_fail(monkeypatch, capsys, request, case):
    item, variant, corrupt, failed, evidence = CORRUPTIONS[case]
    # a certificate of the sound build, emitted before the corruption
    sound = {"c5_refined": "c5_report", "c5_wide": "c5_wide_report"}[variant]
    cert = emit_certificate(request.getfixturevalue(sound))
    corrupt(monkeypatch)
    verify = ("verify", "counterexample", "--variant", variant)
    code, out, err = run(capsys, *verify)
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert f"{item}: FAILED" in lines
    assert lines[-1] == f"verify {variant}: FAILED"
    assert {line.split(":")[0] for line in lines[:-1] if line.endswith(": FAILED")} == failed
    code, out, _ = run(capsys, *verify, "--json")
    items = json.loads(out)["items"]
    (detail,) = [it["detail"] for it in items if it["name"] == item]
    assert {key: detail.get(key) for key in evidence} == evidence
    if item in ("parameters", "chi_h"):
        return  # checked by verify_counterexample, not by the build
    # the build returns every failed check with its error, in item order,
    # and a certificate's rebuild refuses with one line for each
    errors = [it["detail"]["error"] for it in items if it["ok"] is False]
    _, checks = cex.build_counterexample(cex.params_for(variant))
    assert [check.detail["error"] for check in checks if not check.ok] == errors
    assert check_certificate(cert).failures == [f"canonical rebuild failed: {e}" for e in errors]


def test_build_that_raises_is_the_build_item(monkeypatch, capsys, tmp_path):
    # an exception from the build ends the run after the parameters: the
    # report names the error and holds no build, and no certificate is written
    def broken(*args):
        raise RuntimeError("no skeleton")

    monkeypatch.setattr(cex, "_skeleton_edges", broken)
    report = cex.verify_counterexample(cex.params_for("c5_refined"))
    assert [(item.name, item.ok) for item in report.items] == [
        ("parameters", True),
        ("build", False),
    ]
    assert report.item("build").detail == {"error": "no skeleton"}
    assert (report.status, report.build) == ("FAILED", None)
    cert = tmp_path / "c5.cert.json"
    verify = ("verify", "counterexample", "--variant", "c5_refined", "--cert", str(cert))
    code, out, err = run(capsys, *verify)
    assert (code, out.splitlines()[1:], err) == (
        1,
        ["build: FAILED", "verify c5_refined: FAILED"],
        "",
    )
    assert not cert.exists()


def test_verify_flag_usage_errors(capsys):
    verify = ("verify", "counterexample", "--variant", "c5_refined")
    for flag, value in (
        ("--chi-g-nodes", "-5"),
        ("--chi-g-secs", "0"),
        ("--budget-nodes", "0"),
        ("--budget-secs", "nan"),
        ("--budget-nodes", "many"),
        ("--threads", "4"),
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([*verify, flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert flag in err.splitlines()[-1], err


def test_usage_errors(tmp_path, capsys):
    assert run(capsys, "wide-check", "--n", "3", "--k", "2")[0] == 2
    assert run(capsys, "wide-check", "--graph", "/no/such/file", "--gamma", "/no/such/file")[0] == 2
    assert run(capsys, "verify", "certificate", "--cert", "/no/such/file")[0] == 2
    nested = tmp_path / "nested.cert.json"
    nested.write_text("[" * 200000)
    assert run(capsys, "verify", "certificate", "--cert", str(nested)) == (
        2,
        "",
        "hedcex: certificate JSON is nested too deeply\n",
    )
    for removed in ("construct", "color", "hom", "chromatic", "adjunction-test", "build"):
        with pytest.raises(SystemExit) as exit_info:
            main([removed])
        assert exit_info.value.code == 2


EITHER = "wide-check: pass either --n/--k/--d or --graph/--gamma"


@pytest.mark.parametrize(
    "argv,message",
    [
        ([], EITHER),
        (["--n", "3", "--k", "2", "--d", "1", "--graph", "g.col", "--gamma", "g.json"], EITHER),
        (["--graph", "g.col"], "wide-check: --graph and --gamma go together"),
        (["--n", "2", "--k", "1"], "wide-check: --n, --k and --d go together"),
        (
            ["--n", "1", "--k", "1", "--d", "1"],
            "hedcex: tuple adjoint needs n >= 2 and d >= 1, got n=1 d=1",
        ),
        (
            ["--n", "2", "--k", "1", "--d", "0"],
            "hedcex: tuple adjoint needs n >= 2 and d >= 1, got n=2 d=0",
        ),
        (
            # 10,485,740 vertices, below 2**31, but 3**20 codes
            ["--n", "4", "--k", "5", "--d", "1"],
            too_big(20, 1, 613286634087, 3486784401, 73609892910),
        ),
        (
            # the c11 host: 4.80 GiB of uint64 keys
            ["--n", "6", "--k", "2", "--d", "2"],
            too_big(12, 2, 5273690512, 16777216, 644531250),
        ),
        (["--n", "4", "--k", "4", "--d", "1"], too_big(16, 1, 4892977287, 43046721, 573956280)),
        (
            # 4,803 vertices and edges, but 802**3 codes
            ["--n", "3", "--k", "1", "--d", "800"],
            too_big(3, 800, 3610966468, 515849608, 4803),
        ),
        (
            # 2.55 GB of keys, built before the footprint bound given the memory
            ["--n", "4", "--k", "2", "--d", "7"],
            too_big(8, 7, 2852827047, 43046721, 318937500),
        ),
        (["--n", "-1", "--k", "-2", "--d", "1"], "hedcex: bad wide-coloring parameters"),
        (
            # 3**10000 codes, a count of 4,772 digits, refused on bit lengths
            ["--n", "10000", "--k", "1", "--d", "1"],
            "hedcex: tuple adjoint at n=10000 d=1 has at least 2**10000 codes, "
            "past the 2 GiB bound on a host build",
        ),
        (
            # 3**(10**7) codes: no power of that size is computed
            ["--n", "1000000", "--k", "10", "--d", "1"],
            "hedcex: tuple adjoint at n=10000000 d=1 has at least 2**10000000 codes, "
            "past the 2 GiB bound on a host build",
        ),
    ],
    ids=[
        "no-mode", "both-modes", "graph-alone", "no-d", "base-1", "d-0", "code-space",
        "c11-keys", "n16-keys", "d800-codes", "n8-d7-keys", "negative-factors",
        "n10000-bits", "n10m-bits",
    ],
)
def test_wide_check_refusals_are_named(capsys, argv, message):
    # each refusal is one stderr line and exit 2, before any file is read
    assert run(capsys, "wide-check", *argv) == (2, "", message + "\n")


def test_certificate_of_an_unknown_variant_is_refused(tmp_path, capsys, c5_report):
    doc = emit_certificate(c5_report)
    doc["params"]["variant"] = "c9"
    cert = tmp_path / "c9.cert.json"
    cert.write_text(certificate_to_json(doc))
    code, out, err = run(capsys, "verify", "certificate", "--cert", str(cert))
    assert (code, out, err) == (
        1,
        "certificate: INVALID\n  - bad parameters: unknown variant 'c9'\n",
        "",
    )


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "hedcex", "wide-check", "--n", "3", "--k", "1", "--d", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout == "wide: True (condition 2, d=1)\n"


def test_reproduce_script_exit_codes_follow_the_cli(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce.py"

    def reproduce(*argv):
        return subprocess.run(
            [sys.executable, str(script), "--variant", "c5_refined", "--out", str(tmp_path)]
            + list(argv),
            capture_output=True,
            text=True,
            timeout=300,
        )

    proc = reproduce("--budget-nodes", "10")
    assert proc.returncode == 3, proc.stderr
    assert "verify c5_refined: INCOMPLETE" in proc.stdout
    report = json.loads((tmp_path / "c5_refined.report.json").read_text())
    assert report["status"] == "INCOMPLETE"
    assert not (tmp_path / "c5_refined.cert.json").exists()
    proc = reproduce("--budget-nodes", "0")
    assert proc.returncode == 2
    assert "--budget-nodes must be at least 1, got 0" in proc.stderr


# SHA-256 of the stdout of ``hedcex verify counterexample --variant V --json``.
VERIFY_JSON_SHA256 = {
    "c5_refined": "e8f8cad4eb41f9f911d3ce749a655e7d1dd90acbdacdf0425c95950b71dca148",
    "c7": "0d19812ff7c021448cebab79872107b1f8f9dd5ae3abfe265b2704143070cd63",
    "c5_wide": "0e4d4acd4329ff90a42ea48e1aab1a37569026cd3a9e969af58b864007049020",
}


@pytest.mark.parametrize("variant", sorted(VERIFY_JSON_SHA256))
def test_verify_json_stdout_is_pinned(variant):
    proc = subprocess.run(
        [sys.executable, "-m", "hedcex", "verify", "counterexample", "--variant", variant, "--json"],
        capture_output=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == VERIFY_JSON_SHA256[variant]
