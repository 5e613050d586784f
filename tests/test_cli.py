import hashlib
import json
import subprocess
import sys

import pytest

from hedcex.certificate import certificate_to_json, emit_certificate
from hedcex.cli import main
from hedcex.graphs import parse_dimacs


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_complete(tmp_path, capsys):
    target = tmp_path / "k4.col"
    code, out, _ = run(capsys, "construct", "complete", "--n", "4", "-o", str(target))
    assert code == 0
    g = parse_dimacs(target.read_text())
    assert g.n == 4 and g.edge_count == 6


def test_construct_omega_json(capsys):
    code, out, _ = run(capsys, "construct", "omega", "--n", "3", "--d", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimacs"].startswith("p edge 9 9")


def test_construct_needs_parameters(capsys):
    code, out, err = run(capsys, "construct", "kneser", "--n", "5")
    assert code == 2


def test_construct_power_reads_graph(tmp_path, capsys):
    src = tmp_path / "c5.col"
    run(capsys, "construct", "cycle", "--n", "5", "-o", str(src))
    code, out, _ = run(
        capsys, "construct", "power", "--graph", str(src), "--d", "2", "--json"
    )
    assert code == 0
    g = parse_dimacs(json.loads(out)["dimacs"])
    # the even power of an odd cycle: 5 distance-2 chords plus 5 loops
    assert g.n == 5 and g.edge_count == 10 and g.has_loop()


def test_color_verdicts(tmp_path, capsys):
    src = tmp_path / "c7.col"
    run(capsys, "construct", "cycle", "--n", "7", "-o", str(src))
    code, out, _ = run(capsys, "color", "--graph", str(src), "--colors", "2", "--json")
    assert code == 0
    assert json.loads(out)["status"] == "none"
    code, out, _ = run(capsys, "color", "--graph", str(src), "--colors", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "some" and len(doc["assignment"]) == 7


def test_color_budget_exhaustion_exit_code(tmp_path, capsys):
    src = tmp_path / "kg.col"
    run(capsys, "construct", "kneser", "--c", "8", "--k", "3", "-o", str(src))
    code, out, _ = run(
        capsys, "color", "--graph", str(src), "--colors", "3", "--budget-nodes", "5"
    )
    assert code == 3


def test_hom_between_files(tmp_path, capsys):
    a, b = tmp_path / "c9.col", tmp_path / "k3.col"
    run(capsys, "construct", "cycle", "--n", "9", "-o", str(a))
    run(capsys, "construct", "complete", "--n", "3", "-o", str(b))
    code, out, _ = run(capsys, "hom", "--graph", str(a), "--target", str(b), "--json")
    assert code == 0
    assert json.loads(out)["status"] == "some"


def test_chromatic_with_range(tmp_path, capsys):
    src = tmp_path / "c9.col"
    run(capsys, "construct", "cycle", "--n", "9", "-o", str(src))
    code, out, _ = run(capsys, "chromatic", "--graph", str(src), "--json")
    assert code == 0
    assert json.loads(out)["value"] == 3


def test_wide_check_zero_position(capsys):
    code, out, _ = run(
        capsys, "wide-check", "--n", "3", "--k", "2", "--d", "1", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["wide"] is True and doc["vertices"] == 186


def test_wide_check_file_mode(tmp_path, capsys):
    gamma = tmp_path / "gamma.json"
    code, _, _ = run(
        capsys,
        "wide-check", "--n", "2", "--k", "1", "--d", "2",
        "--gamma-out", str(gamma),
    )
    assert code == 0
    host = tmp_path / "om.col"
    run(capsys, "construct", "omega", "--n", "2", "--d", "2", "-o", str(host))
    code, out, _ = run(
        capsys,
        "wide-check", "--graph", str(host), "--gamma", str(gamma),
        "--condition", "4", "--json",
    )
    assert code == 0
    assert json.loads(out)["wide"] is True


def test_adjunction_cli(tmp_path, capsys):
    a, b = tmp_path / "c7.col", tmp_path / "k3.col"
    run(capsys, "construct", "cycle", "--n", "7", "-o", str(a))
    run(capsys, "construct", "complete", "--n", "3", "-o", str(b))
    code, out, _ = run(
        capsys, "adjunction-test", "--graph", str(a), "--target", str(b),
        "--d", "3", "--json",
    )
    assert code == 0
    assert json.loads(out)["agree"] is True


def test_adjunction_rejects_even_width(tmp_path, capsys):
    a = tmp_path / "c7.col"
    run(capsys, "construct", "cycle", "--n", "7", "-o", str(a))
    code, _, _ = run(
        capsys, "adjunction-test", "--graph", str(a), "--target", str(a), "--d", "2"
    )
    assert code == 2


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


def test_build_artifacts(tmp_path, capsys):
    h_out = tmp_path / "h.col"
    dot = tmp_path / "h.dot"
    code, out, _ = run(
        capsys,
        "build", "c5_refined", "--h-out", str(h_out), "--dot", str(dot), "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["h"] == {"vertices": 30, "edges": 108}
    g = parse_dimacs(h_out.read_text())
    assert g.n == 30 and g.edge_count == 108
    assert "const(1)" in dot.read_text()


def test_verify_literal_reading_fails(capsys):
    code, out, _ = run(
        capsys,
        "verify", "counterexample", "--variant", "c5_refined",
        "--reading", "literal",
    )
    assert code == 1
    assert "FAILED" in out


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


def test_usage_errors(capsys):
    assert run(capsys, "construct", "omega", "--n", "1", "--d", "1")[0] == 2
    assert run(capsys, "color", "--graph", "/no/such/file", "--colors", "3")[0] == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "hedcex", "construct", "complete", "--n", "3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "p edge 3 3" in proc.stdout


# SHA-256 of the stdout of ``hedcex verify counterexample --variant V --json``.
VERIFY_JSON_SHA256 = {
    "c5_refined": "f2fef0ca47d34e6ddcd72b32ed89e067daef1688b06e55983c2fe867da612d0d",
    "c7": "62439e1c91ba208782be2a664e5b62171e9ef32712c16bdb3bc82691871467d0",
    "c5_wide": "d9dbb0a235b4b3f0397ed5d7507f09534ec188126ac7e9fb069347bd5dd20ec3",
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
