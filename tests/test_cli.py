import hashlib
import json
import subprocess
import sys

import pytest

from hedcex.certificate import certificate_to_json, emit_certificate
from hedcex.cli import main
from hedcex.families import omega_tuples
from hedcex.graphs import emit_dimacs


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
    host.write_text(emit_dimacs(omega_tuples(2, 2).graph))
    code, out, _ = run(
        capsys,
        "wide-check", "--graph", str(host), "--gamma", str(gamma),
        "--condition", "4", "--json",
    )
    assert code == 0
    assert json.loads(out)["wide"] is True


@pytest.mark.parametrize(
    "gamma,field",
    [
        ("{}", "'n'"),
        ('{"n": null, "k": 1, "d": 2, "pairs": [[1, 1], [2, 1]]}', "'n'"),
        ('{"n": 2, "k": 1, "d": 2, "pairs": null}', "'pairs'"),
        ('{"n": 2, "k": 1, "d": 2, "pairs": [[1, null], [2, 1]]}', "'pairs'"),
        ("[[1, 1], [2, 1]]", "object"),
    ],
    ids=["empty", "null-n", "null-pairs", "null-in-a-pair", "list"],
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
    assert run(capsys, "wide-check", "--n", "3", "--k", "2")[0] == 2
    assert run(capsys, "wide-check", "--graph", "/no/such/file", "--gamma", "/no/such/file")[0] == 2
    assert run(capsys, "verify", "certificate", "--cert", "/no/such/file")[0] == 2
    for removed in ("construct", "color", "hom", "chromatic", "adjunction-test", "build"):
        with pytest.raises(SystemExit) as exit_info:
            main([removed])
        assert exit_info.value.code == 2


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "hedcex", "wide-check", "--n", "3", "--k", "1", "--d", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout == "wide: True (condition 2, d=1)\n"


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
