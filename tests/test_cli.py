import hashlib
import json
import subprocess
import sys
from pathlib import Path

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


@pytest.mark.parametrize(
    "path,value,failure",
    [
        (("params", "k"), 2.0, "bad parameters: k must be an integer, got 2.0"),
        (("params", "d"), 3.0, "bad parameters: d must be an integer, got 3.0"),
        (("h_edges", 0), [0.5, 3], "malformed H edge list"),
        (("h_edges", 0), "01", "malformed H edge list"),
        (("gamma", "n"), 3.0, "wide coloring shape differs from the parameters"),
        (("g_counts", "vertices"), 4686.0, "host graph counts mismatch"),
    ],
    ids=["float-k", "float-d", "float-edge-end", "string-edge", "float-gamma-n", "float-count"],
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
    "c5_refined": "269af8fc8e4c82e30e6964731a853e340440c359dae2e9b5fa9b3c8324055a6b",
    "c7": "5679665bd028bdf898c52e731c0f511209c3a11eec6bb90c0679f2052a430c48",
    "c5_wide": "64d8ae044063a1ee59ecb616fa70ae21d39f31421deff3eafddb488167091be2",
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
