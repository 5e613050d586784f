"""Tests of the benchmark itself, on stubbed pipelines and small graphs.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import tracer
import worker
from hedcex import counterexample as cex
from hedcex import families, graphs, widecolor
from hedcex.solver import DEFAULT_BUDGET

HERE = Path(__file__).resolve().parent
PROBES = [{"import_s": 0.1, "setup_s": 0.1}]


def _stub_modules(status, *, counts=None, g_hash=None, cert_ok=True):
    pin = worker.PINS["c5_refined"]
    items = [
        SimpleNamespace(name="counts", ok=True, detail=dict(counts or pin["counts"])),
        SimpleNamespace(name="chi_h", ok={"INCOMPLETE": None}.get(status, True), detail={"nodes": 7}),
    ]
    report = SimpleNamespace(
        status=status,
        items=items,
        build=SimpleNamespace(g_hash=g_hash or pin["g_sha256"]),
    )
    fake_cex = SimpleNamespace(
        PASS="PASS",
        DEFAULT_BUDGET=DEFAULT_BUDGET,
        params_for=lambda variant: variant,
        verify_counterexample=lambda params, budget, threads: report,
    )
    fake_cert = SimpleNamespace(
        emit_certificate=lambda rep: {"ok": True},
        certificate_to_json=json.dumps,
        certificate_from_json=json.loads,
        check_certificate=lambda doc: SimpleNamespace(
            ok=cert_ok, failures=[] if cert_ok else ["stub rejection"]
        ),
    )
    return fake_cex, fake_cert


def _graded_op(status, **kwargs):
    work = worker.WORKLOADS["refined"]
    out = worker.run_operation(work, *_stub_modules(status, **kwargs))
    out["failures"] = worker.grade(work, out)
    return out


def test_failed_verdict_counts_in_fail_frac():
    ops = [_graded_op("PASS"), _graded_op("FAILED")]
    assert ops[0]["failures"] == []
    assert ops[1]["failures"] == ["verdict FAILED"]
    summary = run.summarize(ops, PROBES)
    assert summary["failed"] == 1
    assert summary["fail_frac"] == 0.5
    assert summary["ok_frac"] == 0.5


def test_incomplete_verdict_counts_in_decided_frac_not_fail_frac():
    ops = [_graded_op("PASS"), _graded_op("INCOMPLETE")]
    assert ops[1]["failures"] == []
    assert "cert_check_s" not in ops[1]  # an undecided run emits no certificate
    summary = run.summarize(ops, PROBES)
    assert summary["fail_frac"] == 0.0
    assert summary["decided_frac"] == 0.5
    assert summary["claims_decided_frac"] == 3 / 4


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"g_hash": "0" * 64}, "host sha256"),
        ({"counts": {"g_vertices": 1, "g_edges": 1, "h_vertices": 1, "h_edges": 1}}, "counts"),
        ({"cert_ok": False}, "certificate rejected"),
    ],
)
def test_golden_mismatch_is_a_failure(kwargs, message):
    op = _graded_op("PASS", **kwargs)
    assert len(op["failures"]) == 1 and op["failures"][0].startswith(message)
    assert run.summarize([op], PROBES)["fail_frac"] == 1.0


def test_rescale_uses_the_loops_sampled_during_the_window():
    slow = run.REF_LOOP_S * 2
    samples = [[0.5, run.REF_LOOP_S], [1.0, slow], [2.0, slow], [3.0, slow], [9.0, run.REF_LOOP_S]]
    assert run.rescale(4.0, [0.9, 3.1], samples) == 2.0  # twice as slow: halve the time
    assert run.rescale(4.0, [8.9, 8.95], samples) == 4.0  # nearest sample, at full speed
    assert run.rescale(4.0, [0.0, 1.0], []) is None
    op = {"op_s": 4.0, "op_window": [0.9, 3.1], "verify_s": 3.0, "verify_window": [1.5, 2.5]}
    run.add_rescaled(op, samples)
    assert (op["op_ref_s"], op["verify_ref_s"], op["cpu_speed"]) == (2.0, 1.5, 0.5)


def _bindings():
    return {
        (mod.__name__, attr): obj
        for mod in tracer._package_modules()
        for attr, obj in vars(mod).items()
    }


def test_tracer_restores_every_wrapped_name():
    before = _bindings()
    t = tracer.Tracer("test")
    with t.traced():
        wrapped = tracer.wrapped_names()
        assert "hedcex.counterexample.find_coloring" in wrapped
        assert "hedcex.solver.find_coloring" in wrapped
        assert "hedcex.counterexample.ThreadPoolExecutor" in wrapped
        cex.params_for("c7")
    assert [s["name"] for s in t.spans] == [
        "counterexample.parameter_check",
        "counterexample.params_for",
    ]
    assert tracer.wrapped_names() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_restore_fails_on_a_stray_wrapper():
    t = tracer.Tracer("test")
    t.install()
    graphs.stray = graphs.graph_sha256  # a wrapper bound under a name the tracer never saw
    try:
        with pytest.raises(RuntimeError, match="hedcex.graphs.stray"):
            t.restore()
    finally:
        del graphs.stray
    assert tracer.wrapped_names() == []


def test_pool_spans_take_the_submitting_span_as_parent():
    omega = families.omega_tuples(4, 1)
    wc = widecolor.zero_position_coloring(omega, 2, 2)
    t = tracer.Tracer("pool")
    with t.traced():
        assert widecolor.check_wide(omega.graph, wc, threads=2)
    (check,) = [s for s in t.spans if s["name"] == "widecolor.check_wide"]
    shells = [s for s in t.spans if s["name"] == "families.n_shells"]
    assert len(shells) == 4
    assert {s["parent"] for s in shells} == {check["id"]}


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        {"id": 1, "parent": None, "name": "counterexample.build_counterexample", "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "name": "counterexample.exp_adjacent", "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 1, "name": "counterexample.exp_adjacent", "start": 2.0, "end": 6.0},
        {"id": 4, "parent": 1, "name": "graphs.graph_sha256", "start": 8.0, "end": 12.0},
    ]
    own = tracer.self_times(spans)
    assert own == {1: 3.0, 2: 3.0, 3: 4.0, 4: 4.0}
    counts = {"g_vertices": 10, "g_edges": 5, "h_vertices": 3, "h_edges": 2}
    layers = tracer.layer_metrics(spans, counts)
    assert layers["counterexample.build.self_s"] == 3.0
    assert layers["counterexample.incidences"] == 2 * 2 * 5
    assert layers["counterexample.scan_rate"] == 20 / 7.0
    assert layers["counterexample.self_s"] == 10.0
    assert layers["certificate.self_s"] == 0


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    counts = {"g_vertices": 10, "g_edges": 5, "h_vertices": 3, "h_edges": 2}
    layer_names = set(tracer.layer_metrics([], counts)) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    summary = run.summarize([_graded_op("PASS")], PROBES)
    assert {m["name"] for m in spec["end_to_end"]} <= set(summary)
    (wide,) = [w for w in spec["workloads"] if w["name"] == "wide"]
    assert f"{worker.WIDE_CHI_H_NODES} nodes" in wide["why"]
    assert set(worker.WORKLOADS) == {w["name"] for w in spec["workloads"]}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "refined", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
