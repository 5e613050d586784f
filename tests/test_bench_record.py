import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

METRICS = {
    "verify_ref_s": "s",
    "op_ref_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "share",
    "claims_decided_frac": "share",
}


def result(workload, seed, scale):
    """A perfbench result record of the shape run.py writes, trimmed to what
    the summarizer reads, with every metric ``scale`` times its index + 1."""
    return {
        "args": {"workload": workload, "seed": seed, "seconds": 10.0, "trace": 0},
        "env": {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2, "commit": None},
        "result": {
            "correct": True,
            "metrics": {
                name: {"value": scale * (i + 1), "unit": unit}
                for i, (name, unit) in enumerate(METRICS.items())
            },
        },
    }


def test_summary_of_synthetic_result_files(tmp_path):
    # five runs of c7 read back from result files: median and inclusive
    # quartiles of each metric, its unit, the values in seed order, the
    # env of the first run
    for seed, scale in zip(range(1, 6), [3.0, 1.0, 5.0, 2.0, 4.0]):
        path = bench_record.result_path(tmp_path, "c7", seed)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(result("c7", seed, scale)))
    records = [json.loads(bench_record.result_path(tmp_path, "c7", s).read_text()) for s in range(1, 6)]
    bench = bench_record.summarize({"c7": records}, "x")
    assert bench["label"] == "x" and bench["env"]["numpy"] == "2.4.6"
    c7 = bench["workloads"]["c7"]
    assert c7["seeds"] == [1, 2, 3, 4, 5] and c7["seconds"] == 10.0
    assert set(c7["metrics"]) == set(METRICS)
    verify = c7["metrics"]["verify_ref_s"]
    assert (verify["q1"], verify["median"], verify["q3"]) == (2.0, 3.0, 4.0)
    assert verify["spread"] == pytest.approx(2 / 3) and verify["unit"] == "s"
    assert verify["values"] == [3.0, 1.0, 5.0, 2.0, 4.0]
    assert c7["metrics"]["peak_rss_mb"]["median"] == 12.0


def test_a_single_run_is_its_own_quartiles():
    bench = bench_record.summarize({"refined": [result("refined", 1, 2.0)]}, "ci")
    metric = bench["workloads"]["refined"]["metrics"]["setup_s"]
    assert (metric["q1"], metric["median"], metric["q3"]) == (6.0, 6.0, 6.0)


def test_a_result_missing_a_metric_is_refused():
    short = result("wide", 2, 1.0)
    del short["result"]["metrics"]["ok_frac"]
    with pytest.raises(KeyError):
        bench_record.summarize({"wide": [result("wide", 1, 1.0), short]}, "x")


def test_pairs_won_follow_each_metric_direction():
    before = bench_record.summarize({"c7": [result("c7", s, 1.0) for s in (1, 2, 3)]}, "a")
    after = bench_record.summarize(
        {"c7": [result("c7", 1, 0.5), result("c7", 2, 0.5), result("c7", 3, 2.0)]}, "b"
    )
    lines = bench_record.compare(before, after, {"verify_ref_s": "lower", "ok_frac": "higher"})
    verify = next(line for line in lines if "verify_ref_s" in line)
    ok = next(line for line in lines if "ok_frac" in line)
    assert "wins 2/3" in verify and "-50.0%" in verify
    assert "wins 1/3" in ok


def runs(workload, scales):
    """The BENCH record of one root whose seed s run has every metric
    ``scales[s]`` times its index + 1."""
    return bench_record.summarize(
        {workload: [result(workload, s, scale) for s, scale in enumerate(scales)]}, "x"
    )


def row(lines, name):
    return next(line for line in lines if f" {name} " in line)


def test_a_claim_needs_nine_of_ten_pairs_and_a_gap_past_the_iqr():
    before = runs("wide", [1.0, 1.1, 1.0, 1.1, 1.0, 1.1, 1.0, 1.1, 1.0, 1.1])
    better = {"verify_ref_s": "lower", "ok_frac": "higher"}
    # 10/10 pairs and a median gap of 0.2 against an IQR of 0.1: a claim
    lines = bench_record.compare(before, runs("wide", [0.85] * 10), better)
    assert row(lines, "verify_ref_s").endswith("wins 10/10 before-IQR 0.1 claim")
    # 9/10 pairs still claim; 8/10 do not
    nine = runs("wide", [0.85] * 9 + [1.2])
    assert row(bench_record.compare(before, nine, better), "verify_ref_s").endswith(" claim")
    eight = runs("wide", [0.85] * 8 + [1.2, 1.2])
    assert not row(bench_record.compare(before, eight, better), "verify_ref_s").endswith("claim")
    # every pair won, but by less than the IQR: no claim
    close = runs("wide", [0.99, 1.09] * 5)
    line = row(bench_record.compare(before, close, better), "verify_ref_s")
    assert "wins 10/10" in line and not line.endswith("claim")
    # a higher-is-better metric claims on the other side
    assert row(bench_record.compare(runs("wide", [0.85] * 10), before, better), "ok_frac").endswith(
        " claim"
    )


def test_a_change_worse_than_its_bound_is_marked():
    before = runs("c7", [1.0] * 4)
    better = {"verify_ref_s": "lower", "ok_frac": "higher"}
    bounds = {"verify_ref_s": 0.2, "ok_frac": 0.05}
    # 25% slower against a 20% bound; within it at 15%
    lines = bench_record.compare(before, runs("c7", [1.25] * 4), better, bounds)
    assert row(lines, "verify_ref_s").endswith(" OVER BOUND")
    assert not row(lines, "setup_s").endswith("BOUND")  # no bound given
    lines = bench_record.compare(before, runs("c7", [1.15] * 4), better, bounds)
    assert not row(lines, "verify_ref_s").endswith("BOUND")
    # a higher-is-better share 10% lower against a 5% bound
    lines = bench_record.compare(before, runs("c7", [0.9] * 4), better, bounds)
    assert row(lines, "ok_frac").endswith(" OVER BOUND")
    assert row(lines, "verify_ref_s").endswith(" claim")


FAKE_RUN = """
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
root = Path.cwd()
out = root / ".perfbench"
out.mkdir(exist_ok=True)
scale = float((root / "scale").read_text())
metrics = {name: {"value": scale, "unit": "s"} for name in %r}
correct = not (root / "failing").exists()
record = {"args": {"workload": args["--workload"], "seed": int(args["--seed"]),
                   "seconds": float(args["--seconds"]), "trace": 0},
          "env": {"root": root.name},
          "result": {"correct": correct, "attempted": 3, "failed": 0 if correct else 1,
                     "metrics": metrics}}
(out / f"result-{args['--workload']}-seed{args['--seed']}-trace0.json").write_text(json.dumps(record))
"""


def fake_roots(tmp_path):
    """Stand-in checkouts a (scale 2) and b (scale 1) whose perfbench/run.py
    writes a result file, and a's BENCHMARK.json."""
    for name, scale in (("a", 2.0), ("b", 1.0)):
        root = tmp_path / name
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text(FAKE_RUN % list(METRICS))
        (root / "scale").write_text(str(scale))
    (tmp_path / "a" / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [{"name": name, "better": "lower"} for name in METRICS]})
    )


def test_two_roots_alternate_seed_by_seed(tmp_path, capsys):
    # runs go root by root in reversed order on every other seed, and each
    # root gets its own BENCH file
    fake_roots(tmp_path)
    argv = [str(tmp_path / "a"), str(tmp_path / "b"), "--labels", "before", "after",
            "--seeds", "7", "8", "--workloads", "refined", "--seconds", "1", "--out",
            str(tmp_path / "out")]
    assert bench_record.main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in printed[:4]] == ["before", "after", "after", "before"]
    before, after = (json.loads((tmp_path / "out" / f"BENCH_{label}.json").read_text())
                     for label in ("before", "after"))
    assert (before["env"], after["env"]) == ({"root": "a"}, {"root": "b"})
    assert before["workloads"]["refined"]["seeds"] == [7, 8]
    assert after["workloads"]["refined"]["metrics"]["op_ref_s"]["values"] == [1.0, 1.0]
    assert any("verify_ref_s" in line and "wins 2/2" in line for line in printed)


def test_roots_and_labels_must_pair(tmp_path):
    with pytest.raises(SystemExit):
        bench_record.main([str(tmp_path), "--labels", "a", "b", "--seeds", "1", "1"])


def test_a_result_with_failed_operations_fails_the_record(tmp_path, capsys):
    # root b's runs report a failed operation: the files are written and
    # compared, and the exit status is 1, naming each such run
    fake_roots(tmp_path)
    (tmp_path / "b" / "failing").write_text("")
    argv = [str(tmp_path / "a"), str(tmp_path / "b"), "--labels", "before", "after",
            "--seeds", "1", "2", "--workloads", "c7", "--seconds", "1", "--out",
            str(tmp_path / "out")]
    assert bench_record.main(argv) == 1
    captured = capsys.readouterr()
    assert (tmp_path / "out" / "BENCH_after.json").exists()
    assert captured.err.splitlines() == [
        f"bench_record: not correct: after c7 seed {seed}: 1 of 3 ops failed" for seed in (1, 2)
    ]
