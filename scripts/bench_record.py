#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics of one or two checkouts.

    python scripts/bench_record.py ROOT [ROOT] --labels A [B] --seeds 2001 2010
        [--workloads refined c7 wide] [--seconds 10] [--out DIR]

For each seed of the inclusive range and each workload, this runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` in every
checkout root, one at a time, with the roots' order reversed on every other
seed, so two roots alternate run by run under the same machine drift.  Each
run leaves ``.perfbench/result-<W>-seed<S>-trace0.json`` in its root; from
those files the script writes ``BENCH_<label>.json`` per root into
``--out`` (default: the current directory).  It holds, per workload, the
median and quartiles of every end-to-end metric the result files carry,
the per-seed values, and the environment block of the first run.  With two
roots it also prints, per workload and metric, both medians and the pairs
the second root wins, and marks the row with the rules of a gain and of a
regression read from the first root's ``BENCHMARK.json``:

* ``claim``: the second root wins at least 9 of every 10 pairs, and its
  median is better than the first's by more than the first's interquartile
  range;
* ``OVER BOUND``: its median is worse than the first's by more than the
  metric's ``bound``, relative to the first's median.

Exit status 1 when a run fails, a result says ``correct: false`` (an
operation failed; the files are still written) or a metric is missing
from a result.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("refined", "c7", "wide")


def result_path(root: Path, workload: str, seed: int) -> Path:
    return root / ".perfbench" / f"result-{workload}-seed{seed}-trace0.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method; all three
    are the value itself for a single run."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(results: dict[str, list[dict]], label: str) -> dict:
    """The BENCH record of one root from its perfbench result records, listed
    per workload in seed order: per metric its unit, median, quartiles, the
    interquartile range over the median, and the values.  KeyError when a
    record lacks a metric that the workload's first record has."""
    first = next(records[0] for records in results.values() if records)
    bench = {"label": label, "env": first["env"], "workloads": {}}
    for workload, records in results.items():
        names = records[0]["result"]["metrics"]
        metrics = {}
        for name, spec in names.items():
            values = [r["result"]["metrics"][name]["value"] for r in records]
            q1, median, q3 = quartiles(values)
            metrics[name] = {
                "unit": spec["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else None,
                "values": values,
            }
        bench["workloads"][workload] = {
            "seeds": [r["args"]["seed"] for r in records],
            "seconds": records[0]["args"]["seconds"],
            "metrics": metrics,
        }
    return bench


def compare(
    before: dict, after: dict, better: dict[str, str], bounds: dict[str, float] | None = None
) -> list[str]:
    """One line per workload and metric: both medians, the change, the pairs
    (same seed) where ``after`` is strictly better, and the IQR of
    ``before``; then ``claim`` when ``after`` wins at least 9 of every 10
    pairs and its median gain exceeds that IQR, or ``OVER BOUND`` when its
    median is worse by more than the metric's entry in ``bounds``, a share
    of the ``before`` median (any worsening of a zero median)."""
    lines = []
    for workload, base in before["workloads"].items():
        for name, old in base["metrics"].items():
            new = after["workloads"][workload]["metrics"][name]
            sign = -1 if better.get(name, "lower") == "lower" else 1
            wins = sum(sign * (b - a) > 0 for a, b in zip(old["values"], new["values"]))
            pairs, iqr = len(old["values"]), old["q3"] - old["q1"]
            gain = sign * (new["median"] - old["median"])
            change = (new["median"] - old["median"]) / old["median"] if old["median"] else 0.0
            mark = ""
            if 10 * wins >= 9 * pairs and gain > iqr:
                mark = " claim"
            bound = (bounds or {}).get(name)
            if bound is not None and -gain > bound * abs(old["median"]):
                mark = " OVER BOUND"
            lines.append(
                f"{workload:8} {name:20} {old['median']:.6g} -> {new['median']:.6g} "
                f"({change:+.1%}) wins {wins}/{pairs} before-IQR {iqr:.4g}{mark}"
            )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("roots", nargs="+", type=Path, help="one or two checkout roots")
    parser.add_argument("--labels", nargs="+", required=True, help="one label per root")
    parser.add_argument("--seeds", nargs=2, type=int, required=True, metavar=("FIRST", "LAST"))
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    if not 1 <= len(args.roots) <= 2 or len(args.labels) != len(args.roots):
        parser.error("give one or two roots and one label per root")

    roots = [root.resolve() for root in args.roots]
    results: list[dict[str, list[dict]]] = [{w: [] for w in args.workloads} for _ in roots]
    incorrect = []
    for number, seed in enumerate(range(args.seeds[0], args.seeds[1] + 1)):
        for workload in args.workloads:
            order = list(enumerate(roots))
            for i, root in order[::-1] if number % 2 else order:
                command = [sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", f"{args.seconds:g}", "--trace", "0"]
                print(f"{args.labels[i]}: {' '.join(command[1:])}", flush=True)
                done = subprocess.run(command, cwd=root, stdout=subprocess.DEVNULL)
                if done.returncode:
                    print(f"bench_record: run failed with status {done.returncode}", file=sys.stderr)
                    return 1
                with open(result_path(root, workload, seed), encoding="utf-8") as fh:
                    record = json.load(fh)
                results[i][workload].append(record)
                result = record["result"]
                if result.get("correct") is False:
                    incorrect.append(
                        f"{args.labels[i]} {workload} seed {seed}: "
                        f"{result.get('failed')} of {result.get('attempted')} ops failed"
                    )

    try:
        benches = [summarize(r, label) for r, label in zip(results, args.labels)]
    except KeyError as missing:
        print(f"bench_record: a result has no metric {missing}", file=sys.stderr)
        return 1
    args.out.mkdir(parents=True, exist_ok=True)
    for bench in benches:
        path = args.out / f"BENCH_{bench['label']}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(bench, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    if len(benches) == 2:
        with open(roots[0] / "BENCHMARK.json", encoding="utf-8") as fh:
            specs = json.load(fh)["end_to_end"]
        better = {m["name"]: m["better"] for m in specs}
        bounds = {m["name"]: m["bound"] for m in specs if "bound" in m}
        print("\n".join(compare(*benches, better, bounds)))
    for line in incorrect:
        print(f"bench_record: not correct: {line}", file=sys.stderr)
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
