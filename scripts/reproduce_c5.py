#!/usr/bin/env python3
"""Rebuild and verify the 5-coloring counterexample, then drop the artifacts
(report, certificate, H as DIMACS and DOT, wide coloring) into a directory.

Both variants reach PASS in a few seconds: the 6-wide one spends most of
its time building the 54186-vertex host, and its chi(H) search refuses a
5-coloring of the 165-vertex H in a few hundred nodes.  Its certificate
pins every function table by its SHA-256 digest and is about 23 KB of JSON.
``--budget-nodes`` caps the chi(H) search; a run that hits the cap ends
INCOMPLETE (exit 1).
"""

import argparse
import json
import sys
import time
from pathlib import Path

from hedcex.certificate import certificate_to_json, emit_certificate
from hedcex.counterexample import params_for, verify_counterexample
from hedcex.graphs import emit_dimacs, emit_dot
from hedcex.solver import SearchBudget


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--variant", choices=("c5_refined", "c5_wide"), default="c5_refined")
    ap.add_argument("--reading", choices=("q", "literal"), default="q")
    ap.add_argument("--out", type=Path, default=Path("artifacts"))
    ap.add_argument("--budget-nodes", type=int, default=100_000_000)
    args = ap.parse_args()

    params = params_for(args.variant, reading=args.reading)
    budget = SearchBudget(node_limit=args.budget_nodes)
    t0 = time.time()
    report = verify_counterexample(params, budget)
    elapsed = time.time() - t0

    for item in report.items:
        print(item.line())
    print(f"verify {args.variant}: {report.status} ({elapsed:.1f}s)")

    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / f"{args.variant}.report.json").write_text(
        json.dumps(report.to_dict(), indent=1, sort_keys=True)
    )
    if report.build is not None:
        build = report.build
        (args.out / f"{args.variant}.H.col").write_text(
            emit_dimacs(build.h, comment=f"H for {args.variant}")
        )
        (args.out / f"{args.variant}.H.dot").write_text(emit_dot(build.h, build.labels))
        (args.out / f"{args.variant}.gamma.json").write_text(build.gamma.to_json())
    if report.status == "PASS":
        cert = emit_certificate(report)
        (args.out / f"{args.variant}.cert.json").write_text(certificate_to_json(cert))
        print(f"artifacts in {args.out}/")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
