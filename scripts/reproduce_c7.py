#!/usr/bin/env python3
"""Rebuild and verify the 7-coloring counterexample over the 16472-vertex
host, then drop the artifacts into a directory.  Expect a few seconds.
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
    ap.add_argument("--out", type=Path, default=Path("artifacts"))
    ap.add_argument("--budget-nodes", type=int, default=100_000_000)
    args = ap.parse_args()

    params = params_for("c7")
    budget = SearchBudget(node_limit=args.budget_nodes)
    t0 = time.time()
    report = verify_counterexample(params, budget)
    elapsed = time.time() - t0

    for item in report.items:
        print(item.line())
    print(f"verify c7: {report.status} ({elapsed:.1f}s)")

    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "c7.report.json").write_text(
        json.dumps(report.to_dict(), indent=1, sort_keys=True)
    )
    if report.build is not None:
        build = report.build
        (args.out / "c7.H.col").write_text(emit_dimacs(build.h, comment="H for c7"))
        (args.out / "c7.H.dot").write_text(emit_dot(build.h, build.labels))
        (args.out / "c7.gamma.json").write_text(build.gamma.to_json())
    if report.status == "PASS":
        cert = emit_certificate(report)
        (args.out / "c7.cert.json").write_text(certificate_to_json(cert))
        print(f"artifacts in {args.out}/")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
