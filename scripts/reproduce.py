#!/usr/bin/env python3
"""Rebuild and verify one counterexample variant, then drop the artifacts
(report, certificate, H as DIMACS and DOT, wide coloring) into a directory.

Every variant reaches PASS in under a second.  On a 2-vCPU x86 guest the
whole script takes about 0.35 s for c5_wide, the largest: its verify (the
54186-vertex host, the wideness check, and a chi(H) search that refuses a
5-coloring of the 165-vertex H in a few hundred nodes) takes about 17 ms,
and its certificate (the host hash and 165 table digests) about 36 ms; the
rest is start-up, imports and writing the artifacts.  A certificate pins
every function table by its SHA-256 digest; c5_wide's is about 23 KB of JSON.
``--budget-nodes`` caps the chi(H) search.  Exit codes follow ``hedcex``:
0 PASS, 1 FAILED, 2 usage error, 3 INCOMPLETE (the search hit its cap, and
no certificate is written).

    PYTHONPATH=src python scripts/reproduce.py --variant c7 --out artifacts
"""

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from hedcex.certificate import certificate_to_json, emit_certificate
from hedcex.cli import EXIT_EXHAUSTED, EXIT_FAILED, EXIT_OK
from hedcex.counterexample import FAILED, PASS, VARIANTS, params_for, verify_counterexample
from hedcex.graphs import emit_dimacs, emit_dot
from hedcex.solver import DEFAULT_BUDGET, SearchBudget


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--variant", choices=sorted(VARIANTS), required=True)
    ap.add_argument("--out", type=Path, default=Path("artifacts"))
    ap.add_argument("--budget-nodes", type=int, default=DEFAULT_BUDGET.node_limit)
    args = ap.parse_args()
    if args.budget_nodes < 1:
        ap.error(f"--budget-nodes must be at least 1, got {args.budget_nodes}")

    variant = args.variant
    params = params_for(variant)
    t0 = time.perf_counter()
    report = verify_counterexample(params, SearchBudget(node_limit=args.budget_nodes))
    elapsed = time.perf_counter() - t0

    for item in report.items:
        print(item.line())
    print(f"verify {variant}: {report.status} ({elapsed:.1f}s)")

    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / f"{variant}.report.json").write_text(
        json.dumps(report.to_dict(), indent=1, sort_keys=True)
    )
    if report.build is not None:
        build = report.build
        (args.out / f"{variant}.H.col").write_text(
            emit_dimacs(build.h, comment=f"H for {variant}")
        )
        (args.out / f"{variant}.H.dot").write_text(emit_dot(build.h, build.labels))
        gamma = replace(build.gamma, graph_sha=build.g_hash)
        (args.out / f"{variant}.gamma.json").write_text(gamma.to_json())
    if report.status == PASS:
        cert = emit_certificate(report)
        (args.out / f"{variant}.cert.json").write_text(certificate_to_json(cert))
        print(f"artifacts in {args.out}/")
        return EXIT_OK
    return EXIT_FAILED if report.status == FAILED else EXIT_EXHAUSTED


if __name__ == "__main__":
    sys.exit(main())
