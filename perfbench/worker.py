"""One benchmark operation, run by ``run.py`` in a fresh interpreter.

A CLI user pays interpreter start, ``import hedcex`` and every build on every
call, so each operation gets its own process.  Three modes:

    python3 perfbench/worker.py setup [--cpus N,...]
        time ``import hedcex`` and print {"import_s": ..., "import_window": ...}
    python3 perfbench/worker.py op WORKLOAD OP_ID [--spans FILE] [--cpus N,...]
        run one operation of WORKLOAD, grade it against the golden pins and
        print its record as one JSON line; with --spans, trace it and write
        the spans to FILE as JSON lines
    python3 perfbench/worker.py sample --cpus N
        time ``reference_loop`` every 20 ms until SIGTERM, then print the
        samples as [[start, seconds], ...]

``src`` must be on ``PYTHONPATH`` for the first two.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

# The chi(H) node cap of the wide workload.  The default cap of 100M nodes
# takes over 500 s and ends at the same INCOMPLETE verdict.
WIDE_CHI_H_NODES = 200_000


@dataclass(frozen=True)
class Workload:
    variant: str
    threads: int
    certify: bool
    chi_h_nodes: int | None = None  # None keeps the default search budget


WORKLOADS = {
    "refined": Workload("c5_refined", threads=1, certify=True),
    "c7": Workload("c7", threads=2, certify=True),
    "wide": Workload("c5_wide", threads=1, certify=False, chi_h_nodes=WIDE_CHI_H_NODES),
}

# Golden values measured on the seed implementation.  The host hashes must
# survive any change of graph representation, since certificates pin them.
PINS = {
    "c5_refined": {
        "counts": {"g_vertices": 4686, "g_edges": 36015, "h_vertices": 30, "h_edges": 108},
        "g_sha256": "d3965243aff8c5692659b570f51e6c2f169d2ffddd660c7dead5b52ec84fc60b",
    },
    "c7": {
        "counts": {"g_vertices": 16472, "g_edges": 437500, "h_vertices": 32, "h_edges": 168},
        "g_sha256": "aa35fa2974489b519a6608b39a6fae5868694e6bd71e61a982e996dd132a1701",
    },
    "c5_wide": {
        "counts": {"g_vertices": 54186, "g_edges": 428415, "h_vertices": 165, "h_edges": 648},
        "g_sha256": "957d172cca1db53129f5145f564d155fb10b7cbb1b8daee99597ee37cf19d905",
    },
}

COUNT_KEYS = ("g_vertices", "g_edges", "h_vertices", "h_edges")

SAMPLE_EVERY_S = 0.02


def reference_loop() -> float:
    """Seconds this CPU takes for a fixed piece of pure-Python work."""
    start = time.perf_counter()
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    return time.perf_counter() - start


def _sample() -> list[tuple[float, float]]:
    stopping = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stopping.append(signum))
    samples = []
    while not stopping:
        time.sleep(SAMPLE_EVERY_S)
        samples.append((time.perf_counter(), reference_loop()))
    return samples


def run_operation(work: Workload, cex, certmod) -> dict:
    """Verify, then (when the workload certifies and the verdict is PASS)
    emit, serialize, parse and check the certificate.

    ``cex`` and ``certmod`` are the counterexample and certificate modules,
    called through their attributes so a tracer's rebinding takes effect.
    """
    params = cex.params_for(work.variant)
    budget = cex.DEFAULT_BUDGET
    if work.chi_h_nodes is not None:
        budget = replace(budget, node_limit=work.chi_h_nodes)

    start = time.perf_counter()
    report = cex.verify_counterexample(params, budget, threads=work.threads)
    text = None
    if work.certify and report.status == cex.PASS:
        text = certmod.certificate_to_json(certmod.emit_certificate(report))
    end = time.perf_counter()
    out = {"verify_s": end - start, "verify_window": [start, end], "status": report.status}

    items = {it.name: it for it in report.items}
    if "counts" in items:
        out["counts"] = {key: items["counts"].detail[key] for key in COUNT_KEYS}
    if report.build is not None:
        out["g_sha256"] = report.build.g_hash
    for name in ("chi_h", "chi_g"):
        if name in items:
            out[f"{name}_nodes"] = items[name].detail.get("nodes")
    out["claims"] = len(report.items)
    out["claims_decided"] = sum(it.ok is not None for it in report.items)

    if text is not None:
        start = time.perf_counter()
        check = certmod.check_certificate(certmod.certificate_from_json(text))
        out["cert_check_s"] = time.perf_counter() - start
        out["cert_ok"] = bool(check.ok)
        out["cert_failures"] = list(check.failures)[:3]
    return out


def grade(work: Workload, out: dict) -> list[str]:
    """Golden checks on one operation; an empty list means it passed.

    FAILED is a failure; INCOMPLETE is not (it counts as undecided), but a
    workload that certifies must have its certificate accepted on PASS.
    """
    pin = PINS[work.variant]
    failures = []
    status = out.get("status")
    if status not in ("PASS", "INCOMPLETE"):
        failures.append(f"verdict {status}")
    if out.get("counts") != pin["counts"]:
        failures.append(f"counts {out.get('counts')} != pinned {pin['counts']}")
    if out.get("g_sha256") != pin["g_sha256"]:
        failures.append(f"host sha256 {out.get('g_sha256')} != pinned {pin['g_sha256']}")
    if work.certify and status == "PASS" and not out.get("cert_ok"):
        failures.append(f"certificate rejected: {out.get('cert_failures')}")
    return failures


def _setup() -> dict:
    start = time.perf_counter()
    import hedcex  # noqa: F401

    end = time.perf_counter()
    return {"import_s": end - start, "import_window": [start, end]}


def _operation(workload: str, op_id: str, spans_path: str | None) -> dict:
    start = time.perf_counter()
    import hedcex
    from hedcex import certificate as certmod
    from hedcex import counterexample as cex

    record = {"op": op_id, "import_s": time.perf_counter() - start, "traced": bool(spans_path)}

    import tracer

    src = Path(__file__).resolve().parent.parent / "src"
    failures = []
    if Path(hedcex.__file__).resolve().parent.parent != src:
        failures.append(f"imported hedcex from {hedcex.__file__}, not {src}")
    leftover = tracer.wrapped_names()
    if leftover:
        failures.append(f"wrappers bound before the operation: {leftover}")

    work = WORKLOADS[workload]
    tracing = tracer.Tracer(op_id) if spans_path else None
    try:
        if tracing is None:
            out = run_operation(work, cex, certmod)
        else:
            with tracing.traced():
                out = run_operation(work, cex, certmod)
        record.update(out)
        failures += grade(work, out)
    except Exception:  # a crash is a failed operation, reported with its traceback
        failures.append("crash: " + traceback.format_exc(limit=4))
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracing is not None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            for span in tracing.spans:
                fh.write(json.dumps(span) + "\n")
        if "counts" in record:
            layers = tracer.layer_metrics(tracing.spans, record["counts"])
            layers["trace.overhead_s"] = len(tracing.spans) * tracer.wrapper_cost()
            record["layers"] = layers
    record["failures"] = failures
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    setup = sub.add_parser("setup")
    op = sub.add_parser("op")
    op.add_argument("workload", choices=sorted(WORKLOADS))
    op.add_argument("op_id")
    op.add_argument("--spans")
    sample = sub.add_parser("sample")
    for p in (setup, op, sample):
        p.add_argument("--cpus", type=lambda text: {int(c) for c in text.split(",")})
    args = parser.parse_args(argv)
    if getattr(args, "cpus", None):
        os.sched_setaffinity(0, args.cpus)
    if args.mode == "setup":
        record = _setup()
    elif args.mode == "sample":
        record = _sample()
    else:
        record = _operation(args.workload, args.op_id, args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
