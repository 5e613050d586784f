"""Self-contained JSON certificates for the counterexample pairs.

A certificate pins the parameters, the host graph by hash and counts, the
wide coloring, every function table of H, the H edge list, and the solver
verdicts with their budgets.  ``check_certificate`` re-derives everything
that is checkable without a search: the construction is rebuilt once from
the parameters, its host hashed and compared, the wide coloring is re-tested,
one collision matrix is computed from the embedded tables and every loop and
stored H edge is re-derived from it (which subsumes the product coloring),
and the edge list is compared against the canonical build.
Search verdicts stay what they are, trusted together with their recorded
budgets.  ``collision_matrix`` is the same kernel the build uses, so the
check trusts it too; the tests hold it to ``oracles.collision_free`` on
small graphs and to the one-pair scan ``exp_adjacent`` on the refined
certificate's loops and stored edges.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .counterexample import (
    EXPECTED_COUNTS,
    PASS,
    CounterexampleParams,
    FunctionVertex,
    Report,
    build_counterexample,
    collision_matrix,
)
from .widecolor import WideColoring, check_wide

CERTIFICATE_VERSION = "1"


def emit_certificate(report: Report) -> dict:
    """Package a PASS report as a plain JSON-ready dictionary."""
    if report.status != PASS:
        raise ValueError(f"only PASS reports are certifiable, got {report.status}")
    if report.build is None:
        raise ValueError("report carries no build to certify")
    build = report.build
    params = report.params
    chi_h = report.item("chi_h")
    product = report.item("product_coloring")
    chi_g = report.item("chi_g")
    gamma = build.gamma
    return {
        "version": CERTIFICATE_VERSION,
        "params": {
            "variant": params.variant,
            "k": params.k,
            "c": params.c,
            "n": params.n,
            "d": params.d,
            "reading": params.reading,
        },
        "g_hash": build.g_hash,
        "g_counts": {"vertices": build.g.n, "edges": build.g.edge_count},
        "gamma": {
            "graph_sha256": gamma.graph_sha,
            "n": gamma.n,
            "k": gamma.k,
            "d": gamma.d,
            "pairs": gamma.pair_array.tolist(),
        },
        "h": [{"label": v.label, "table": v.table.tolist()} for v in build.vertices],
        "h_edges": sorted([min(e), max(e)] for e in build.h.edges()),
        "verdicts": {
            "chi_h": {"status": "none", "colors": params.c, "nodes": chi_h.detail["nodes"]},
            "product": {"ok": True, "ordered_checks": product.detail["ordered_checks"]},
            "chi_g": {
                "colors": params.c,
                "status": chi_g.detail["status"],
                "nodes": chi_g.detail["nodes"],
                **(
                    {"attribution": chi_g.detail["attribution"]}
                    if "attribution" in chi_g.detail
                    else {}
                ),
            },
        },
        "budgets": report.budgets,
    }


def certificate_to_json(cert: dict) -> str:
    """Compact JSON text of a certificate, keys sorted.

    No indentation: ``indent`` would force the standard library's pure-Python
    encoder and put every table entry on a line of its own.  Whitespace is
    not part of the format, so ``certificate_from_json`` reads indented
    certificates too.
    """
    return json.dumps(cert, sort_keys=True, separators=(",", ":"))


def certificate_from_json(text: str) -> dict:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("certificate must be a JSON object")
    return doc


@dataclass
class CertificateCheck:
    ok: bool
    failures: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def check_certificate(cert: dict) -> CertificateCheck:
    """Re-verify every embedded witness of a certificate.

    Fails on: missing fields, unknown version, parameter violations, host
    hash or count mismatch, a wide coloring that is not wide, malformed or
    colliding function tables, a stored H edge the tables do not actually
    realize in the exponential graph (this subsumes the product coloring),
    a const edge out of step with a table's image, an edge list that is not
    the canonical skeleton, a looped table, or verdict fields that do not
    belong to a passing run.
    """
    failures: list[str] = []

    def need(ok: bool, message: str) -> bool:
        if not ok:
            failures.append(message)
        return ok

    required = ["version", "params", "g_hash", "g_counts", "gamma", "h", "h_edges", "verdicts"]
    if not need(all(key in cert for key in required), "missing required fields"):
        return CertificateCheck(False, failures)
    if not need(cert["version"] == CERTIFICATE_VERSION, "unsupported certificate version"):
        return CertificateCheck(False, failures)

    try:
        params = CounterexampleParams(**cert["params"])
        params.validate()
    except (TypeError, ValueError) as err:
        failures.append(f"bad parameters: {err}")
        return CertificateCheck(False, failures)
    expected = EXPECTED_COUNTS[params.variant]

    try:
        rebuilt = build_counterexample(params)
    except (RuntimeError, ValueError) as err:
        failures.append(f"canonical rebuild failed: {err}")
        return CertificateCheck(False, failures)
    g, g_hash = rebuilt.g, rebuilt.g_hash
    need(cert["g_hash"] == g_hash, "host graph hash mismatch")
    need(
        cert["g_counts"] == {"vertices": g.n, "edges": g.edge_count},
        "host graph counts mismatch",
    )

    try:
        gd = cert["gamma"]
        gamma = WideColoring(
            n=int(gd["n"]),
            k=int(gd["k"]),
            d=int(gd["d"]),
            pairs=tuple((int(a), int(b)) for a, b in gd["pairs"]),
            graph_sha=gd.get("graph_sha256"),
        )
        if need(gamma.graph_sha == g_hash, "wide coloring pinned to a different graph"):
            need(
                gamma.n == params.n and gamma.k == params.k and gamma.d == params.d,
                "wide coloring shape differs from the parameters",
            )
            need(check_wide(g, gamma, condition=2), "wide coloring fails its independence check")
    except (KeyError, TypeError, ValueError) as err:
        failures.append(f"bad wide coloring: {err}")

    vertices: list[FunctionVertex] = []
    try:
        for entry in cert["h"]:
            table = np.asarray(entry["table"], dtype=np.int8)
            if table.shape != (g.n,) or table.min() < 1 or table.max() > params.c:
                raise ValueError(f"table of {entry['label']!r} is not a function into [c]")
            vertices.append(FunctionVertex(entry["label"], ("cert",), table))
    except (KeyError, TypeError, ValueError) as err:
        failures.append(f"bad function table: {err}")
        return CertificateCheck(False, failures)

    need(len(vertices) == expected["h_vertices"], "unexpected number of H vertices")
    need(
        len({v.label for v in vertices}) == len(vertices),
        "duplicate H vertex labels",
    )
    need(
        len({v.table.tobytes() for v in vertices}) == len(vertices),
        "function tables are not pairwise distinct",
    )
    collisions = collision_matrix(g, vertices)
    for idx, v in enumerate(vertices):
        if not collisions[idx, idx]:
            failures.append(f"{v.label} is a proper coloring of the host (loop)")
            break

    try:
        stored = {(min(int(a), int(b)), max(int(a), int(b))) for a, b in cert["h_edges"]}
    except (TypeError, ValueError):
        stored = None
    if need(stored is not None, "malformed H edge list"):
        need(len(stored) == len(cert["h_edges"]), "duplicate H edges")
        if not need(
            all(0 <= a < len(vertices) and 0 <= b < len(vertices) and a != b for a, b in stored),
            "H edge endpoint out of range",
        ):
            return CertificateCheck(False, failures)
        if "h_edges" in expected:
            need(len(stored) == expected["h_edges"], "unexpected number of H edges")
        for a, b in sorted(stored):
            if collisions[a, b]:
                failures.append(
                    f"stored edge {vertices[a].label} ~ {vertices[b].label} "
                    "is not realized by the tables"
                )
                break
        # const edges are forced by table images alone, so they are checkable
        # without trusting the edge list: const(i) ~ w exactly when i misses
        # im(w).
        for idx in range(params.c, len(vertices)):
            image = vertices[idx].image
            for i in range(1, params.c + 1):
                has = (i - 1, idx) in stored
                if has != (i not in image):
                    failures.append(
                        f"const({i}) edge out of step with the image of {vertices[idx].label}"
                    )
                    break
            else:
                continue
            break
        canonical = {(min(e), max(e)) for e in rebuilt.h.edges()}
        if stored != canonical:
            extra = sorted(stored - canonical)[:3]
            missing = sorted(canonical - stored)[:3]
            failures.append(
                f"H edges are not the canonical skeleton (spurious {extra}, "
                f"missing {missing})"
            )
        need(
            [v.label for v in vertices] == rebuilt.labels,
            "H vertex labels differ from the canonical build",
        )

    verdicts = cert["verdicts"]
    need(
        isinstance(verdicts, dict) and {"chi_h", "product", "chi_g"} <= set(verdicts),
        "missing verdicts",
    )
    if not failures:
        need(verdicts["chi_h"].get("status") == "none", "chi_h verdict is not a refusal")
        need(verdicts["product"].get("ok") is True, "product verdict is not positive")
        need(
            verdicts["chi_g"].get("status") in ("machine_checked", "external_theorem"),
            "chi_g verdict has an unknown status",
        )

    return CertificateCheck(not failures, failures)
