"""Self-contained JSON certificates for the counterexample pairs.

A certificate pins the parameters, the host graph by hash and counts, the
wide coloring and every function table of H by digest, the H edge list, the
verdicts, and the node budget of the chi(H) search.  A digest is the SHA-256
of the values as int8 bytes in vertex order: a function table's values for
an H vertex, the wide coloring's pairs taken row-major (a, b of vertex 0,
then of vertex 1, ...) for gamma.

``check_certificate`` rebuilds the construction from the parameters, once.
The build raises on the first failed check of the pinned counts, wideness,
pairwise distinct tables, no loops, and every H edge being an edge of the
exponential graph (which is the product coloring).  The checker then
compares the certificate with that rebuild: host hash and counts, the wide
coloring's shape, host pin and digest, the H labels, each table digest, and
the edge list against the canonical skeleton.  Both chromatic verdicts
must be about c colors, and the product verdict must count the rebuild's
2|E(H)||E(G)| ordered checks.  The chi(H) verdict is trusted together with
its recorded node count, which must be a positive integer.  The chi(G)
verdict is attributed to a published identity, and no other status is
accepted.  A certificate of any other version is refused, with a message
naming its version.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .counterexample import (
    EXPECTED_COUNTS,
    PASS,
    BuildResult,
    CounterexampleParams,
    Report,
    build_counterexample,
)

CERTIFICATE_VERSION = "2"


def _sha256(values: np.ndarray) -> str:
    """SHA-256 of ``values`` as int8 bytes, row-major."""
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.int8).tobytes()).hexdigest()


def _pinned(build: BuildResult) -> dict:
    """The certificate fields a build determines: host, gamma, H."""
    gamma = build.gamma
    return {
        "g_hash": build.g_hash,
        "g_counts": {"vertices": build.g.n, "edges": build.g.edge_count},
        "gamma": {
            "graph_sha256": gamma.graph_sha,
            "n": gamma.n,
            "k": gamma.k,
            "d": gamma.d,
            "pairs_sha256": _sha256(gamma.pairs),
        },
        "h": [{"label": v.label, "sha256": _sha256(v.table)} for v in build.vertices],
        "h_edges": sorted([min(e), max(e)] for e in build.h.edges()),
    }


def emit_certificate(report: Report) -> dict:
    """Package a PASS report as a plain JSON-ready dictionary."""
    if report.status != PASS:
        raise ValueError(f"only PASS reports are certifiable, got {report.status}")
    if report.build is None:
        raise ValueError("report carries no build to certify")
    params = report.params
    chi_h = report.item("chi_h")
    product = report.item("product_coloring")
    chi_g = report.item("chi_g")
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
        **_pinned(report.build),
        "verdicts": {
            "chi_h": {"status": "none", "colors": params.c, "nodes": chi_h.detail["nodes"]},
            "product": {"ok": True, "ordered_checks": product.detail["ordered_checks"]},
            "chi_g": {key: chi_g.detail[key] for key in ("colors", "status", "attribution")},
        },
        "budgets": report.budgets,
    }


def certificate_to_json(cert: dict) -> str:
    """Compact JSON text of a certificate, keys sorted.

    Whitespace is not part of the format, so ``certificate_from_json`` reads
    indented certificates too.
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
    """Check a certificate against the canonical build of its parameters.

    Fails on: missing fields, a version other than ``CERTIFICATE_VERSION``,
    parameter violations, verdict fields that do not belong to a passing
    run of these parameters, a malformed, duplicated, out-of-range or
    miscounted edge list, a rebuild that fails its own checks, and any
    difference from the rebuild in the host hash or counts, the wide
    coloring, the H labels, a table digest or the edge list.
    """
    failures: list[str] = []

    def need(ok: bool, message: str) -> bool:
        if not ok:
            failures.append(message)
        return ok

    required = ["version", "params", "g_hash", "g_counts", "gamma", "h", "h_edges", "verdicts"]
    if not need(all(key in cert for key in required), "missing required fields"):
        return CertificateCheck(False, failures)
    if not need(
        cert["version"] == CERTIFICATE_VERSION,
        f"unsupported certificate version {cert['version']!r}; "
        f"this checker reads version {CERTIFICATE_VERSION!r}",
    ):
        return CertificateCheck(False, failures)

    try:
        params = CounterexampleParams(**cert["params"])
        params.validate()
    except (TypeError, ValueError) as err:
        failures.append(f"bad parameters: {err}")
        return CertificateCheck(False, failures)
    expected = EXPECTED_COUNTS[params.variant]

    verdicts = cert["verdicts"]
    names = ("chi_h", "product", "chi_g")
    product = None
    if not (isinstance(verdicts, dict) and set(names) <= set(verdicts)):
        failures.append("missing verdicts")
    else:
        loose = [name for name in names if not isinstance(verdicts[name], dict)]
        if need(not loose, f"verdict is not a JSON object: {', '.join(loose)}"):
            chi_h, product, chi_g = (verdicts[name] for name in names)
            need(chi_h.get("status") == "none", "chi_h verdict is not a refusal")
            for name, colors in (("chi_h", chi_h.get("colors")), ("chi_g", chi_g.get("colors"))):
                need(
                    type(colors) is int and colors == params.c,
                    f"{name} verdict colors {colors!r} is not c = {params.c}",
                )
            nodes = chi_h.get("nodes")
            need(
                type(nodes) is int and nodes > 0,
                f"chi_h verdict nodes {nodes!r} is not a positive integer",
            )
            need(product.get("ok") is True, "product verdict is not positive")
            need(
                chi_g.get("status") == "external_theorem",
                "chi_g verdict has an unknown status",
            )

    h_edges = cert["h_edges"]
    stored = None
    if isinstance(h_edges, list) and all(
        type(e) is list and len(e) == 2 and type(e[0]) is type(e[1]) is int for e in h_edges
    ):
        stored = {(min(e), max(e)) for e in h_edges}
    m = expected["h_vertices"]
    edges_ok = need(stored is not None, "malformed H edge list") and need(
        all(0 <= a < m and 0 <= b < m and a != b for a, b in stored),
        "H edge endpoint out of range",
    )
    if edges_ok:
        need(len(stored) == len(cert["h_edges"]), "duplicate H edges")
        if "h_edges" in expected:
            need(len(stored) == expected["h_edges"], "unexpected number of H edges")

    try:
        rebuilt = build_counterexample(params)
    except (RuntimeError, ValueError) as err:
        failures.append(f"canonical rebuild failed: {err}")
        return CertificateCheck(False, failures)
    canon = _pinned(rebuilt)
    if product is not None:
        checks = 2 * rebuilt.h.edge_count * rebuilt.g.edge_count
        ordered = product.get("ordered_checks")
        need(
            type(ordered) is int and ordered == checks,
            f"product verdict ordered_checks {ordered!r} is not 2|E(H)||E(G)| = {checks}",
        )
    need(cert["g_hash"] == canon["g_hash"], "host graph hash mismatch")
    counts = cert["g_counts"]
    need(
        counts == canon["g_counts"] and all(type(v) is int for v in counts.values()),
        "host graph counts mismatch",
    )

    gamma, want = cert["gamma"], canon["gamma"]
    if need(
        isinstance(gamma, dict) and set(want) <= set(gamma),
        "bad wide coloring: fields missing",
    ):
        need(
            all(type(gamma[key]) is int and gamma[key] == want[key] for key in ("n", "k", "d")),
            "wide coloring shape differs from the parameters",
        )
        need(
            gamma["graph_sha256"] == want["graph_sha256"],
            "wide coloring pinned to a different graph",
        )
        need(
            gamma["pairs_sha256"] == want["pairs_sha256"],
            "wide coloring differs from the canonical zero-position coloring",
        )

    try:
        labels = [entry["label"] for entry in cert["h"]]
        digests = [entry["sha256"] for entry in cert["h"]]
    except (KeyError, TypeError) as err:
        failures.append(f"malformed H vertex list: {err!r}")
    else:
        if need(len(labels) == m, "unexpected number of H vertices"):
            need(labels == rebuilt.labels, "H vertex labels differ from the canonical build")
            bad = next(
                (entry["label"] for entry, got in zip(canon["h"], digests) if got != entry["sha256"]),
                None,
            )
            need(bad is None, f"function table of {bad} differs from the canonical build")

    if edges_ok:
        canonical = {tuple(e) for e in canon["h_edges"]}
        if stored != canonical:
            extra = sorted(stored - canonical)[:3]
            missing = sorted(canonical - stored)[:3]
            failures.append(
                f"H edges are not the canonical skeleton (spurious {extra}, "
                f"missing {missing})"
            )

    return CertificateCheck(not failures, failures)
