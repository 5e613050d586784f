"""Self-contained JSON certificates for the counterexample pairs.

A certificate pins the parameters, the host graph by hash and counts, the
wide coloring and every function table of H by digest, the H edge list, the
verdicts, and the node budget of the chi(H) search.  A digest is the SHA-256
of the values as int8 bytes in vertex order: a function table's values for
an H vertex, the wide coloring's pairs taken row-major (a, b of vertex 0,
then of vertex 1, ...) for gamma.

``check_certificate`` refuses missing fields, a version other than
``CERTIFICATE_VERSION`` (naming the version) and invalid parameters, and
then rebuilds the construction from the parameters, once.  The build raises
the first failed of its checks: the pinned counts, wideness, pairwise
distinct tables, every H edge being an edge of the exponential graph (which
is the product coloring), the const rule, on c5_wide the chain between
consecutive h levels, and no loops.  Every other comparison is made against
that rebuild, in one pass.  Both chromatic verdicts must be about c colors,
and the product verdict (the ``h_edges_real`` item) must count the
rebuild's 2|E(H)||E(G)| ordered checks.  The chi(H) verdict is trusted
together with its node count, which must be a positive integer; the chi(G)
verdict is attributed to a published identity, and no other status is
accepted.  The H edge list must be well formed, free of duplicates, and
equal to the rebuild's in count and as a set, so an edge out of range or a
loop is a spurious edge.  Then come the host hash and counts, the wide
coloring's shape, host pin and digest, the H labels and each table digest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .counterexample import (
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
    real = report.item("h_edges_real")
    chi_g = report.item("chi_g")
    return {
        "version": CERTIFICATE_VERSION,
        "params": asdict(params),
        **_pinned(report.build),
        "verdicts": {
            "chi_h": {"status": "none", "colors": params.c, "nodes": chi_h.detail["nodes"]},
            "product": {"ok": True, "ordered_checks": real.detail["ordered_checks"]},
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
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.ok


def check_certificate(cert: dict) -> CertificateCheck:
    """Check a certificate against the canonical build of its parameters:
    fields, version and parameters first, then the rebuild and, against it,
    the verdicts, the H edge list, the host, the wide coloring and the H
    vertices.
    """
    failures: list[str] = []

    def need(ok: bool, message: str) -> bool:
        if not ok:
            failures.append(message)
        return ok

    required = ["version", "params", "g_hash", "g_counts", "gamma", "h", "h_edges", "verdicts"]
    if not need(all(key in cert for key in required), "missing required fields"):
        return CertificateCheck(failures)
    if not need(
        cert["version"] == CERTIFICATE_VERSION,
        f"unsupported certificate version {cert['version']!r}; "
        f"this checker reads version {CERTIFICATE_VERSION!r}",
    ):
        return CertificateCheck(failures)
    try:
        params = CounterexampleParams(**cert["params"])
        params.validate()
    except (TypeError, ValueError) as err:
        failures.append(f"bad parameters: {err}")
        return CertificateCheck(failures)

    try:
        rebuilt = build_counterexample(params)
    except (RuntimeError, ValueError) as err:
        failures.append(f"canonical rebuild failed: {err}")
        return CertificateCheck(failures)
    canon = _pinned(rebuilt)

    verdicts = cert["verdicts"]
    names = ("chi_h", "product", "chi_g")
    if need(isinstance(verdicts, dict) and set(names) <= set(verdicts), "missing verdicts"):
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
            checks = 2 * rebuilt.h.edge_count * rebuilt.g.edge_count
            ordered = product.get("ordered_checks")
            need(
                type(ordered) is int and ordered == checks,
                f"product verdict ordered_checks {ordered!r} is not 2|E(H)||E(G)| = {checks}",
            )
            need(
                chi_g.get("status") == "external_theorem",
                "chi_g verdict has an unknown status",
            )

    h_edges = cert["h_edges"]
    if need(
        isinstance(h_edges, list)
        and all(
            type(e) is list and len(e) == 2 and type(e[0]) is type(e[1]) is int for e in h_edges
        ),
        "malformed H edge list",
    ):
        stored = {(min(e), max(e)) for e in h_edges}
        canonical = {tuple(e) for e in canon["h_edges"]}
        need(len(stored) == len(h_edges), "duplicate H edges")
        need(len(stored) == len(canonical), "unexpected number of H edges")
        if stored != canonical:
            extra = sorted(stored - canonical)[:3]
            missing = sorted(canonical - stored)[:3]
            failures.append(
                f"H edges are not the canonical skeleton (spurious {extra}, "
                f"missing {missing})"
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
        for keys, message in (
            (("n", "k", "d"), "wide coloring shape differs from the parameters"),
            (("graph_sha256",), "wide coloring pinned to a different graph"),
            (("pairs_sha256",), "wide coloring differs from the canonical zero-position coloring"),
        ):
            need(
                all(type(gamma[key]) is type(want[key]) and gamma[key] == want[key] for key in keys),
                message,
            )

    try:
        labels = [entry["label"] for entry in cert["h"]]
        digests = [entry["sha256"] for entry in cert["h"]]
    except (KeyError, TypeError) as err:
        failures.append(f"malformed H vertex list: {err!r}")
    else:
        if need(len(labels) == len(canon["h"]), "unexpected number of H vertices"):
            need(labels == rebuilt.labels, "H vertex labels differ from the canonical build")
            bad = next(
                (entry["label"] for entry, got in zip(canon["h"], digests) if got != entry["sha256"]),
                None,
            )
            need(bad is None, f"function table of {bad} differs from the canonical build")

    return CertificateCheck(failures)
