"""Self-contained JSON certificates for the counterexample pairs.

A certificate is what ``_canonical`` makes of a verified build: the
parameters, the host graph by hash and counts, the wide coloring and every
function table of H by digest, the H edge list and the verdicts.  The
product and chi(G) verdicts are the build's own report items; the chi(H)
verdict carries the node count of its search.  A digest is the SHA-256 of
the values as int8 bytes in vertex order: a function table's values for an
H vertex, the wide coloring's pairs taken row-major (a, b of vertex 0, then
of vertex 1, ...) for gamma.  An H vertex is held as its family's code and
its lookup, so its table is read off them, one table at a time, for its
digest alone.

``check_certificate`` refuses missing fields, a version other than
``CERTIFICATE_VERSION`` (naming the version), parameters that are not a JSON
object or whose keys are not those of ``CounterexampleParams`` (naming the
missing and extra ones) and invalid parameters, and then rebuilds the
construction from the parameters, once, with ``build_counterexample``.  A
rebuild that fails its checks (the pinned counts, wideness, pairwise
distinct tables, every H edge being an edge of the exponential graph, which
is the product coloring, the const rule, on c5_wide the chain between
consecutive h levels, and no loops) is refused with one line per failed
check, in item order, as ``verify`` prints them; an exception from inside
the build is one such line.  Then every field of the canonical certificate
of that rebuild is compared, in one pass, with the certificate's under one
rule: equal as JSON values, types included.  There are three exceptions.
The chi(H) node count, which no rebuild decides, need only be a positive
integer.  The H edge list is compared as a set with no duplicates, so an
edge out of range or a loop is a spurious edge.  The chi(G) attribution may
keep the previous layout's " at this budget" suffix.  A field the canonical
certificate lacks, such as the previous layout's ``budgets``, is not read.
The host hash is ``g_hash``, also gamma's pin: one per emission or check.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .counterexample import (
    PASS,
    BuildResult,
    CounterexampleParams,
    Report,
    ReportItem,
    build_counterexample,
)

CERTIFICATE_VERSION = "2"


def _sha256(values: np.ndarray) -> str:
    """SHA-256 of ``values`` as int8 bytes, row-major; a contiguous int8
    array is hashed in place, through its buffer."""
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.int8)).hexdigest()


def _same(got: object, want: object) -> bool:
    """Equal as JSON values, types included: 1 is not 1.0 and not true."""
    return json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def _canonical(build: BuildResult, items: list[ReportItem], nodes: object) -> dict:
    """The certificate a build determines, given the node count of its
    chi(H) search: the product and chi(G) verdicts are the build's own
    ``h_edges_real`` and ``chi_g`` report items, and the host's counts those
    its ``counts`` item checked."""
    gamma, item = build.gamma, {it.name: it for it in items}
    real, chi_g, counts = item["h_edges_real"], item["chi_g"].detail, item["counts"].detail
    return {
        "version": CERTIFICATE_VERSION,
        "params": asdict(build.params),
        "g_hash": build.g_hash,
        "g_counts": {"vertices": counts["g_vertices"], "edges": counts["g_edges"]},
        "gamma": {
            "graph_sha256": build.g_hash,
            "n": gamma.n,
            "k": gamma.k,
            "d": gamma.d,
            "pairs_sha256": _sha256(gamma.pairs),
        },
        "h": [
            {"label": v.label, "sha256": _sha256(np.take(v.lookup, v.code))}
            for v in build.vertices
        ],
        "h_edges": [list(e) for e in build.h.edges()],
        "verdicts": {
            "chi_h": {"status": "none", "colors": build.params.c, "nodes": nodes},
            "product": {"ok": real.ok, "ordered_checks": real.detail["ordered_checks"]},
            "chi_g": {key: chi_g[key] for key in ("colors", "status", "attribution")},
        },
    }


def emit_certificate(report: Report) -> dict:
    """The certificate of a PASS report's build, as a JSON-ready dictionary."""
    if report.status != PASS:
        raise ValueError(f"only PASS reports are certifiable, got {report.status}")
    if report.build is None:
        raise ValueError("report carries no build to certify")
    return _canonical(report.build, report.items, report.item("chi_h").detail["nodes"])


def certificate_to_json(cert: dict) -> str:
    """Compact JSON text of a certificate, keys sorted.

    Whitespace is not part of the format, so ``certificate_from_json`` reads
    indented certificates too.
    """
    return json.dumps(cert, sort_keys=True, separators=(",", ":"))


def certificate_from_json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("certificate JSON is nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("certificate must be a JSON object")
    return doc


#: The failure that names each verdict field unequal to the canonical one, in
#: the order they are reported: {0!r} is the certificate's value, {1} the
#: canonical one.  The chi(H) node count is the one field no rebuild decides.
_VERDICT_FAILURES = {
    ("chi_h", "status"): "chi_h verdict is not a refusal",
    ("chi_h", "colors"): "chi_h verdict colors {0!r} is not c = {1}",
    ("chi_g", "colors"): "chi_g verdict colors {0!r} is not c = {1}",
    ("chi_h", "nodes"): "chi_h verdict nodes {0!r} is not a positive integer",
    ("product", "ok"): "product verdict is not positive",
    ("product", "ordered_checks"): (
        "product verdict ordered_checks {0!r} is not 2|E(H)||E(G)| = {1}"
    ),
    ("chi_g", "status"): "chi_g verdict has an unknown status",
    ("chi_g", "attribution"): "chi_g verdict attribution is not the published identity",
}


@dataclass
class CertificateCheck:
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.ok


def check_certificate(cert: dict) -> CertificateCheck:
    """Check a certificate, a JSON document as ``certificate_from_json``
    returns it, against the canonical build of its parameters: fields,
    version and parameters first, then the rebuild and, against the
    certificate it would emit, the verdicts, the H edge list, the host, the
    wide coloring and the H vertices.
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
        if not isinstance(cert["params"], dict):
            raise ValueError("params is not a JSON object")
        keys, given = {f.name for f in fields(CounterexampleParams)}, set(cert["params"])
        if given != keys:
            missing, extra = sorted(keys - given), sorted(given - keys)
            raise ValueError(f"params keys missing {missing}, extra {extra}")
        params = CounterexampleParams(**cert["params"])
        params.validate()
    except (TypeError, ValueError) as err:
        failures.append(f"bad parameters: {err}")
        return CertificateCheck(failures)

    try:
        rebuilt, items = build_counterexample(params)
        errors = [item.detail["error"] for item in items if not item.ok]
    except (RuntimeError, ValueError) as err:
        errors = [err]
    if errors:
        return CertificateCheck([f"canonical rebuild failed: {error}" for error in errors])

    verdicts, names = cert["verdicts"], ("chi_h", "product", "chi_g")
    if need(isinstance(verdicts, dict) and set(names) <= set(verdicts), "missing verdicts"):
        loose = [name for name in names if not isinstance(verdicts[name], dict)]
        need(not loose, f"verdict is not a JSON object: {', '.join(loose)}")
    shaped = not failures
    canon = _canonical(rebuilt, items, verdicts["chi_h"].get("nodes") if shaped else None)
    for (name, key), message in _VERDICT_FAILURES.items() if shaped else ():
        got, want = verdicts[name].get(key), canon["verdicts"][name][key]
        if key == "attribution" and isinstance(got, str):
            got = got.removesuffix(" at this budget")  # the previous layout's suffix
        need(
            type(got) is int and got > 0 if key == "nodes" else _same(got, want),
            message.format(got, want),
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

    need(_same(cert["g_hash"], canon["g_hash"]), "host graph hash mismatch")
    need(_same(cert["g_counts"], canon["g_counts"]), "host graph counts mismatch")

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
            need(all(_same(gamma[key], want[key]) for key in keys), message)

    entries = cert["h"]
    if not (isinstance(entries, list) and all(isinstance(entry, dict) for entry in entries)):
        failures.append("malformed H vertex list: h is not a list of JSON objects")
    elif lacking := [key for key in ("label", "sha256") if not all(key in e for e in entries)]:
        failures.append(f"malformed H vertex list: an entry has no {lacking[0]!r}")
    else:
        labels = [entry["label"] for entry in entries]
        digests = [entry["sha256"] for entry in entries]
        if need(len(labels) == len(canon["h"]), "unexpected number of H vertices"):
            want = [entry["label"] for entry in canon["h"]]
            need(_same(labels, want), "H vertex labels differ from the canonical build")
            bad = next(
                (e["label"] for e, got in zip(canon["h"], digests) if not _same(got, e["sha256"])),
                None,
            )
            need(bad is None, f"function table of {bad} differs from the canonical build")

    return CertificateCheck(failures)
