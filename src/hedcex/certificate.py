"""Self-contained JSON certificates for the counterexample pairs.

A certificate is what ``emit_certificate`` makes of a PASS report: the
parameters, the host graph by hash and counts, the wide coloring and every
function table of H by digest, the H edge list and the verdicts.  The
chi(H), product and chi(G) verdicts are the report's own items; the chi(H)
verdict carries the node count of its search.  A digest is the SHA-256 of
the values as int8 bytes in vertex order: a function table's values for an
H vertex (``_table``, read off its code and lookup for its digest alone),
the wide coloring's pairs taken row-major (a, b of vertex 0, then of vertex
1, ...) for gamma.

``check_certificate`` has three gates, each of which ends the check: the
version must be ``CERTIFICATE_VERSION`` (a refusal names it); the parameters
must be a JSON object with the keys of ``CounterexampleParams`` (a refusal
names the missing and extra ones) and valid; and ``verify_counterexample``
of them, run once, must PASS.  So the rebuild is graded as ``verify`` grades
it, and chi(H) is decided by its search, not read off the certificate.  A
report that is not PASS is refused with one ``canonical rebuild failed:``
line per item that is not ok, in item order: the item's error, or its line
as ``verify`` prints it (``chi_h: FAILED``, ``chi_h: exhausted``).  Then each
top-level field of that report's certificate is compared whole, in
``emit_certificate``'s key order, under one rule, ``_same``: equal as JSON
values, types included.  A field that differs is walked and gives one line,
the path of its first difference (``h[7].sha256: ... is not the rebuild's
...``, ``gamma.pairs_sha256 is missing``).  A key the rebuild's certificate
lacks, at any depth, such as the previous layout's ``budgets``, is not read.
There are three exceptions.  The chi(H) node count, which depends on the
search that wrote the certificate, need only be a positive integer; any
other value is one line naming its path, last.  The chi(G) attribution may
keep the previous layout's " at this budget" suffix.  An H edge list of
pairs of integers is compared sorted, each pair as (min, max): order and
orientation are free, and a duplicate, a loop or an edge outside H is a
difference.
The host hash is ``g_hash``, also gamma's pin: one per emission or check.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .counterexample import PASS, CounterexampleParams, Report, _table, verify_counterexample

CERTIFICATE_VERSION = "2"


def _sha256(values: np.ndarray) -> str:
    """SHA-256 of ``values`` as int8 bytes, row-major; a contiguous int8
    array is hashed in place, through its buffer."""
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.int8)).hexdigest()


def _same(got: object, want: object) -> bool:
    """Equal as JSON values, types included: 1 is not 1.0 and not true."""
    return json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


#: The value of a key that a JSON object lacks.
_ABSENT = object()


def _at(doc: object, *path: str) -> object:
    """The value at ``path`` in a JSON document, or ``_ABSENT`` where the path does not lead."""
    for key in path:
        doc = doc.get(key, _ABSENT) if isinstance(doc, dict) else _ABSENT
    return doc


def _difference(path: str, got: object, want: object) -> str | None:
    """The first difference of ``got`` from ``want``, in ``want``'s key and
    item order, as one line naming its path; None if there is none.  A key
    ``want`` lacks is not read."""
    if got is _ABSENT:
        return f"{path} is missing"
    if _same(got, want):
        return None
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return f"{path}: {json.dumps(got)} is not a JSON object"
        pairs = [(f"{path}.{key}", got.get(key, _ABSENT), value) for key, value in want.items()]
    elif isinstance(want, list):
        if not isinstance(got, list):
            return f"{path}: {json.dumps(got)} is not a JSON array"
        if len(got) != len(want):
            return f"{path} has {len(got)} entries, the rebuild's has {len(want)}"
        pairs = [(f"{path}[{i}]", *pair) for i, pair in enumerate(zip(got, want))]
    else:
        return f"{path}: {json.dumps(got)} is not the rebuild's {json.dumps(want)}"
    return next(filter(None, (_difference(*pair) for pair in pairs)), None)


def emit_certificate(report: Report) -> dict:
    """The certificate a PASS report determines, as a JSON-ready dictionary:
    the chi(H), product and chi(G) verdicts are its ``chi_h``,
    ``h_edges_real`` and ``chi_g`` items, and the host's counts those its
    ``counts`` item checked."""
    if report.status != PASS:
        raise ValueError(f"only PASS reports are certifiable, got {report.status}")
    if (build := report.build) is None:
        raise ValueError("report carries no build to certify")
    gamma, real = build.gamma, report.item("h_edges_real")
    chi_h, chi_g, counts = (report.item(name).detail for name in ("chi_h", "chi_g", "counts"))
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
        "h": [{"label": v.label, "sha256": _sha256(_table(v))} for v in build.vertices],
        "h_edges": [list(e) for e in build.h.edges()],
        "verdicts": {
            "chi_h": {"status": "none", "colors": chi_h["colors"], "nodes": chi_h["nodes"]},
            "product": {"ok": real.ok, "ordered_checks": real.detail["ordered_checks"]},
            "chi_g": {key: chi_g[key] for key in ("colors", "status", "attribution")},
        },
    }


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
    returns it, against ``verify_counterexample`` of its parameters: the
    version, the parameters and the report's status first, then every field
    of the certificate that report determines.
    """
    if (version := cert.get("version")) != CERTIFICATE_VERSION:
        reads = f"this checker reads version {CERTIFICATE_VERSION!r}"
        return CertificateCheck([f"unsupported certificate version {version!r}; {reads}"])
    try:
        given = cert.get("params")
        if not isinstance(given, dict):
            raise ValueError("params is not a JSON object")
        keys = {f.name for f in fields(CounterexampleParams)}
        if set(given) != keys:
            missing, extra = sorted(keys - set(given)), sorted(set(given) - keys)
            raise ValueError(f"params keys missing {missing}, extra {extra}")
        params = CounterexampleParams(**given)
        params.validate()
    except (TypeError, ValueError) as err:
        return CertificateCheck([f"bad parameters: {err}"])
    report = verify_counterexample(params)
    if report.status != PASS:
        lines = (item.detail.get("error") or item.line() for item in report.items if not item.ok)
        return CertificateCheck([f"canonical rebuild failed: {line}" for line in lines])

    nodes = _at(cert, "verdicts", "chi_h", "nodes")
    canon = emit_certificate(report)
    canon["verdicts"]["chi_h"]["nodes"] = None if nodes is _ABSENT else nodes
    chi_g = canon["verdicts"]["chi_g"]
    if _at(cert, "verdicts", "chi_g", "attribution") == chi_g["attribution"] + " at this budget":
        chi_g["attribution"] += " at this budget"  # the previous layout's suffix
    edges = cert.get("h_edges")
    if isinstance(edges, list) and all(
        type(e) is list and len(e) == 2 and type(e[0]) is type(e[1]) is int for e in edges
    ):
        cert = {**cert, "h_edges": sorted([min(e), max(e)] for e in edges)}

    lines = (_difference(key, cert.get(key, _ABSENT), want) for key, want in canon.items())
    failures = [line for line in lines if line is not None]
    if nodes is not _ABSENT and not (type(nodes) is int and nodes > 0):
        failures.append(f"verdicts.chi_h.nodes: {json.dumps(nodes)} is not a positive integer")
    return CertificateCheck(failures)
