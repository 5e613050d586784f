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

``check_certificate`` has three gates, each of which ends the check: the
version must be ``CERTIFICATE_VERSION`` (a refusal names it); the parameters
must be a JSON object with the keys of ``CounterexampleParams`` (a refusal
names the missing and extra ones) and valid; and the construction is rebuilt
from them, once, with ``build_counterexample``.  A rebuild that fails its
checks (the pinned counts, wideness, pairwise distinct tables, every H edge
being an edge of the exponential graph, which is the product coloring, the
const rule, on c5_wide the chain between consecutive h levels, and no loops)
is refused with one line per failed check, in item order, as ``verify``
prints them; an exception from inside the build is one such line.  Then each
top-level field of the canonical certificate of that rebuild is compared
whole, in ``_canonical``'s key order, under one rule, ``_same``: equal as
JSON values, types included.  A field that differs is walked and gives one
line, the path of its first difference (``h[7].sha256: ... is not the
rebuild's ...``, ``gamma.pairs_sha256 is missing``).  A key the canonical
certificate lacks, at any depth, such as the previous layout's ``budgets``,
is not read.  There are three exceptions.  The chi(H) node count, which no
rebuild decides, need only be a positive integer; any other value is one
line naming its path, last.  The chi(G) attribution may keep the previous
layout's " at this budget" suffix.  An H edge list of pairs of integers is
compared sorted, each pair as (min, max): order and orientation are free,
and a duplicate, a loop or an edge outside H is a difference.
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
    returns it, against the canonical build of its parameters: the version,
    the parameters and the rebuild first, then every field of the
    certificate that rebuild would emit.
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
    try:
        rebuilt, items = build_counterexample(params)
        errors = [item.detail["error"] for item in items if not item.ok]
    except (RuntimeError, ValueError) as err:
        errors = [err]
    if errors:
        return CertificateCheck([f"canonical rebuild failed: {error}" for error in errors])

    nodes = _at(cert, "verdicts", "chi_h", "nodes")
    canon = _canonical(rebuilt, items, None if nodes is _ABSENT else nodes)
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
