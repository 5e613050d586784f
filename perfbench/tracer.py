"""Span tracing for the benchmark's traced operations.

``Tracer.traced()`` wraps every public function of the six hedcex layer
modules and rebinds each name that refers to one of them in every loaded
hedcex module, the way a test monkeypatches ``cex.find_coloring``.  Each call
then records one span: operation id, span id, parent span id, name, start and
end.  Work submitted to a ``ThreadPoolExecutor`` from a hedcex module takes
the submitting span as its parent.  On exit every original is put back, and
``wrapped_names`` proves it: an untraced operation checks that list is empty
before it measures anything.

Generator functions are left alone, since a wrapper would time only the
creation of the generator.  ``src/`` is never edited.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

LAYERS = ("graphs", "families", "widecolor", "solver", "counterexample", "certificate")
PACKAGE = "hedcex"

_ORIGINAL = "__perfbench_original__"


def _coloring_attrs(args, kwargs, result) -> dict:
    graph = args[0] if args else kwargs["g"]
    return {"n": graph.n, "nodes": result.nodes, "status": result.status}


def _json_attrs(args, kwargs, result) -> dict:
    return {"bytes": len(result)}


# Extra fields recorded on the spans of a few functions: the graph order and
# node count tell the chi(H) search from the chi(G) budget, and the certificate
# size comes from the serializer's result.
_SPAN_ATTRS = {
    "solver.find_coloring": _coloring_attrs,
    "certificate.certificate_to_json": _json_attrs,
}


def _package_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def wrapped_names() -> list[str]:
    """Every ``module.attr`` of the loaded package still bound to a wrapper."""
    return sorted(
        f"{mod.__name__}.{attr}"
        for mod in _package_modules()
        for attr, obj in list(vars(mod).items())
        if hasattr(obj, _ORIGINAL)
    )


class Tracer:
    """Collects spans for one operation while installed."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def _adopt(self, parent, fn, *args, **kwargs):
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def _wrap(self, name: str, fn):
        attrs = _SPAN_ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                span = {
                    "op": self.op_id,
                    "id": sid,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                    "thread": threading.get_ident(),
                }
                if attrs is not None and result is not None:
                    span.update(attrs(args, kwargs, result))
                self.spans.append(span)

        setattr(wrapper, _ORIGINAL, fn)
        return wrapper

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer._adopt, tracer._current(), fn, *args, **kwargs)

        setattr(TracedPool, _ORIGINAL, ThreadPoolExecutor)
        return TracedPool

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not inspect.isgeneratorfunction(obj)
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        pool = self._pool_class()
        for mod in _package_modules():
            for attr, obj in list(vars(mod).items()):
                if obj is ThreadPoolExecutor:
                    replacement = pool
                elif inspect.isfunction(obj) and obj in wrappers:
                    replacement = wrappers[obj]
                else:
                    continue
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, replacement)

    def restore(self) -> None:
        """Put every original back and fail if any wrapper is still bound."""
        while self._patched:
            mod, attr, obj = self._patched.pop()
            setattr(mod, attr, obj)
        leftover = wrapped_names()
        if leftover:
            raise RuntimeError(f"wrappers still bound after restore: {leftover}")

    @contextlib.contextmanager
    def traced(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()


def wrapper_cost(calls: int = 20_000) -> float:
    """Seconds one wrapper adds to a call, measured on a no-op function.

    Times the span count, this is the time tracing added to an operation.
    Traced minus untraced wall time of two operations would measure the same
    thing, but run-to-run noise (seconds) swamps it (milliseconds).
    """

    def noop():
        return None

    wrapped = Tracer("calibration")._wrap("calibration.noop", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(0.0, (time.perf_counter() - start - plain) / calls)


# -- per-layer metrics --------------------------------------------------------


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover.

    Children from a thread pool may overlap one another; the union of their
    intervals is what is subtracted, so self time never goes negative.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(s["start"], s["end"], children[s["id"]])
        for s in spans
    }


def layer_metrics(spans: list[dict], counts: dict) -> dict[str, float]:
    """The per-layer figures of one traced operation.

    ``counts`` is the report's counts item (host and H orders, host edges);
    it tells the chi(H) search from the chi(G) budget and sizes the
    incidences the adjacency scans touch.  Times are summed over calls; spans
    from the thread pool are summed per thread, so they can exceed wall time.
    """
    own = self_times(spans)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def calls(name: str) -> int:
        return len(by_name[name])

    def secs(name: str) -> float:
        return sum((s["end"] - s["start"] for s in by_name[name]), 0.0)

    def self_secs(name: str) -> float:
        return sum((own[s["id"]] for s in by_name[name]), 0.0)

    def coloring(order: int) -> tuple[float, int]:
        runs = [s for s in by_name["solver.find_coloring"] if s.get("n") == order]
        return sum(s["end"] - s["start"] for s in runs), sum(s.get("nodes", 0) for s in runs)

    check_ids = {s["id"] for s in by_name["certificate.check_certificate"]}
    rebuild_s = sum(
        s["end"] - s["start"]
        for s in spans
        if s["parent"] in check_ids
        and s["name"] in ("families.omega_tuples", "counterexample.build_counterexample")
    )
    chi_h_s, chi_h_nodes = coloring(counts["h_vertices"])
    chi_g_s, chi_g_nodes = coloring(counts["g_vertices"])
    scans = calls("counterexample.exp_adjacent")
    scan_s = secs("counterexample.exp_adjacent")
    incidences = scans * 2 * counts["g_edges"]

    out = {
        "families.omega_tuples.calls": calls("families.omega_tuples"),
        "families.omega_tuples.s": secs("families.omega_tuples"),
        "families.n_shells.calls": calls("families.n_shells"),
        "families.n_shells.s": secs("families.n_shells"),
        "widecolor.zero_position_coloring.s": secs("widecolor.zero_position_coloring"),
        "widecolor.check_wide.calls": calls("widecolor.check_wide"),
        "widecolor.check_wide.s": secs("widecolor.check_wide"),
        "counterexample.build.calls": calls("counterexample.build_counterexample"),
        "counterexample.build.self_s": self_secs("counterexample.build_counterexample"),
        "counterexample.build_special_family.s": secs("counterexample.build_special_family"),
        "graphs.graph_sha256.calls": calls("graphs.graph_sha256"),
        "graphs.graph_sha256.s": secs("graphs.graph_sha256"),
        "graphs.edge_arrays.s": secs("graphs.edge_arrays"),
        "counterexample.exp_adjacent.calls": scans,
        "counterexample.exp_adjacent.s": scan_s,
        "counterexample.incidences": incidences,
        "counterexample.scan_rate": incidences / scan_s if scan_s > 0 else 0.0,
        "counterexample.product_coloring.s": secs("counterexample.product_coloring_violation"),
        "counterexample.chain_check.s": secs("counterexample.chain_check"),
        "counterexample.reading_comparison.s": secs("counterexample.reading_comparison"),
        "solver.chi_h.nodes": chi_h_nodes,
        "solver.chi_h.s": chi_h_s,
        "solver.us_per_node": 1e6 * chi_h_s / chi_h_nodes if chi_h_nodes else 0.0,
        "solver.chi_g.nodes": chi_g_nodes,
        "solver.chi_g.s": chi_g_s,
        "certificate.emit.s": secs("certificate.emit_certificate")
        + secs("certificate.certificate_to_json"),
        "certificate.json_bytes": sum(
            s.get("bytes", 0) for s in by_name["certificate.certificate_to_json"]
        ),
        "certificate.parse.s": secs("certificate.certificate_from_json"),
        "certificate.check.self_s": self_secs("certificate.check_certificate"),
        "certificate.rebuild.s": rebuild_s,
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            (own[s["id"]] for s in spans if s["name"].startswith(layer + ".")), 0.0
        )
    return out
