"""Command-line front end.

One verb per library operation: ``construct`` writes graphs, ``color`` /
``hom`` / ``chromatic`` run the exact searches, ``wide-check`` and
``adjunction-test`` exercise the wide-coloring machinery, ``build`` and
``verify`` drive the counterexample pipelines.  Exit codes: 0 success or
PASS, 1 verification failed, 2 usage error, 3 a mandatory verdict hit its
budget.  Output carries no wall-clock data, so identical invocations print
identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import certificate as certmod
from . import counterexample as cex
from .families import (
    complete_graph,
    cycle_graph,
    gamma_power,
    kneser_graph,
    lex_product,
    omega_tuples,
    tensor_product,
)
from .graphs import Graph, emit_dimacs, emit_dot, parse_dimacs
from .solver import EXHAUSTED, SOME, SearchBudget, chromatic_number, find_coloring, find_homomorphism
from .widecolor import WideColoring, adjunction_holds, check_wide, zero_position_coloring

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3


def _at_least(minimum: int):
    """Flag type: an integer no smaller than ``minimum``.  A bad value goes
    through the parser's error, which names the flag and exits 2."""

    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return count


def _seconds(text: str) -> float:
    """Flag type: a positive number of seconds."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="machine-readable output on stdout")
    p.add_argument("--budget-nodes", type=_at_least(1), default=100_000_000, metavar="N")
    p.add_argument("--budget-secs", type=_seconds, default=600.0, metavar="S")


def _budget(args) -> SearchBudget:
    return SearchBudget(node_limit=args.budget_nodes, time_limit=args.budget_secs)


def _load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dimacs(fh.read())


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit(args, doc: dict, human: str) -> None:
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    else:
        print(human)


# -- construct ----------------------------------------------------------------


_CONSTRUCT_NEEDS = {
    "omega": ("n", "d"),
    "kneser": ("c", "k"),
    "complete": ("n",),
    "cycle": ("n",),
    "power": ("graph", "d"),
    "lex": ("graph", "other"),
    "tensor": ("graph", "other"),
}


def _cmd_construct(args) -> int:
    kind = args.family
    for name in _CONSTRUCT_NEEDS[kind]:
        if getattr(args, name) is None:
            raise ValueError(f"construct {kind} needs --{name}")
    if kind == "omega":
        g = omega_tuples(args.n, args.d).graph
    elif kind == "kneser":
        g = kneser_graph(args.c, args.k)
    elif kind == "complete":
        g = complete_graph(args.n)
    elif kind == "cycle":
        g = cycle_graph(args.n)
    elif kind == "power":
        g = gamma_power(_load_graph(args.graph), args.d)
    elif kind == "lex":
        g = lex_product(_load_graph(args.graph), _load_graph(args.other))
    else:
        g = tensor_product(_load_graph(args.graph), _load_graph(args.other))
    text = emit_dimacs(g)
    if args.json:
        print(
            json.dumps(
                {"family": kind, "vertices": g.n, "edges": g.edge_count, "dimacs": text},
                sort_keys=True,
            )
        )
        if args.output:
            _write_text(args.output, text)
        return EXIT_OK
    if args.output:
        _write_text(args.output, text)
        print(f"{kind}: {g.n} vertices, {g.edge_count} edges -> {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# -- searches -----------------------------------------------------------------


def _cmd_color(args) -> int:
    g = _load_graph(args.graph)
    res = find_coloring(g, args.colors, _budget(args))
    doc = {
        "status": res.status,
        "colors": args.colors,
        "assignment": res.assignment,
        "nodes": res.nodes,
        "reason": res.reason,
    }
    _emit(args, doc, f"{res.status}" + (f" {res.assignment}" if res.assignment else ""))
    return EXIT_EXHAUSTED if res.status == EXHAUSTED else EXIT_OK


def _cmd_hom(args) -> int:
    g = _load_graph(args.graph)
    h = _load_graph(args.target)
    res = find_homomorphism(g, h, _budget(args))
    doc = {
        "status": res.status,
        "mapping": res.mapping,
        "nodes": res.nodes,
        "reason": res.reason,
    }
    _emit(args, doc, f"{res.status}" + (f" {res.mapping}" if res.mapping else ""))
    return EXIT_EXHAUSTED if res.status == EXHAUSTED else EXIT_OK


def _cmd_chromatic(args) -> int:
    g = _load_graph(args.graph)
    res = chromatic_number(g, lo=args.lo, hi=args.hi, budget=_budget(args))
    doc = {
        "status": res.status,
        "value": res.value,
        "assignment": res.assignment,
        "nodes": res.nodes,
        "decisions": [list(d) for d in res.decisions],
    }
    human = f"chromatic {res.status}" + (f" {res.value}" if res.value is not None else "")
    _emit(args, doc, human)
    return EXIT_EXHAUSTED if res.status == "unknown" else EXIT_OK


# -- wide coloring ------------------------------------------------------------


def _cmd_wide_check(args) -> int:
    zero_mode = args.n is not None or args.k is not None or args.d is not None
    file_mode = args.graph is not None or args.gamma is not None
    if zero_mode == file_mode:
        print("wide-check: pass either --n/--k/--d or --graph/--gamma", file=sys.stderr)
        return EXIT_USAGE
    if zero_mode:
        if None in (args.n, args.k, args.d):
            print("wide-check: --n, --k and --d go together", file=sys.stderr)
            return EXIT_USAGE
        omega = omega_tuples(args.n * args.k, args.d)
        try:
            wc = zero_position_coloring(omega, args.n, args.k)
        except RuntimeError as err:
            _emit(args, {"wide": False, "error": str(err)}, f"not wide: {err}")
            return EXIT_FAILED
        g = omega.graph
    else:
        if None in (args.graph, args.gamma):
            print("wide-check: --graph and --gamma go together", file=sys.stderr)
            return EXIT_USAGE
        g = _load_graph(args.graph)
        with open(args.gamma, "r", encoding="utf-8") as fh:
            wc = WideColoring.from_json(fh.read())
    ok = check_wide(g, wc, condition=args.condition)
    doc = {
        "wide": ok,
        "condition": args.condition,
        "n": wc.n,
        "k": wc.k,
        "d": wc.d,
        "vertices": g.n,
    }
    _emit(args, doc, f"wide: {ok} (condition {args.condition}, d={wc.d})")
    if args.gamma_out:
        _write_text(args.gamma_out, wc.to_json() + "\n")
    return EXIT_OK if ok else EXIT_FAILED


def _cmd_adjunction(args) -> int:
    g = _load_graph(args.graph)
    h = _load_graph(args.target)
    try:
        agree = adjunction_holds(g, h, args.d, _budget(args))
    except RuntimeError as err:
        _emit(args, {"agree": None, "error": str(err)}, f"exhausted: {err}")
        return EXIT_EXHAUSTED
    _emit(args, {"agree": agree, "d": args.d}, f"agree: {agree}")
    return EXIT_OK if agree else EXIT_FAILED


# -- pipelines ----------------------------------------------------------------


def _cmd_build(args) -> int:
    params = cex.params_for(args.variant, reading=args.reading)
    try:
        build = cex.build_counterexample(params)
    except (RuntimeError, ValueError) as err:
        _emit(args, {"variant": args.variant, "error": str(err)}, f"build failed: {err}")
        return EXIT_FAILED
    doc = {
        "variant": args.variant,
        "reading": params.reading,
        "g": {"vertices": build.g.n, "edges": build.g.edge_count, "hash": build.g_hash},
        "h": {"vertices": build.h.n, "edges": build.h.edge_count},
        "labels": build.labels,
    }
    human = (
        f"{args.variant}: G {build.g.n} vertices / {build.g.edge_count} edges, "
        f"H {build.h.n} vertices / {build.h.edge_count} edges"
    )
    _emit(args, doc, human)
    if args.graph_out:
        _write_text(args.graph_out, emit_dimacs(build.g, comment=f"host for {args.variant}"))
    if args.h_out:
        _write_text(args.h_out, emit_dimacs(build.h, comment=f"H for {args.variant}"))
    if args.dot:
        _write_text(args.dot, emit_dot(build.h, build.labels))
    if args.gamma_out:
        _write_text(args.gamma_out, build.gamma.to_json() + "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.what == "certificate":
        with open(args.cert, "r", encoding="utf-8") as fh:
            cert = certmod.certificate_from_json(fh.read())
        res = certmod.check_certificate(cert)
        doc = {"ok": res.ok, "failures": res.failures}
        human = "certificate: ok" if res.ok else "certificate: INVALID\n" + "\n".join(
            f"  - {f}" for f in res.failures
        )
        _emit(args, doc, human)
        return EXIT_OK if res.ok else EXIT_FAILED

    chi_g_budget = SearchBudget(node_limit=args.chi_g_nodes, time_limit=args.chi_g_secs)
    params = cex.params_for(args.variant, reading=args.reading)
    report = cex.verify_counterexample(params, _budget(args), chi_g_budget=chi_g_budget)
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        for item in report.items:
            print(item.line())
        print(f"verify {args.variant}: {report.status}")
    if args.cert and report.status == cex.PASS:
        cert = certmod.emit_certificate(report)
        _write_text(args.cert, certmod.certificate_to_json(cert) + "\n")
    return {cex.PASS: EXIT_OK, cex.FAILED: EXIT_FAILED, cex.INCOMPLETE: EXIT_EXHAUSTED}[
        report.status
    ]


# -- parser -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hedcex",
        description="Construct and verify small tensor-product coloring counterexamples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="write a graph as DIMACS")
    p.add_argument("family", choices=["omega", "kneser", "complete", "cycle", "power", "lex", "tensor"])
    p.add_argument("--n", type=int, help="base size (omega/complete/cycle)")
    p.add_argument("--d", type=int, help="half-width (omega) or walk length (power)")
    p.add_argument("--c", type=int, help="ground set size (kneser)")
    p.add_argument("--k", type=int, help="subset size (kneser)")
    p.add_argument("--graph", help="input DIMACS (power/lex/tensor)")
    p.add_argument("--other", help="second input DIMACS (lex/tensor)")
    p.add_argument("-o", "--output", help="output path (default: stdout)")
    _common_flags(p)
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("color", help="exact c-coloring decision")
    p.add_argument("--graph", required=True)
    p.add_argument("--colors", type=int, required=True)
    _common_flags(p)
    p.set_defaults(handler=_cmd_color)

    p = sub.add_parser("hom", help="exact homomorphism decision")
    p.add_argument("--graph", required=True)
    p.add_argument("--target", required=True)
    _common_flags(p)
    p.set_defaults(handler=_cmd_hom)

    p = sub.add_parser("chromatic", help="exact chromatic number within a range")
    p.add_argument("--graph", required=True)
    p.add_argument("--lo", type=int, default=1)
    p.add_argument("--hi", type=int, default=None)
    _common_flags(p)
    p.set_defaults(handler=_cmd_chromatic)

    p = sub.add_parser("wide-check", help="test the wideness conditions of a coloring")
    p.add_argument("--n", type=int, help="first factor (zero-position mode)")
    p.add_argument("--k", type=int, help="second factor (zero-position mode)")
    p.add_argument("--d", type=int, help="half-width (zero-position mode)")
    p.add_argument("--graph", help="host DIMACS (file mode)")
    p.add_argument("--gamma", help="coloring JSON (file mode)")
    p.add_argument("--condition", type=int, choices=[1, 2, 3, 4], default=2)
    p.add_argument("--gamma-out", help="write the checked coloring as JSON")
    _common_flags(p)
    p.set_defaults(handler=_cmd_wide_check)

    p = sub.add_parser("adjunction-test", help="compare the two sides of the power adjoint")
    p.add_argument("--graph", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--d", type=int, required=True, help="odd walk length")
    _common_flags(p)
    p.set_defaults(handler=_cmd_adjunction)

    p = sub.add_parser("build", help="assemble a counterexample pair")
    p.add_argument("variant", choices=sorted(cex.VARIANTS))
    p.add_argument("--reading", choices=["q", "literal"], default="q")
    p.add_argument("--graph-out", help="write the host graph as DIMACS")
    p.add_argument("--h-out", help="write H as DIMACS")
    p.add_argument("--dot", help="write H as DOT")
    p.add_argument("--gamma-out", help="write the wide coloring as JSON")
    _common_flags(p)
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("verify", help="run a verification pipeline")
    what = p.add_subparsers(dest="what", required=True)

    pc = what.add_parser("counterexample", help="verify a variant end to end")
    pc.add_argument("--variant", choices=sorted(cex.VARIANTS), required=True)
    pc.add_argument("--reading", choices=["q", "literal"], default="q")
    pc.add_argument("--cert", help="write a certificate here on PASS")
    pc.add_argument(
        "--chi-g-nodes",
        type=_at_least(0),
        default=cex.DEFAULT_CHI_G_BUDGET.node_limit,
        metavar="N",
        help="node budget for the chi(G) > c search (default 0: attribute it)",
    )
    pc.add_argument(
        "--chi-g-secs", type=_seconds, default=cex.DEFAULT_CHI_G_BUDGET.time_limit, metavar="S"
    )
    _common_flags(pc)
    pc.set_defaults(handler=_cmd_verify)

    pv = what.add_parser("certificate", help="re-check an emitted certificate")
    pv.add_argument("--cert", required=True)
    _common_flags(pv)
    pv.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except OSError as err:
        print(f"hedcex: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as err:
        print(f"hedcex: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
