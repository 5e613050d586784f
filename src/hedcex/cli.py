"""Command-line front end.

``verify counterexample`` runs a variant's pipeline and can write a
certificate, ``verify certificate`` re-checks one, and ``wide-check`` grades
a wide coloring: the zero-position coloring of an adjoint host built from
``--n/--k/--d``, or a stored host and coloring read from ``--graph/--gamma``.
Exit codes: 0 success or PASS, 1 verification failed, 2 usage error, 3 a
mandatory verdict hit its node budget.  A budget is a node count and output
carries no wall-clock data, so identical invocations print identical bytes
on any machine.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import certificate as certmod
from . import counterexample as cex
from .families import omega_tuples
from .graphs import Graph, parse_dimacs
from .solver import SearchBudget
from .widecolor import WideColoring, _zero_position, check_wide

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


def _json_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="machine-readable output on stdout")


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
        # built unchecked: the requested condition below is the one decided
        wc = _zero_position(omega, args.n, args.k)
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

    params = cex.params_for(args.variant, reading=args.reading)
    report = cex.verify_counterexample(params, SearchBudget(node_limit=args.budget_nodes))
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
        description="Verify small tensor-product coloring counterexamples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wide-check", help="test the wideness conditions of a coloring")
    p.add_argument("--n", type=int, help="first factor (zero-position mode)")
    p.add_argument("--k", type=int, help="second factor (zero-position mode)")
    p.add_argument("--d", type=int, help="half-width (zero-position mode)")
    p.add_argument("--graph", help="host DIMACS (file mode)")
    p.add_argument("--gamma", help="coloring JSON (file mode)")
    p.add_argument("--condition", type=int, choices=[1, 2, 3, 4], default=2)
    p.add_argument("--gamma-out", help="write the checked coloring as JSON")
    _json_flag(p)
    p.set_defaults(handler=_cmd_wide_check)

    p = sub.add_parser("verify", help="run a verification pipeline")
    what = p.add_subparsers(dest="what", required=True)

    pc = what.add_parser("counterexample", help="verify a variant end to end")
    pc.add_argument("--variant", choices=sorted(cex.VARIANTS), required=True)
    pc.add_argument("--reading", choices=["q", "literal"], default="q")
    pc.add_argument("--cert", help="write a certificate here on PASS")
    pc.add_argument(
        "--budget-nodes",
        type=_at_least(1),
        default=cex.DEFAULT_BUDGET.node_limit,
        metavar="N",
        help="node budget for the chi(H) > c search",
    )
    _json_flag(pc)
    pc.set_defaults(handler=_cmd_verify)

    pv = what.add_parser("certificate", help="re-check an emitted certificate")
    pv.add_argument("--cert", required=True)
    _json_flag(pv)
    pv.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError) as err:
        print(f"hedcex: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
