#!/usr/bin/env python3
"""Census of the odd-walk adjoints of complete graphs: closed-form vertex
counts against the explicit tuple construction, edge counts, and (for the
small rows) the chromatic number, which should always equal the base size m.
The zero-position coloring gives chi <= m by a linear scan; one exhaustive
refusal of an (m-1)-coloring gives chi >= m.  Each refusal gets 100,000
search nodes; the rows it decides need at most 8,586, and a row it leaves
undecided prints "?" (a budget of 2,000,000 decides no more rows).
"""

import argparse
import sys

from hedcex.families import omega_tuples, omega_vertex_count
from hedcex.solver import EXHAUSTED, NONE, SearchBudget, find_coloring, verify_coloring


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-base", type=int, default=6)
    ap.add_argument("--max-half-width", type=int, default=4)
    ap.add_argument("--max-vertices", type=int, default=20000,
                    help="skip explicit construction above this size")
    ap.add_argument("--chi-max-vertices", type=int, default=300,
                    help="skip the chromatic search above this size")
    args = ap.parse_args()

    print(f"{'base':>4} {'2d+1':>4} {'formula':>8} {'built':>8} {'edges':>9} {'chi':>4}")
    for m in range(2, args.max_base + 1):
        for d in range(1, args.max_half_width + 1):
            count = omega_vertex_count(m, d)
            if count > args.max_vertices:
                print(f"{m:>4} {2 * d + 1:>4} {count:>8} {'-':>8} {'-':>9} {'-':>4}")
                continue
            omega = omega_tuples(m, d)
            g = omega.graph
            chi = "-"
            if g.n <= args.chi_max_vertices:
                upper = verify_coloring(g, (omega.zero_positions() + 1).tolist(), m)
                lower = find_coloring(g, m - 1, SearchBudget(node_limit=100_000)).status
                if not upper or lower not in (NONE, EXHAUSTED):
                    print(f"unexpected chromatic number for base {m}, width {d}")
                    return 1
                chi = str(m) if lower == NONE else "?"
            print(f"{m:>4} {2 * d + 1:>4} {count:>8} {g.n:>8} {g.edge_count:>9} {chi:>4}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
