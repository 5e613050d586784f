#!/usr/bin/env python3
"""Census of the odd-walk adjoints of complete graphs: closed-form vertex
counts against the explicit tuple construction, edge counts, and (for the
small rows) the chromatic number, which should always equal the base size m.
The zero-position coloring gives chi <= m by a linear scan; one exhaustive
refusal of an (m-1)-coloring gives chi >= m.  Each refusal gets 100,000
search nodes; the rows it decides need at most 8,586, and a row it leaves
undecided prints "?" (a budget of 2,000,000 decides no more rows).

Run it as ``PYTHONPATH=src python scripts/omega_census.py``; it takes no
arguments, and its output is pinned by SHA-256 in the CI workflow.
"""

import sys

from hedcex.families import omega_tuples, omega_vertex_count
from hedcex.solver import EXHAUSTED, NONE, SearchBudget, find_coloring, verify_coloring

MAX_BASE = 6
MAX_HALF_WIDTH = 4
#: Rows above this many vertices are counted by formula only, not built.
MAX_VERTICES = 20000
#: Rows above this many vertices get no chromatic search.
CHI_MAX_VERTICES = 300


def main() -> int:
    print(f"{'base':>4} {'2d+1':>4} {'formula':>8} {'built':>8} {'edges':>9} {'chi':>4}")
    for m in range(2, MAX_BASE + 1):
        for d in range(1, MAX_HALF_WIDTH + 1):
            count = omega_vertex_count(m, d)
            if count > MAX_VERTICES:
                print(f"{m:>4} {2 * d + 1:>4} {count:>8} {'-':>8} {'-':>9} {'-':>4}")
                continue
            omega = omega_tuples(m, d)
            g = omega.graph
            chi = "-"
            if g.n <= CHI_MAX_VERTICES:
                upper = verify_coloring(g, (omega.zero_positions + 1).tolist(), m)
                lower = find_coloring(g, m - 1, SearchBudget(node_limit=100_000)).status
                if not upper or lower not in (NONE, EXHAUSTED):
                    print(f"unexpected chromatic number for base {m}, width {d}")
                    return 1
                chi = str(m) if lower == NONE else "?"
            print(f"{m:>4} {2 * d + 1:>4} {count:>8} {g.n:>8} {g.edge_count:>9} {chi:>4}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
