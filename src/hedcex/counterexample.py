"""Named vertex families inside exponential graphs, and their verification.

The exponential graph on c colors over a host G has all functions
V(G) -> [c] as vertices; it is far too large to materialize, so everything
here works with a handful of named functions: the constants, the first
projection of a wide coloring, and two-valued "h" / selector-valued "g"
functions supported on exact-distance neighborhoods of a color class.
Together with the host (an omega graph over a complete base) they form a
finite pair (G, H) whose tensor product is c-colorable while both factors
need more than c colors.  ``checked_build`` returns the pair with its
checks as named report items, each of which can fail; the coloring
(v, f) -> f(v) of G x H is proper exactly when every edge of H is an edge
of the exponential graph, so the product coloring is the ``h_edges_real``
check and is not scanned again.  ``verify_counterexample`` runs the full
pipeline and returns a machine-readable report.
"""

from __future__ import annotations

# Unused; kept because perfbench/test_perfbench.py asserts this binding.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import asdict, dataclass, field

import numpy as np

from .families import OmegaGraph, omega_tuples, shell_bits
from .graphs import Graph, _unique_sorted, edge_arrays, graph_sha256, new_graph
from .solver import DEFAULT_BUDGET, NONE, SOME, SearchBudget, find_coloring
from .widecolor import WideColoring, _zero_position

PASS = "PASS"
FAILED = "FAILED"
INCOMPLETE = "INCOMPLETE"

#: Published identity behind chi(G) > c, which no search decides at host
#: scale: the odd-power adjoints of complete graphs keep the base's chromatic
#: number (Gyarfas, Jensen & Stiebitz 2004; Simonyi & Tardos 2006; Baum &
#: Stiebitz 2005).
CHI_G_ATTRIBUTION = (
    "relies on the published identity chi(omega_tuples(m, d)) = m "
    "(Gyarfas-Jensen-Stiebitz 2004; Simonyi-Tardos 2006; Baum-Stiebitz 2005); "
    "not machine-checked"
)


# -- parameters ---------------------------------------------------------------


_INEQUALITIES = {
    # (name, predicate) pairs; all evaluated, conjunction wins.
    "c7": (
        ("c >= n+k+1", lambda k, c, n: c >= n + k + 1),
        ("n >= k+1", lambda k, c, n: n >= k + 1),
        ("c+1 <= n*k", lambda k, c, n: c + 1 <= n * k),
    ),
    "c5": (
        ("c >= n+1", lambda k, c, n: c >= n + 1),
        ("c >= 2k+1", lambda k, c, n: c >= 2 * k + 1),
        ("c >= 5", lambda k, c, n: c >= 5),
        ("c+1 <= n*k", lambda k, c, n: c + 1 <= n * k),
    ),
}


def parameter_check(k: int, c: int, n: int, variant: str) -> bool:
    """Evaluate the inequality set guarding one construction variant."""
    if variant not in _INEQUALITIES:
        raise ValueError(f"unknown inequality variant {variant!r}")
    if min(k, c, n) < 1:
        raise ValueError("parameters must be positive")
    return all(pred(k, c, n) for _, pred in _INEQUALITIES[variant])


def shifted(q: int, m: int, n: int) -> int:
    """Cyclic shift on [n]: the m-th element after q."""
    return (q - 1 + m) % n + 1


VARIANTS = {
    "c7": dict(k=2, c=7, n=4, d=2),
    "c5_refined": dict(k=2, c=5, n=3, d=3),
    "c5_wide": dict(k=2, c=5, n=3, d=6),
}

EXPECTED_COUNTS = {
    "c7": {"g_vertices": 16472, "g_edges": 437500, "h_vertices": 32, "h_edges": 168},
    "c5_refined": {"g_vertices": 4686, "g_edges": 36015, "h_vertices": 30, "h_edges": 108},
    "c5_wide": {"g_vertices": 54186, "g_edges": 428415, "h_vertices": 165, "h_edges": 648},
}


@dataclass(frozen=True)
class CounterexampleParams:
    """Fixed parameter bundle for one counterexample variant.

    ``reading`` picks the color-class selector inside the deepest g
    functions: "q" substitutes the active first coordinate, "literal" keeps
    the printed class 1 (and falls back to the outside value where that
    leaves a vertex unselected).  The readings differ on every variant:
    for q != 1 the literal one changes the g tables, and each variant then
    fails ``h_edges_real`` on one H edge.
    """

    variant: str
    k: int
    c: int
    n: int
    d: int
    reading: str = "q"

    @property
    def base(self) -> int:
        return self.c + 1

    @property
    def inequality_variant(self) -> str:
        return "c7" if self.variant == "c7" else "c5"

    def validate(self) -> None:
        # exact types: 2.0 == 2 would pass the comparisons below
        for name in ("k", "c", "n", "d"):
            if type(value := getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("variant", "reading"):
            if type(value := getattr(self, name)) is not str:
                raise ValueError(f"{name} must be a string, got {value!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        expected = VARIANTS[self.variant]
        actual = dict(k=self.k, c=self.c, n=self.n, d=self.d)
        if actual != expected:
            raise ValueError(f"variant {self.variant} requires {expected}, got {actual}")
        if self.reading not in ("q", "literal"):
            raise ValueError("reading must be 'q' or 'literal'")
        if self.n * self.k != self.base:
            raise ValueError("pairing shape must cover the base exactly")
        if not parameter_check(self.k, self.c, self.n, self.inequality_variant):
            raise ValueError("parameter inequalities violated")


def params_for(variant: str, reading: str = "q") -> CounterexampleParams:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    p = CounterexampleParams(variant=variant, reading=reading, **VARIANTS[variant])
    p.validate()
    return p


# -- function vertices --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FunctionVertex:
    """One vertex of the exponential graph: a total function V(G) -> [c].

    ``role`` is the structured identity (("const", i), ("f",),
    ("h", q, d, i, j) or ("g", q, d, i)); ``label`` is its printable form.
    """

    label: str
    role: tuple
    table: np.ndarray

    def __post_init__(self):
        self.table.flags.writeable = False

    def __repr__(self) -> str:
        return f"FunctionVertex({self.label})"


def _table_questions(
    g: Graph, vertices: list[FunctionVertex]
) -> tuple[np.ndarray, np.ndarray, int]:
    """(collisions, takes, distinct): every question the build asks of its
    tables, read off one quotient of the host.

    Host vertices with the same column of tables are interchangeable, so
    the tables are read on K column classes, one column of the (m, K) array
    ``qt`` each.  ``collisions`` is (m, m): entry [a, b] is True iff some
    edge u-v of g has a(u) = b(v) in either orientation, so a and b are
    adjacent exactly where it is False and the diagonal is the loop check.
    ``takes`` [x, a] says table a takes the value x (rows 0 up to the
    largest value), and ``distinct`` counts the distinct rows of ``qt``, so
    the distinct tables.

    Tables are int8 and their values are colors 0, 1, ...; a table of
    another dtype or with a negative value raises ValueError.  The classes
    are found on packed columns: with b the bit width of the largest value,
    each byte holds floor(8 / b) tables, b bits apiece (two tables for
    colors up to 7, one from b = 5 on), so for up to 7 colors ``np.unique``
    compares rows of m / 2 bytes, rounded up.  Packing is one-to-one, so
    the classes are those of the plain columns, and ``qt`` is read back
    from the unpacked tables at one host vertex per class.

    For the matrix, the distinct class pairs that host edges realize are
    sorted by source class, coded as int32 while K^2 fits.  Each color x
    that some table takes is visited once, in turn, on only the T tables
    that take it.  The ones taking x on a class are that class's row of T
    bits, packed into whole 64-bit words; OR-ing the words of each source
    class's partners gives the tables that take x next to it, and one
    (T x A) by (A x T) float32 product over the A source classes finds every
    (a, b) with a = x at a source and b = x at a partner.  Its sums never
    exceed A, so they are exact.
    """
    m = len(vertices)
    for v in vertices:
        if v.table.shape != (g.n,):
            raise ValueError("function table does not match the host vertex set")
        if v.table.dtype != np.int8:
            raise ValueError(f"function table {v.label} is {v.table.dtype}, not int8")
    # zero rows up to a multiple of 8 tables, so that every packing width
    # below finds whole bytes
    stack = np.zeros((-(-m // 8) * 8, g.n), dtype=np.int8)
    rows = np.stack([v.table for v in vertices], out=stack[:m])
    top = int(stack.view(np.uint8).max(initial=0))
    if top > np.iinfo(np.int8).max:
        bad = vertices[int(np.argmax(rows.min(axis=1) < 0))]
        raise ValueError(f"function table {bad.label} takes a negative value")
    width = max(top.bit_length(), 1)
    per = 8 // width
    lanes = stack.view(np.uint8)[: -(-m // per) * per].reshape(-(-m // per), per, g.n)
    packed = lanes[:, 0].copy()
    for j in range(1, per):
        packed |= lanes[:, j] << (width * j)
    del lanes
    # packed on the rows, then transposed into one contiguous (n, bytes)
    # array whose rows np.unique compares as single void values
    cols = np.ascontiguousarray(packed.T)
    del packed
    _, first, cls = np.unique(
        cols.view(np.dtype((np.void, cols.shape[1]))).ravel(),
        return_index=True,
        return_inverse=True,
    )
    del cols
    qt = np.take(rows, first, axis=1)
    del stack, rows, first
    k = qt.shape[1]
    cls = cls.astype(np.int32 if k * k < 1 << 31 else np.int64)
    eu, ev = edge_arrays(g)
    codes = _unique_sorted(np.take(cls, eu) * k + np.take(cls, ev))
    del cls
    pa, pb = np.divmod(codes, k)
    starts = np.flatnonzero(np.diff(pa, prepend=-1))
    sources = pa[starts]
    hit = np.zeros((m, m), dtype=bool)
    takes = np.zeros((top + 1, m), dtype=bool)
    for x in range(len(takes)):
        flags = qt == x
        takes[x] = flags.any(axis=1)
        at = np.flatnonzero(takes[x])
        if not at.size:
            continue
        flags = flags[at]
        # one row of T bits per class, padded with 0 bits to whole 64-bit words
        bits = np.zeros((k, -(-at.size // 64) * 64), dtype=bool)
        bits[:, : at.size] = flags.T
        packed = np.packbits(bits).view(np.uint64).reshape(k, -1)
        partners = np.bitwise_or.reduceat(np.take(packed, pb, axis=0), starts, axis=0)
        near = np.unpackbits(partners.view(np.uint8), axis=1, count=at.size).astype(np.float32)
        hit[np.ix_(at, at)] |= (np.take(flags, sources, axis=1).astype(np.float32) @ near) > 0
    distinct = len(set(map(bytes, qt)))
    return hit | hit.T, takes, distinct


def collision_matrix(g: Graph, vertices: list[FunctionVertex]) -> np.ndarray:
    """Every exponential-graph adjacency among ``vertices`` at once."""
    if not vertices:
        return np.zeros((0, 0), dtype=bool)
    return _table_questions(g, vertices)[0]


def _two_valued(
    outside: int | np.ndarray, inside: int | np.ndarray, region: np.ndarray
) -> np.ndarray:
    """The int8 table that is ``inside`` on the boolean ``region`` and
    ``outside`` off it, each a color or an int8 table, by arithmetic on the
    region's 0/1 bytes rather than a masked store."""
    return outside + (inside - outside) * region.view(np.int8)


def _selector_valued(
    outside: int,
    region: np.ndarray,
    selector_shells: list[tuple[int, np.ndarray]],
) -> np.ndarray:
    """Outside color off the region; on it, the value attached to the least
    selector shell containing the vertex.  ``selector_shells`` is a list of
    (value, boolean shell) in selector order; later entries are laid down
    first so the least one wins.  Region vertices left uncovered keep the
    outside color.
    """
    inside = outside
    for value, shell in reversed(selector_shells):
        inside = _two_valued(inside, value, shell)
    return _two_valued(outside, inside, region)


def build_special_family(
    class_shells: list[np.ndarray],
    params: CounterexampleParams,
    q: int,
) -> list[FunctionVertex]:
    """The named non-constant functions attached to one value q of the
    special function's color.

    ``class_shells`` holds the exact-distance shells of every class of the
    wide coloring at depths 0..d, as ``shell_bits`` gives them: bit
    ``(a-1)*k + (b-1)`` of ``class_shells[t][v]`` says v is in the depth-t
    shell of class (a, b).  Every h is two-valued (an outside color, another
    on one exact-distance shell of the class with first coordinate q); every
    g replaces the shell values by a per-subclass selector.  The index sets
    follow the variant.
    """
    if not 1 <= q <= params.n:
        raise ValueError("q out of range")
    c, n, k = params.c, params.n, params.k
    # Walks from a union of seeds end where walks from some seed end, so the
    # shells of class q are read off the bits of its k subclasses at once.
    q_bits = ((1 << k) - 1) << ((q - 1) * k)
    shells = [(bits & q_bits) != 0 for bits in class_shells]
    sel = q if params.reading == "q" else 1
    sel_shells = [
        (class_shells[params.d] & (1 << ((sel - 1) * k + b - 1))) != 0 for b in range(1, k + 1)
    ]

    def h(d: int, i: int, j: int) -> FunctionVertex:
        return FunctionVertex(
            label=f"h(q={q},d={d},i={i},j={j})",
            role=("h", q, d, i, j),
            table=_two_valued(i, j, shells[d]),
        )

    def gv(i: int, value_of_b) -> FunctionVertex:
        pairs = [(value_of_b(b), sel_shells[b - 1]) for b in range(1, k + 1)]
        return FunctionVertex(
            label=f"g(q={q},d={params.d},i={i})",
            role=("g", q, params.d, i),
            table=_selector_valued(i, shells[params.d], pairs),
        )

    out: list[FunctionVertex] = []
    if params.variant == "c7":
        minority = sorted(set(range(1, n + 1)) - {q})[:k]
        for j in range(n + 1, c + 1):
            out.append(h(1, q, j))
        for j in range(n + 1, c + 1):
            out.append(gv(j, lambda b: minority[b - 1]))
    elif params.variant == "c5_refined":
        out.append(h(1, q, 4))
        out.append(h(1, q, 5))
        out.append(h(2, 4, 5))
        out.append(h(2, 5, 4))
        out.append(h(2, 5, shifted(q, 2, n)))
        for i in (4, 5, shifted(q, 2, n)):
            out.append(gv(i, lambda b: shifted(q, b - 1, n)))
    else:
        for j in range(n + 1, c + 1):
            out.append(h(1, q, j))
        for i in sorted(set(range(1, c + 1)) - {q, c}):
            out.append(h(2, c, i))
        for i in sorted(set(range(1, c + 1)) - {q, c}):
            for j in sorted(set(range(1, c + 1)) - {c, i}):
                out.append(h(3, i, j))
        for j in range(1, c):
            for ell in sorted(set(range(1, c + 1)) - {j}):
                out.append(h(4, j, ell))
        for ell in range(1, c + 1):
            for i in sorted(set(range(1, c + 1)) - {ell}):
                out.append(h(5, ell, i))
        for i in range(k + 1, c + 1):
            out.append(gv(i, lambda b: b))
    return out


# -- assembly -----------------------------------------------------------------


@dataclass
class ReportItem:
    """One graded claim: its name, verdict (None when a search hit its
    budget) and evidence; a failed check's evidence names what failed."""

    name: str
    ok: bool | None
    detail: dict

    def line(self) -> str:
        mark = {True: "ok", False: "FAILED", None: "exhausted"}[self.ok]
        return f"{self.name}: {mark}"


@dataclass
class BuildResult:
    """The pair (G, H) of one variant and reading, with what the H checks
    read off its tables."""

    params: CounterexampleParams
    omega: OmegaGraph
    gamma: WideColoring
    vertices: list[FunctionVertex]
    h: Graph
    g_hash: str
    #: True where two tables collide (``collision_matrix(g, vertices)``).
    collisions: np.ndarray
    #: (c+1, m): entry [i, a] says table a takes color i; row 0 is unused.
    takes: np.ndarray

    @property
    def g(self) -> Graph:
        return self.omega.graph

    @property
    def labels(self) -> list[str]:
        return [v.label for v in self.vertices]


def _skeleton_edges(
    params: CounterexampleParams,
    vertices: list[FunctionVertex],
    takes: np.ndarray,
) -> list[tuple[int, int]]:
    """Edge list of H: exactly the adjacencies the coloring argument uses.

    Five deterministic rules: the constants are pairwise adjacent; const(i)
    joins every other function whose image misses i; f joins the level-1 h's;
    each deeper h joins one level-(d-1) predecessor whose inside value equals
    its own outside value (smallest admissible outside color); each g joins
    the g's sharing its q and one deepest-level h whose inside value equals
    its own outside value and whose outside value avoids im(g).  Images are
    read off ``takes``, the build's "takes color i" array.

    H is deliberately a spanning subgraph of what the exponential graph
    induces on these functions; the build verifies each listed edge against
    the collision matrix, and extra induced adjacencies are never needed.
    """
    c = params.c
    edges: set[tuple[int, int]] = set()

    def add(a: int, b: int) -> None:
        edges.add((a, b) if a < b else (b, a))

    for i in range(c):
        for j in range(i + 1, c):
            add(i, j)
    for idx in range(c, len(vertices)):
        for i in range(1, c + 1):
            if not takes[i, idx]:
                add(i - 1, idx)

    f_idx = c
    hs: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    gs: dict[int, list[tuple[int, int]]] = {}
    for idx, v in enumerate(vertices):
        if v.role[0] == "h":
            _, q, depth, i, j = v.role
            hs.setdefault((q, depth), []).append((i, j, idx))
        elif v.role[0] == "g":
            _, q, _, i = v.role
            gs.setdefault(q, []).append((i, idx))

    for (q, depth), entries in sorted(hs.items()):
        if depth == 1:
            for _, _, idx in entries:
                add(f_idx, idx)
            continue
        for i2, j2, idx in entries:
            prev = [
                (i1, idx1)
                for i1, j1, idx1 in hs[(q, depth - 1)]
                if j1 == i2 and i1 != j2
            ]
            if not prev:
                raise RuntimeError(f"no chain predecessor for {vertices[idx].label}")
            add(min(prev)[1], idx)

    for q, entries in sorted(gs.items()):
        for x in range(len(entries)):
            for y in range(x + 1, len(entries)):
                add(entries[x][1], entries[y][1])
        top = max(depth for qq, depth in hs if qq == q)
        for i, idx in entries:
            partner = [
                (i1, idx1)
                for i1, j1, idx1 in hs[(q, top)]
                if j1 == i and not takes[i1, idx]
            ]
            if not partner:
                raise RuntimeError(f"no pinned neighbor for {vertices[idx].label}")
            add(min(partner)[1], idx)

    return sorted(edges)


def _check(name: str, evidence: dict, error: object, **witness) -> ReportItem:
    """A build check as a report item: failed exactly when ``error`` is a
    message (not falsy), and then its evidence also carries the message and
    ``witness``."""
    if not error:
        return ReportItem(name, True, evidence)
    return ReportItem(name, False, evidence | witness | {"error": error})


def chain_check(
    build: BuildResult,
    q: int,
    depths: range = range(1, 5),
) -> tuple[int, tuple[str, str] | None]:
    """Exponential-graph adjacency between consecutive h levels whenever
    i != i', j != j' and i != j'.  Read off the build's collision matrix,
    not off H, since H keeps only one predecessor per vertex.  Returns
    (pairs checked, first failing label pair or None).
    """
    by_depth: dict[int, list[int]] = {}
    for idx, v in enumerate(build.vertices):
        if v.role[:2] == ("h", q):
            by_depth.setdefault(v.role[2], []).append(idx)
    checked = 0
    for d in depths:
        for a in by_depth.get(d, ()):
            _, _, _, i, j = build.vertices[a].role
            for b in by_depth.get(d + 1, ()):
                _, _, _, i2, j2 = build.vertices[b].role
                if i == i2 or j == j2 or i == j2:
                    continue
                checked += 1
                if build.collisions[a, b]:
                    return checked, (build.vertices[a].label, build.vertices[b].label)
    return checked, None


def checked_build(params: CounterexampleParams) -> tuple[BuildResult, list[ReportItem]]:
    """(the pair (G, H), its checks): the report items ``counts``,
    ``wide_coloring``, ``distinct_tables``, ``h_edges_real``,
    ``const_adjacency``, on c5_wide ``chain``, and ``chi_g``.

    One sweep (``shell_bits``) for every class of the wide coloring, one bit
    per class; wideness is one AND of the depth-d bits over the edge arrays,
    and a narrow class is named.  Loops, H edges, images and distinctness
    are all read off one ``_table_questions``.  A failed check does not stop
    the build: its item carries the ``error`` and what failed.  The coloring
    (v, f) -> f(v) of G x H is proper exactly when every edge of H is an
    edge of the exponential graph, so ``h_edges_real`` counts the ordered
    checks of that coloring; f ~ each level-one h and the pairwise edges of
    each g family are H edges, so that item decides them too.  The const
    rule compares each constant's collision row with the "takes color i"
    row, and ``chain`` (``chain_check`` at q = 1) reads pairs that are not H
    edges off the collision matrix.  A table with no collision is a proper
    c-coloring of G, so the loop check is the evidence of ``chi_g``.
    """
    params.validate()
    expected = EXPECTED_COUNTS[params.variant]
    c, d = params.c, params.d
    omega = omega_tuples(params.base, d)
    g = omega.graph
    gamma = _zero_position(omega, params.n, params.k)
    bits = np.min_scalar_type(1 << (params.n * params.k - 1))
    bit = (gamma.pairs[:, 0] - 1) * params.k + (gamma.pairs[:, 1] - 1)
    class_shells = shell_bits(g, np.left_shift(bits.type(1), bit.astype(bits)), d)
    eu, ev = edge_arrays(g)
    deep = class_shells[d]
    narrow_bits = int(np.bitwise_or.reduce(np.take(deep, eu) & np.take(deep, ev)))
    narrow = [
        (a, b)
        for a in range(1, params.n + 1)
        for b in range(1, params.k + 1)
        if (narrow_bits >> ((a - 1) * params.k + b - 1)) & 1
    ]

    vertices = [
        FunctionVertex(f"const({i})", ("const", i), np.full(g.n, i, dtype=np.int8))
        for i in range(1, c + 1)
    ]
    vertices.append(FunctionVertex(label="f", role=("f",), table=gamma.pairs[:, 0].copy()))
    for q in range(1, params.n + 1):
        vertices.extend(build_special_family(class_shells, params, q))
    m = len(vertices)
    collisions, takes, distinct = _table_questions(g, vertices)
    edges = _skeleton_edges(params, vertices, takes)
    h = new_graph(m, edges, label=f"H[{params.variant}]")
    build = BuildResult(
        params=params, omega=omega, gamma=gamma, vertices=vertices, h=h,
        g_hash=graph_sha256(g), collisions=collisions, takes=takes,
    )
    unreal = next(([vertices[x].label for x in e] for e in edges if collisions[e]), None)
    # const(i) is adjacent to w exactly where w misses i: a collision row of
    # a constant against its "takes color i" row, each constant's own loop aside
    wrong = collisions[:c] != takes[1:]
    np.fill_diagonal(wrong, False)
    first = np.argwhere(wrong.T)[:1].tolist()
    bad_const = next(([i + 1, vertices[idx].label] for idx, i in first), None)
    loop = next((v.label for idx, v in enumerate(vertices) if not collisions[idx, idx]), None)

    counts = {"g_vertices": g.n, "g_edges": g.edge_count, "h_vertices": m, "h_edges": h.edge_count}
    miscounted = [
        f"{key} is {n}, expected {expected[key]}" for key, n in counts.items() if n != expected[key]
    ]
    checks = [
        _check("counts", counts | {"expected": expected}, "; ".join(miscounted)),
        _check(
            "wide_coloring",
            {"condition": 2, "d": d, "classes": params.n * params.k, "edges_checked": g.edge_count},
            narrow and f"zero-position coloring is not {d}-wide on classes {narrow}",
            narrow=[list(p) for p in narrow],
        ),
        _check(
            "distinct_tables",
            {"tables": m, "count": distinct},
            distinct < m and f"only {distinct} of {m} tables are distinct",
        ),
        _check(
            "h_edges_real",
            {"count": h.edge_count, "ordered_checks": 2 * h.edge_count * g.edge_count},
            unreal and "H edge is not an edge of the exponential graph: " + " ~ ".join(unreal),
            edge=unreal,
        ),
        _check(
            "const_adjacency",
            {"rule": "const(i) exp-adjacent to w iff i not in im(w)"},
            bad_const and "const({0}) adjacency to {1} disagrees with its image".format(*bad_const),
            witness=bad_const,
        ),
    ]
    if params.variant == "c5_wide":
        pairs, broken = chain_check(build, q=1)
        checks.append(
            _check(
                "chain",
                {"pairs": pairs},
                broken and "consecutive h levels are not adjacent: " + " ~ ".join(broken),
                witness=broken and list(broken),
            )
        )
    checks.append(
        _check(
            "chi_g",
            {
                "colors": c,
                "status": "external_theorem",
                "attribution": CHI_G_ATTRIBUTION,
                "tables_checked": m,
            },
            loop and f"{loop} is a proper coloring of the host (loop)",
            loop=loop,
        )
    )
    return build, checks


def build_counterexample(params: CounterexampleParams) -> BuildResult:
    """Assemble the pair (G, H): host omega graph, wide coloring, and the
    skeleton subgraph of the exponential graph on the named functions.

    The ``error`` of the first failed check of ``checked_build`` (pinned
    counts, wideness, table distinctness, every H edge real in the
    exponential graph, the const rule, on c5_wide the chain, no loops) is
    raised as a RuntimeError.
    """
    build, checks = checked_build(params)
    failed = next((item for item in checks if not item.ok), None)
    if failed is not None:
        raise RuntimeError(failed.detail["error"])
    return build


# -- verification -------------------------------------------------------------


@dataclass
class Report:
    params: CounterexampleParams
    status: str
    items: list[ReportItem]
    build: BuildResult | None = None
    budgets: dict = field(default_factory=dict)

    def item(self, name: str) -> ReportItem:
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "params": asdict(self.params),
            "status": self.status,
            "budgets": self.budgets,
            "items": [
                {"name": it.name, "ok": it.ok, "detail": it.detail} for it in self.items
            ],
        }


def verify_counterexample(
    params: CounterexampleParams,
    budget: SearchBudget = DEFAULT_BUDGET,
    *,
    threads: int = 1,
) -> Report:
    """Run the whole pipeline and grade every claim.

    Three steps: the parameter inequalities, the checks of
    ``checked_build`` (counts, wideness, distinct tables, every H edge an
    exponential-graph edge, which makes the product coloring proper, the
    const rule, on c5_wide the chain, and no loops), and the search for a
    c-coloring of H, reported as ``chi_h`` after ``distinct_tables``.  A
    failed check does not stop the run; only an exception from the build is
    reported as ``build``.  The host's own chromatic excess is not searched:
    that item defers to the published identity for omega graphs over
    complete bases, so chi(H) is the one search a run makes.  ``threads`` is
    ignored; kept because perfbench/worker.py passes it.
    """
    items: list[ReportItem] = []
    budgets = {"search": {"nodes": budget.node_limit}}

    try:
        params.validate()
    except ValueError as err:
        items.append(ReportItem("parameters", False, {"error": str(err)}))
        return Report(params, FAILED, items, budgets=budgets)
    items.append(
        ReportItem(
            "parameters",
            True,
            {"inequalities": [name for name, _ in _INEQUALITIES[params.inequality_variant]]},
        )
    )

    try:
        build, checks = checked_build(params)
    except (RuntimeError, ValueError) as err:
        items.append(ReportItem("build", False, {"error": str(err)}))
        return Report(params, FAILED, items, budgets=budgets)

    c = params.c
    chi_h = find_coloring(build.h, c, budget)
    if chi_h.status == NONE:
        searched = ReportItem("chi_h", True, {"colors": c, "nodes": chi_h.nodes})
    elif chi_h.status == SOME:
        searched = ReportItem(
            "chi_h", False, {"colors": c, "coloring": chi_h.assignment, "nodes": chi_h.nodes}
        )
    else:
        searched = ReportItem(
            "chi_h", None, {"colors": c, "nodes": chi_h.nodes, "reason": chi_h.reason}
        )
    # checks[:3] is counts, wide_coloring, distinct_tables
    items += checks[:3] + [searched] + checks[3:]

    if any(it.ok is False for it in items):
        status = FAILED
    elif any(it.ok is None for it in items):
        status = INCOMPLETE
    else:
        status = PASS
    return Report(params, status, items, build, budgets=budgets)
