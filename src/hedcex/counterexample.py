"""Named vertex families inside exponential graphs, and their verification.

The exponential graph on c colors over a host G has all functions
V(G) -> [c] as vertices; it is far too large to materialize, so everything
here works with a handful of named functions: the constants, the first
projection of a wide coloring, and two-valued "h" / selector-valued "g"
functions supported on exact-distance neighborhoods of a color class.
Together with the host (an omega graph over a complete base) they form a
finite pair (G, H) whose tensor product is c-colorable while both factors
need more than c colors.  ``build_counterexample`` returns the pair with
its checks as named report items, each of which can fail; the coloring
(v, f) -> f(v) of G x H is proper exactly when every edge of H is an edge
of the exponential graph, so the product coloring is the ``h_edges_real``
check and is not scanned again.  ``verify_counterexample`` runs the full
pipeline and returns a machine-readable report.
"""

from __future__ import annotations

# Unused; kept because perfbench/test_perfbench.py asserts this binding.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .families import OmegaGraph, omega_shell_bits, omega_type_pairs, omega_vertices
from .graphs import Graph, graph_sha256, new_graph
from .solver import DEFAULT_BUDGET, NONE, SOME, SearchBudget, find_coloring
from .widecolor import WideColoring, _zero_position, narrow_bits

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
    The function is ``np.take(lookup, code)``: ``code`` is the type 0..K-1
    of every host vertex, shared with the other functions of its family,
    and ``lookup`` the int8 value of each type.
    """

    label: str
    role: tuple
    code: np.ndarray
    lookup: np.ndarray

    def __post_init__(self):
        self.code.flags.writeable = False
        self.lookup.flags.writeable = False

    def __repr__(self) -> str:
        return f"FunctionVertex({self.label})"


def _table(v: FunctionVertex) -> np.ndarray:
    """The host-length table of ``v``, made on demand and not kept."""
    return np.take(v.lookup, v.code)


def _fingerprint_weights(n: int) -> np.ndarray:
    """Fixed integer weights below 2^20 for host vertices 0..n-1, as float64:
    the top 20 bits of v + 1 times 2^64 over the golden ratio, modulo 2^64
    (Fibonacci hashing)."""
    spread = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return (spread >> np.uint64(44)).astype(np.float64)


def _table_questions(
    realized: list[np.ndarray],
    vertices: list[FunctionVertex],
    groups: list[tuple[np.ndarray, np.ndarray, list[int]]],
) -> tuple[np.ndarray, np.ndarray, int]:
    """(collisions, takes, distinct): every question the build asks of its
    tables, each asked within a group of tables on that group's vertex types.

    A group is (code, lut, members): the type 0..K-1 of each host vertex
    (each type taken), the (len(members), K) int8 lookups of the tables
    ``members`` on those types, colors 0..127, and their indices; table
    members[i] is ``lut[i][code]``, as is ``vertices[members[i]]`` on its
    own family's types.  ``realized[i]`` is the symmetric (K, K) relation of
    the type pairs that host edges join in group i (``omega_type_pairs``).
    ``collisions`` [a, b] of two tables that share a group is True iff some
    host edge u-v has a(u) = b(v) in either orientation, so a and b are
    adjacent exactly where it is False and the diagonal is the loop check;
    a pair that shares no group is not asked and reads True.  ``takes``
    [x, a] says table a takes the value x (rows 0 up to the largest value),
    and ``distinct`` counts the distinct tables.

    Every answer is read off the lookups.  A table's fingerprint is
    sum_v w(v) table(v) with the weights w(v) < 2^20 of
    ``_fingerprint_weights``: per group, the lookup times the per-type
    weight sums, exact in float64 (n 2^20 < 2^53) and int64 (127 n 2^20 <
    2^63).  Only tables that share a fingerprint are compared whole, each
    read off its code and lookup for that compare alone.  For each color
    x, with F the (tables x K) flags of taking x on each type and R a
    group's realized pairs, a and b collide on x exactly where F R F^T is
    nonzero; its float64 sums are exact.
    """
    m = len(vertices)
    top = max((int(lut.max(initial=0)) for _, lut, _ in groups), default=0)
    hit = np.ones((m, m), dtype=bool)
    takes = np.zeros((top + 1, m), dtype=bool)
    # every group's code covers the same host vertices
    weights = _fingerprint_weights(groups[0][0].size if groups else 0)
    fingerprints = np.zeros(m, dtype=np.int64)
    for code, lut, members in groups:
        type_weights = np.bincount(code, weights=weights, minlength=lut.shape[1])
        fingerprints[members] = lut.astype(np.int64) @ type_weights.astype(np.int64)
    kept: dict[int, list[FunctionVertex]] = {}
    for v, key in zip(vertices, fingerprints.tolist()):
        same = kept.setdefault(key, [])
        if not any(np.array_equal(_table(w), _table(v)) for w in same):
            same.append(v)
    distinct = sum(map(len, kept.values()))
    for (_, lut, members), pairs in zip(groups, realized):
        flags = [(lut == x).astype(np.float64) for x in range(top + 1)]
        takes[:, members] = [f.any(axis=1) for f in flags]
        hit[np.ix_(members, members)] = np.any([f @ pairs @ f.T for f in flags], axis=0)
    return hit, takes, distinct


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


def _family_shells(
    class_shells: list[np.ndarray], params: CounterexampleParams, q: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(shells, selectors), boolean over V(G): the shells of class q at
    depths 0..d (walks from a union of seeds end where walks from some seed
    end), and the depth-d shells of the subclasses of q, or of 1 ("literal").

    ``class_shells`` holds the exact-distance shells of every class of the
    wide coloring at depths 0..d, as ``omega_shell_bits`` gives them: bit
    ``(a-1)*k + (b-1)`` of ``class_shells[t][v]`` says v is in the depth-t
    shell of class (a, b).
    """
    k, sel = params.k, q if params.reading == "q" else 1
    q_bits, deep = ((1 << k) - 1) << ((q - 1) * k), class_shells[params.d]
    shells = [(bits & q_bits) != 0 for bits in class_shells]
    return shells, [(deep & (1 << ((sel - 1) * k + b))) != 0 for b in range(k)]


def build_special_family(
    shells: list[np.ndarray],
    selectors: list[np.ndarray],
    params: CounterexampleParams,
    q: int,
) -> list[tuple[str, tuple, np.ndarray]]:
    """(label, role, lookup) of each named non-constant function attached
    to one value q of the special function's color.

    ``shells`` and ``selectors`` are family q's boolean shells, as
    ``_family_shells`` gives them, read at one host vertex per type of the
    family: the exact-distance shells of the class with first coordinate q
    at depths 0..d, and the k depth-d selector shells.  Each lookup is then
    the function's value on each type.  Every h is two-valued (an outside
    color, another on one of ``shells``); every g replaces the shell values
    by a per-subclass selector.  The index sets follow the variant.
    """
    if not 1 <= q <= params.n:
        raise ValueError("q out of range")
    c, n, k = params.c, params.n, params.k

    def h(d: int, i: int, j: int) -> tuple[str, tuple, np.ndarray]:
        return f"h(q={q},d={d},i={i},j={j})", ("h", q, d, i, j), _two_valued(i, j, shells[d])

    def gv(i: int, value_of_b) -> tuple[str, tuple, np.ndarray]:
        pairs = [(value_of_b(b), selectors[b - 1]) for b in range(1, k + 1)]
        lookup = _selector_valued(i, shells[params.d], pairs)
        return f"g(q={q},d={params.d},i={i})", ("g", q, params.d, i), lookup

    out: list[tuple[str, tuple, np.ndarray]] = []
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
    #: True where two tables of one family collide; a pair across families reads True.
    collisions: np.ndarray
    #: (c+1, m): entry [i, a] says table a takes color i; row 0 is unused.
    takes: np.ndarray

    @property
    def g(self) -> Graph:
        return self.omega.graph

    @property
    def labels(self) -> list[str]:
        return [v.label for v in self.vertices]

    @cached_property
    def g_hash(self) -> str:
        """The host's hash, computed on its first read (by a pin) and kept."""
        return graph_sha256(self.g)


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
    build: BuildResult, depths: range = range(1, 5)
) -> tuple[int, tuple[str, str] | None]:
    """Exponential-graph adjacency between consecutive h levels of q = 1
    whenever i != i', j != j' and i != j'.  Read off the build's collision
    matrix, not off H, since H keeps only one predecessor per vertex.
    Returns (pairs checked, first failing label pair or None).
    """
    by_depth: dict[int, list[int]] = {}
    for idx, v in enumerate(build.vertices):
        if v.role[:2] == ("h", 1):
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


def build_counterexample(params: CounterexampleParams) -> tuple[BuildResult, list[ReportItem]]:
    """(the pair (G, H), its checks): the report items ``counts``,
    ``wide_coloring``, ``distinct_tables``, ``h_edges_real``,
    ``const_adjacency``, on c5_wide ``chain``, and ``chi_g``.

    One sweep for every class of the wide coloring, one bit per class, read
    off the host's coordinate rule (``omega_shell_bits``) to depth d + 1,
    so the build makes no CSR arrays; wideness is ``narrow_bits`` of the
    last two depths, and a narrow class is named.  A vertex's type in
    family q is its first coordinate under gamma and its bits in q's shells
    and selectors; one ``np.unique`` per family codes the types, and
    ``build_special_family`` runs at one vertex per type.  An H vertex is
    its family's code and its lookup; the constants and f, constant on
    every family's types, take family 1's code.  The host's edges are not
    written: ``omega_type_pairs`` reads the type pairs they realize in each
    family off the coordinate rule, with the edge count of ``counts``, and
    ``g`` writes them only for a pin.  Loops, H edges, images and
    distinctness are read off one ``_table_questions`` on those pairs,
    with one group per q (the constants, f and family q).  No H edge, const
    rule entry or ``chain`` pair joins two families; such a pair reads as a
    collision.  A failed check does not stop the build: its item carries
    the ``error`` and what failed.  The coloring (v, f) -> f(v) of G x H is
    proper exactly when every edge of H is an edge of the exponential
    graph, so ``h_edges_real`` counts the ordered checks of that coloring;
    f ~ each level-one h and the pairwise edges of each g family are H
    edges, so that item decides them too.  The const rule compares each
    constant's collision row with the "takes color i" row, and ``chain``
    (``chain_check``) reads pairs that are not H edges off the collision
    matrix.  A table with no collision is a proper c-coloring of G, so the
    loop check is the evidence of ``chi_g``.  It hashes no host: gamma is
    unpinned, and ``g_hash`` waits for a pin.
    """
    params.validate()
    expected = EXPECTED_COUNTS[params.variant]
    c, d, k = params.c, params.d, params.k
    omega = omega_vertices(params.base, d)
    gamma = _zero_position(omega, params.n, params.k)
    bits = np.min_scalar_type(1 << (params.n * params.k - 1))
    bit = (gamma.pairs[:, 0] - 1) * params.k + (gamma.pairs[:, 1] - 1)
    class_shells = omega_shell_bits(omega, np.left_shift(bits.type(1), bit.astype(bits)), d + 1)
    after = class_shells.pop()  # the shells one step past d serve wideness alone
    narrow_mask = int(narrow_bits(class_shells[d], after))
    narrow = [(j // k + 1, j % k + 1) for j in range(params.n * k) if narrow_mask >> j & 1]

    vertices: list[FunctionVertex] = []
    groups = []
    for q in range(1, params.n + 1):
        shells, selectors = _family_shells(class_shells, params, q)
        # a vertex's type in family q: f, then its bits in q's shells and selector shells
        types = gamma.pairs[:, 0].astype(np.int32)
        for flag in shells + selectors:
            types = types << 1 | flag
        # coded on the narrowest dtype: 16 bits or fewer take numpy's radix sort
        types = types.astype(np.min_scalar_type(types.max()))
        _, first, code = np.unique(types, return_index=True, return_inverse=True)
        code = code.astype(np.min_scalar_type(first.size - 1))  # uint8 sorts by radix
        # the constants and f are constant on the types of every family, and
        # as vertices they take family 1's
        fixed = [
            (f"const({i})", ("const", i), np.full(first.size, i, dtype=np.int8))
            for i in range(1, c + 1)
        ] + [("f", ("f",), gamma.pairs[first, 0])]
        if q == 1:
            vertices += [FunctionVertex(label, role, code, t) for label, role, t in fixed]
        family = build_special_family(
            [s[first] for s in shells], [s[first] for s in selectors], params, q
        )
        members = [*range(c + 1), *range(len(vertices), len(vertices) + len(family))]
        groups.append((code, np.stack([t for _, _, t in fixed + family]), members))
        vertices += [FunctionVertex(label, role, code, t) for label, role, t in family]
    del shells, selectors, types  # the last family's, freed before the table questions
    m = len(vertices)
    realized, g_edges = omega_type_pairs(omega, [(code, lut.shape[1]) for code, lut, _ in groups])
    collisions, takes, distinct = _table_questions(realized, vertices, groups)
    edges = _skeleton_edges(params, vertices, takes)
    h = new_graph(m, edges)
    build = BuildResult(params, omega, gamma, vertices, h, collisions, takes)
    unreal = next(([vertices[x].label for x in e] for e in edges if collisions[e]), None)
    # const(i) is adjacent to w exactly where w misses i: a collision row of
    # a constant against its "takes color i" row, each constant's own loop aside
    wrong = collisions[:c] != takes[1:]
    np.fill_diagonal(wrong, False)
    first = np.argwhere(wrong.T)[:1].tolist()
    bad_const = next(([i + 1, vertices[idx].label] for idx, i in first), None)
    loop = next((v.label for idx, v in enumerate(vertices) if not collisions[idx, idx]), None)

    counts = dict(g_vertices=omega.codes.size, g_edges=g_edges, h_vertices=m, h_edges=h.edge_count)
    miscounted = [
        f"{key} is {n}, expected {expected[key]}" for key, n in counts.items() if n != expected[key]
    ]
    checks = [
        _check("counts", counts | {"expected": expected}, "; ".join(miscounted)),
        _check(
            "wide_coloring",
            {"condition": 2, "d": d, "classes": params.n * params.k, "edges_checked": g_edges},
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
            {"count": h.edge_count, "ordered_checks": 2 * h.edge_count * g_edges},
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
        pairs, broken = chain_check(build)
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
    """Run the whole pipeline and grade every claim: the parameter
    inequalities, the checks of ``build_counterexample``, and the search
    for a c-coloring of H, reported as ``chi_h`` after ``distinct_tables``.
    A failed check does not stop the run; only an exception from the build
    is reported as ``build``.  The host's own chromatic excess is not
    searched (``chi_g`` defers to the published identity), so chi(H) is the
    one search a run makes.  ``threads`` is ignored; kept because
    perfbench/worker.py passes it.
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
        build, checks = build_counterexample(params)
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
