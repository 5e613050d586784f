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
pipeline and returns a machine-readable report.  A build writes no host
edge; the host's pin, ``BuildResult.g_hash``, reads ``OmegaGraph.sha256``.
H comes from its recipe alone, before any host: each function's role and
stated image (``_recipe``) give H's edges, a host's types then fill in each
role's lookup (``_lookup``), and ``const_adjacency`` checks each image.

The c7 recipe gives each family q the functions h(q,1,q,j) and g(q,2,j)
only for the k + 1 colors j = n+1..n+k+1 past n, which c >= n + k + 1
provides, because the argument walks no more.  In a c-coloring of H the
constants are a c-clique, so const(i) may be taken to have color i, and
every function, joined to each constant its image misses, has a color of
its image.  f takes [n], so it has some color q <= n; each h(q,1,q,j)
takes {q, j} and joins f, so it has color j; each g(q,2,j) takes j and q's
k minority colors and joins h(q,1,q,j), so it has a minority color; and
family q's k + 1 g's are pairwise adjacent, one more than k colors hold.
"""

from __future__ import annotations

# Unused; kept because perfbench/test_perfbench.py asserts this binding.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import asdict, dataclass, field

import numpy as np

from .families import OmegaGraph, omega_type_pairs, omega_vertices
from .graphs import Graph, new_graph
from .solver import DEFAULT_BUDGET, NONE, SOME, SearchBudget, find_coloring
from .widecolor import WideColoring, decide_zero_position

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
    ("h", q, d, i, j) or ("g", q, d, i, values), values its k selector
    values in selector order); ``label`` is its printable form;
    ``image`` is the set of colors its recipe states it takes.  The function
    is ``np.take(lookup, code)``: ``code`` is the type 0..K-1 of every host
    vertex, shared with the other functions of its family, and ``lookup``
    the int8 value of each type.
    """

    label: str
    role: tuple
    image: frozenset[int]
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
) -> tuple[np.ndarray, int]:
    """(collisions, distinct): every question the build asks of its
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
    a pair that shares no group is not asked and reads True.  ``distinct``
    counts the distinct tables.

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
        hit[np.ix_(members, members)] = np.any([f @ pairs @ f.T for f in flags], axis=0)
    return hit, distinct


def _two_valued(
    outside: int | np.ndarray, inside: int | np.ndarray, region: np.ndarray
) -> np.ndarray:
    """The int8 table that is ``inside`` on the boolean ``region`` and
    ``outside`` off it, each a color or an int8 table, by arithmetic on the
    region's 0/1 bytes rather than a masked store."""
    return outside + (inside - outside) * region.view(np.int8)


def _family_shells(
    class_shells: list[np.ndarray], params: CounterexampleParams, q: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(shells, selectors), boolean over V(G): the shells of class q at
    depths 0..d (walks from a union of seeds end where walks from some seed
    end), and the depth-d shells of the subclasses of q, or of 1 ("literal").

    ``class_shells`` holds the exact-distance shells of every class of the
    wide coloring at depths 0..d, as ``widecolor.decide_zero_position``
    gives them: bit ``(a-1)*k + (b-1)`` of ``class_shells[t][v]`` says v is in
    the depth-t shell of class (a, b).
    """
    k, sel = params.k, q if params.reading == "q" else 1
    q_bits, deep = ((1 << k) - 1) << ((q - 1) * k), class_shells[params.d]
    shells = [(bits & q_bits) != 0 for bits in class_shells]
    return shells, [(deep & (1 << ((sel - 1) * k + b))) != 0 for b in range(k)]


def _type_code(
    lead: np.ndarray, flags: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """(code, lead, flags) of the types of a vertex set: a vertex's type is
    its word, its ``lead`` value (nonnegative) followed by one bit per
    boolean array of ``flags``.  ``code`` numbers the words that occur
    0..K-1, ascending, in the narrowest unsigned dtype, as ``np.unique``'s
    inverse would; the lead values and the flags of the K types follow,
    decoded from their words by shifts.

    The words are built in the narrowest unsigned dtype their bits need and
    counted, not sorted: a word occurs where its flag in a table of one
    flag per word is set, and the cumulative sum of that table ranks it.
    """
    width = int(lead.max(initial=0)).bit_length() + len(flags)
    word = lead.astype(np.min_scalar_type((1 << width) - 1))
    for flag in flags:
        np.left_shift(word, 1, out=word)
        np.bitwise_or(word, flag, out=word)
    seen = np.zeros(1 << width, dtype=bool)
    seen[word] = True
    words = np.flatnonzero(seen)
    rank = np.cumsum(seen) - 1
    code = np.take(rank.astype(np.min_scalar_type(words.size - 1)), word)
    shifts = range(len(flags) - 1, -1, -1)
    return code, words >> len(flags), [(words >> s & 1).astype(bool) for s in shifts]


def build_special_family(
    params: CounterexampleParams, q: int
) -> list[tuple[str, tuple, frozenset]]:
    """(label, role, image) of each named non-constant function attached to
    one value q of the special function's color, stated with no host.

    Every h(q,d,i,j) is two-valued, i outside and j on the depth-d shell of
    the class with first coordinate q, and states the image {i, j}; every
    g(q,d,i) replaces the depth-d shell's values by the k values of a
    per-subclass selector, carried in order in its role ("g", q, d, i,
    values), and states those and its outside color i.  ``_lookup`` reads
    a role on a host's types.  The index sets follow the variant.
    """
    c, n, k = params.c, params.n, params.k

    def h(d: int, i: int, j: int) -> tuple[str, tuple, frozenset]:
        return f"h(q={q},d={d},i={i},j={j})", ("h", q, d, i, j), frozenset({i, j})

    def gv(i: int, values: list[int]) -> tuple[str, tuple, frozenset]:
        label = f"g(q={q},d={params.d},i={i})"
        return label, ("g", q, params.d, i, tuple(values)), frozenset({i, *values})

    out: list[tuple[str, tuple, frozenset]] = []
    if params.variant == "c7":
        minority = sorted(set(range(1, n + 1)) - {q})[:k]
        for j in range(n + 1, n + k + 2):
            out.append(h(1, q, j))
        for j in range(n + 1, n + k + 2):
            out.append(gv(j, minority))
    elif params.variant == "c5_refined":
        out += [h(1, q, 4), h(1, q, 5), h(2, 4, 5), h(2, 5, 4), h(2, 5, shifted(q, 2, n))]
        for i in (4, 5, shifted(q, 2, n)):
            out.append(gv(i, [shifted(q, b, n) for b in range(k)]))
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
            out.append(gv(i, list(range(1, k + 1))))
    return out


def _recipe(params: CounterexampleParams) -> list[tuple[str, tuple, frozenset]]:
    """(label, role, image) of every H vertex, in vertex order: the
    constants, f, then the families q = 1..n (``build_special_family``)."""
    fixed = [(f"const({i})", ("const", i), frozenset({i})) for i in range(1, params.c + 1)]
    fixed.append(("f", ("f",), frozenset(range(1, params.n + 1))))
    return fixed + [v for q in range(1, params.n + 1) for v in build_special_family(params, q)]


def _lookup(
    role: tuple, f: np.ndarray, shells: list[np.ndarray], selectors: list[np.ndarray]
) -> np.ndarray:
    """The int8 value of the function ``role`` names on each type of a
    family, given each type's first coordinate ``f`` and its bits in the
    family's shells and selectors (``_family_shells``).  On its shell a g
    takes the value of the least selector holding the type (later ones are
    laid down first), or its outside color where none does."""
    if role[0] == "const":
        return np.full(f.size, role[1], dtype=np.int8)
    if role[0] == "f":
        return f.astype(np.int8)
    if role[0] == "h":
        return _two_valued(role[3], role[4], shells[role[2]])
    inside = outside = role[3]
    for value, shell in reversed(list(zip(role[4], selectors))):
        inside = _two_valued(inside, value, shell)
    return _two_valued(outside, inside, shells[role[2]])


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
    """The pair (G, H) of one variant and reading, and its tables' collisions."""

    params: CounterexampleParams
    omega: OmegaGraph
    gamma: WideColoring
    vertices: list[FunctionVertex]
    h: Graph
    #: True where two tables of one family collide; a pair across families reads True.
    collisions: np.ndarray

    @property
    def labels(self) -> list[str]:
        return [v.label for v in self.vertices]

    @property
    def g_hash(self) -> str:  # the host's pin, read by certificates and the scripts
        return self.omega.sha256


def _skeleton_edges(
    params: CounterexampleParams, recipe: list[tuple[str, tuple, frozenset]]
) -> list[tuple[int, int]]:
    """Edge list of H, read off the (label, role, image) of each vertex in
    vertex order (``_recipe``) with no host: exactly the adjacencies the
    coloring argument uses.

    Four deterministic rules: const(i) joins every function whose image
    misses i, so the constants are pairwise adjacent; f joins the level-1 h's;
    each deeper h joins one level-(d-1) predecessor whose inside value equals
    its own outside value (smallest admissible outside color); each g joins
    the g's sharing its q and one deepest-level h whose inside value equals
    its own outside value and whose outside value avoids im(g).  Images are
    the recipes' statements, not the host's.

    H is deliberately a spanning subgraph of what the exponential graph
    induces on these functions; the build verifies each listed edge against
    the collision matrix, and extra induced adjacencies are never needed.
    """
    c = params.c
    edges: set[tuple[int, int]] = set()

    def add(a: int, b: int) -> None:
        edges.add((a, b) if a < b else (b, a))

    f_idx = c
    hs: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    gs: dict[int, list[tuple[int, int]]] = {}
    for idx, (_, role, image) in enumerate(recipe):
        for i in set(range(1, c + 1)) - image:
            add(i - 1, idx)
        if role[0] == "h":
            _, q, depth, i, j = role
            hs.setdefault((q, depth), []).append((i, j, idx))
        elif role[0] == "g":
            gs.setdefault(role[1], []).append((role[3], idx))

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
                raise RuntimeError(f"no chain predecessor for {recipe[idx][0]}")
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
                if j1 == i and i1 not in recipe[idx][2]
            ]
            if not partner:
                raise RuntimeError(f"no pinned neighbor for {recipe[idx][0]}")
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

    H comes first, from the parameters alone: ``_skeleton_edges`` reads the
    roles and stated images of ``_recipe``, so a recipe that cannot make H
    is refused before the host is enumerated.  Then one sweep for every
    class of the wide coloring, one bit per class, read off the host's
    coordinate rule (``widecolor.decide_zero_position``) to depth d + 1, so
    the build makes no CSR arrays; wideness is condition 2 on those bits,
    and a narrow class is named.  A vertex's type in family q is its first
    coordinate under gamma and its bits in q's shells and selectors, one
    word in 16 bits or fewer on every preset; the words are counted, not
    sorted (``_type_code``), and ``_lookup`` reads each role on each type's
    bits, decoded from its word.  An H vertex is its family's code and its
    lookup; the constants and f, constant on every family's types, take
    family 1's code.  The host's edges are not written:
    ``omega_type_pairs`` reads the type pairs they realize in each family
    off the coordinate rule, with the edge count of ``counts``.  Loops, H
    edges and distinctness are read off one ``_table_questions`` on those
    pairs, with one group per q (the constants, f and family q).  No H
    edge, const rule entry or ``chain`` pair joins two families; such a
    pair reads as a collision.  A failed check does not stop the build: its
    item carries the ``error`` and what failed.  The coloring (v, f) ->
    f(v) of G x H is proper exactly when every edge of H is an edge of the
    exponential graph, so ``h_edges_real`` counts the ordered checks of
    that coloring; f ~ each level-one h and the pairwise edges of each g
    family are H edges, so that item decides them too.  ``const_adjacency``
    decides each stated image: it compares each constant's collision row
    with them, and const(i) collides with w exactly where w takes i, as
    ``decide_zero_position`` refuses a host with an isolated vertex; it
    also refuses a lookup value outside 1..c, which no constant's row sees.
    ``chain`` (``chain_check``) reads pairs that are not H edges off the
    collision matrix.  A table with no collision is a proper c-coloring of
    G, so the loop check is the evidence of ``chi_g``.
    It hashes no host: gamma is unpinned, and ``g_hash``,
    ``omega.sha256``, waits for a pin.
    """
    params.validate()
    expected = EXPECTED_COUNTS[params.variant]
    c, d, k = params.c, params.d, params.k
    recipe = _recipe(params)
    m = len(recipe)
    edges = _skeleton_edges(params, recipe)
    h = new_graph(m, edges)
    omega = omega_vertices(params.base, d)
    gamma, class_shells, narrow_mask = decide_zero_position(omega, params.n, params.k)
    narrow = [(j // k + 1, j % k + 1) for j in range(params.n * k) if narrow_mask >> j & 1]

    tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    groups = []
    for q in range(1, params.n + 1):
        shells, selectors = _family_shells(class_shells, params, q)
        # a vertex's type in family q: f, then its bits in q's shells and selector shells
        code, f, flags = _type_code(gamma.pairs[:, 0], shells + selectors)
        bits = flags[: len(shells)], flags[len(shells) :]
        # the constants and f are constant on the types of every family, and
        # as vertices they take family 1's
        members = [x for x, (_, role, _) in enumerate(recipe) if x <= c or role[1] == q]
        lookups = [_lookup(recipe[x][1], f, *bits) for x in members]
        groups.append((code, np.stack(lookups), members))
        for x, lookup in zip(members, lookups):
            tables.setdefault(x, (code, lookup))
    del shells, selectors  # the last family's, freed before the table questions
    vertices = [FunctionVertex(*entry, *tables[x]) for x, entry in enumerate(recipe)]
    realized, g_edges = omega_type_pairs(omega, [(code, lut.shape[1]) for code, lut, _ in groups])
    collisions, distinct = _table_questions(realized, vertices, groups)
    build = BuildResult(params, omega, gamma, vertices, h, collisions)
    unreal = next(([vertices[x].label for x in e] for e in edges if collisions[e]), None)
    # const(i) collides with w exactly where w takes i, itself included:
    # each constant's collision row against the images the recipes state
    stated = np.array([[i in w.image for i in range(1, c + 1)] for w in vertices])
    first = np.argwhere(collisions[:c].T != stated)[:1].tolist()
    bad_const = next(([i + 1, vertices[idx].label] for idx, i in first), None)
    # a value outside 1..c leaves the product coloring no c-coloring, and
    # the constants' rows cannot see it
    outside = next(
        (
            [int(lut[r, t]), vertices[members[r]].label]
            for _, lut, members in groups
            for r, t in np.argwhere((lut < 1) | (lut > c))[:1].tolist()
        ),
        None,
    )
    const_error = None
    if outside:
        const_error = "{1} takes {0}, outside 1..{2}".format(*outside, c)
    elif bad_const:
        const_error = "const({0}) adjacency to {1} disagrees with its image".format(*bad_const)
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
            const_error,
            witness=outside or bad_const,
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
