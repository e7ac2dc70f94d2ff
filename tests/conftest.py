"""Shared fixtures: golden graphs, random generators, and independent oracles."""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp

from graphhodge import (
    Cochain,
    ComparisonData,
    Graph,
    WeightScheme,
    aggregate,
    coboundary,
    decompose_game_flow,
    enumerate_cliques,
    game_flow,
    is_harmonic_game,
    is_potential_game,
    pure_nash,
    rank,
    strategy_graph,
)
from graphhodge.cochains import _key_text
from graphhodge.complexes import InputFormatError, _find, _key
from graphhodge.textio import fmt_float, json_dumps


# Two labeled directed graphs with identical graph-Laplacian spectra that the
# degree-1 Laplacian tells apart, and two that no Hodge Laplacian tells apart.
# Edges are kept in their original letter order with their printed directions
# so operator matrices can be compared row by row.

@dataclass(frozen=True)
class GoldenGraph:
    n: int
    directed_edges: tuple[tuple[int, int], ...]  # letter order a, b, c, ...

    @property
    def graph(self) -> Graph:
        return Graph.from_edges(self.n, self.directed_edges)

    @property
    def edge_signs(self) -> np.ndarray:
        """+1 where the printed direction is ascending, -1 where descending."""
        return np.array([1.0 if u < v else -1.0 for u, v in self.directed_edges])

    def edge_positions(self, cx) -> list[int]:
        """Position of each lettered edge in the complex's lexicographic edge list."""
        index = clique_index(cx, 2)
        return [index[tuple(sorted(e))] for e in self.directed_edges]


LAP_ISO_A = GoldenGraph(6, ((1, 2), (2, 3), (3, 4), (4, 1), (3, 5), (5, 6), (3, 6)))
LAP_ISO_B = GoldenGraph(6, ((1, 2), (2, 3), (3, 4), (4, 1), (3, 5), (4, 6), (6, 2)))
FULL_ISO_A = GoldenGraph(7, ((2, 1), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6), (4, 7)))
FULL_ISO_B = GoldenGraph(7, ((2, 1), (1, 3), (2, 3), (3, 4), (4, 5), (3, 6), (4, 7)))

GRAD_A = np.array([
    [-1, 1, 0, 0, 0, 0],
    [0, -1, 1, 0, 0, 0],
    [0, 0, -1, 1, 0, 0],
    [1, 0, 0, -1, 0, 0],
    [0, 0, -1, 0, 1, 0],
    [0, 0, 0, 0, -1, 1],
    [0, 0, -1, 0, 0, 1],
], dtype=float)

CURL_A = np.array([[0, 0, 0, 0, 1, 1, -1]], dtype=float)

LAPLACIAN_A = np.array([
    [2, -1, 0, -1, 0, 0],
    [-1, 2, -1, 0, 0, 0],
    [0, -1, 4, -1, -1, -1],
    [-1, 0, -1, 2, 0, 0],
    [0, 0, -1, 0, 2, -1],
    [0, 0, -1, 0, -1, 2],
], dtype=float)

LAPLACIAN_B = np.array([
    [2, -1, 0, -1, 0, 0],
    [-1, 3, -1, 0, 0, -1],
    [0, -1, 3, -1, -1, 0],
    [-1, 0, -1, 3, 0, -1],
    [0, 0, -1, 0, 1, 0],
    [0, -1, 0, -1, 0, 2],
], dtype=float)

HELMHOLTZIAN_A = np.array([
    [2, -1, 0, -1, 0, 0, 0],
    [-1, 2, -1, 0, -1, 0, -1],
    [0, -1, 2, -1, 1, 0, 1],
    [-1, 0, -1, 2, 0, 0, 0],
    [0, -1, 1, 0, 3, 0, 0],
    [0, 0, 0, 0, 0, 3, 0],
    [0, -1, 1, 0, 0, 0, 3],
], dtype=float)

HELMHOLTZIAN_B = np.array([
    [2, -1, 0, -1, 0, 0, 1],
    [-1, 2, -1, 0, -1, 0, -1],
    [0, -1, 2, -1, 1, -1, 0],
    [-1, 0, -1, 2, 0, 1, 0],
    [0, -1, 1, 0, 2, 0, 0],
    [0, 0, -1, 1, 0, 2, -1],
    [1, -1, 0, 0, 0, -1, 2],
], dtype=float)

SHARED_SPECTRUM_0 = np.sort([0.0, 3 - np.sqrt(5), 2.0, 3.0, 3.0, 3 + np.sqrt(5)])
SPECTRUM_1_A = np.sort([0.0, 3 - np.sqrt(5), 2.0, 3.0, 3.0, 3.0, 3 + np.sqrt(5)])
SPECTRUM_1_B = np.sort([0.0, 0.0, 3 - np.sqrt(5), 2.0, 3.0, 3.0, 3 + np.sqrt(5)])


def cycle_graph(n: int) -> Graph:
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return Graph.from_edges(n, edges)


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(1, n + 1), 2))


def wheel_graph(n: int) -> Graph:
    """Hub vertex n joined to every vertex of an (n-1)-cycle."""
    rim = [(i, i + 1) for i in range(1, n - 1)] + [(1, n - 1)]
    spokes = [(i, n) for i in range(1, n)]
    return Graph.from_edges(n, rim + spokes)


def random_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    edges = [(u, v) for u, v in combinations(range(1, n + 1), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_connected_graph(rng: np.random.Generator, n: int, extra: float = 0.3) -> Graph:
    """Random spanning tree plus extra random edges."""
    edges = set()
    order = list(rng.permutation(np.arange(1, n + 1)))
    for i in range(1, n):
        j = int(rng.integers(0, i))
        u, v = int(order[i]), int(order[j])
        edges.add((min(u, v), max(u, v)))
    for u, v in combinations(range(1, n + 1), 2):
        if rng.random() < extra:
            edges.add((u, v))
    return Graph(n, frozenset(edges))


def random_interval_graph(rng: np.random.Generator, n: int) -> Graph:
    """Intersection graph of random intervals; always chordal."""
    lo = rng.random(n)
    length = rng.random(n) * 0.6
    hi = lo + length
    edges = [
        (i + 1, j + 1)
        for i, j in combinations(range(n), 2)
        if lo[i] <= hi[j] and lo[j] <= hi[i]
    ]
    return Graph.from_edges(n, edges)


def tuple_graph(n_vertices: int, edges, orient: bool = False):
    """(edge frozenset, sorted edge tuples) by the per-edge checks Graph ran while it stored a frozenset;
    orient=True first canonicalizes each pair as from_edges did. Kept as oracle for the edge array."""
    if orient:
        canon = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            canon.add((min(u, v), max(u, v)))
        edges = canon
    edges = frozenset(edges)
    if n_vertices < 1:
        raise ValueError("graph must have at least one vertex")
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (1 <= u < v <= n_vertices):
            raise ValueError(f"edge ({u},{v}) not ascending or out of 1..{n_vertices}")
    return edges, tuple(sorted(edges))


def assert_is_tuple_graph(graph: Graph, n_vertices: int, edges, orient: bool = False) -> None:
    """graph's edge array and every view of it equal what tuple_graph gives for the same input."""
    frozen, ordered = tuple_graph(n_vertices, edges, orient)
    level = enumerate_cliques(graph, 2).level(2)
    assert level is graph.pairs
    assert level.dtype == np.int64 and level.shape == (len(ordered), 2) and not level.flags.writeable
    assert level.tolist() == [list(e) for e in ordered]
    assert graph.n_vertices == n_vertices
    assert edge_set(graph) == frozen and graph.sorted_edges == ordered
    assert all(type(v) is int for e in graph.sorted_edges for v in e)
    degrees = [0] * n_vertices
    for u, v in frozen:
        degrees[u - 1] += 1
        degrees[v - 1] += 1
    assert graph.degrees == tuple(degrees)
    oracle = Graph(n_vertices, ordered)
    assert graph == oracle and hash(graph) == hash(oracle)


def edge_set(graph: Graph) -> frozenset[tuple[int, int]]:
    """The edges as a frozenset of ascending pairs, the Graph.edges view no program read, kept for the oracles."""
    return frozenset(map(tuple, graph.pairs.tolist()))


def neighbor_sets(graph: Graph) -> tuple[frozenset[int], ...]:
    """Neighbour sets indexed by vertex (position 0 unused), the Graph.neighbors view no program read, kept for
    the oracles; the degree of v is len(neighbor_sets(graph)[v])."""
    sets = [set() for _ in range(graph.n_vertices + 1)]
    for u, v in graph.pairs.tolist():
        sets[u].add(v)
        sets[v].add(u)
    return tuple(map(frozenset, sets))


def clique_index(cx, order: int) -> dict[tuple[int, ...], int]:
    """Position of each clique of the given order, the CliqueComplex.index view no program read, kept as oracle."""
    return {c: i for i, c in enumerate(cx.cliques(order))}


def brute_force_cliques(graph: Graph, order: int) -> list[tuple[int, ...]]:
    out, edges = [], edge_set(graph)
    for subset in combinations(range(1, graph.n_vertices + 1), order):
        if all((a, b) in edges for a, b in combinations(subset, 2)):
            out.append(subset)
    return out


def loop_enumerate_levels(graph: Graph, max_order: int) -> list[tuple[tuple[int, ...], ...]]:
    """Clique levels by the tuple-at-a-time extension the array enumeration replaced.

    The exact oracle for enumerate_cliques: every level, in its order.
    """
    nbrs = neighbor_sets(graph)
    levels = [tuple((v,) for v in range(1, graph.n_vertices + 1))]
    for _ in range(2, max_order + 1):
        nxt = []
        for clique in levels[-1]:
            cands = nbrs[clique[0]]
            for v in clique[1:]:
                cands = cands & nbrs[v]
            last = clique[-1]
            for u in sorted(cands):
                if u > last:
                    nxt.append(clique + (u,))
        levels.append(tuple(nxt))
    return levels


def stacked_levels(graph: Graph, max_order: int) -> list[np.ndarray]:
    """Clique levels 1..max_order by the enumeration that stored every level as a stacked vertex array,
    kept as the oracle of level(k): one read-only (N, k) int64 array per order, empty levels included.

    A candidate (Q, w) is kept when each face (Q without q_j, w) is found by its key in level k; the
    new level is Q's row stacked with w, and its faces are recorded for the next order's keys.
    """
    n, edges = graph.n_vertices, graph.pairs
    levels = [np.arange(1, n + 1, dtype=np.int64)[:, None], edges][:max_order]
    faces = np.column_stack([edges[:, 0] - 1, edges[:, 1] - 1])
    first = np.searchsorted(edges[:, 0], np.arange(1, n + 2))
    while len(levels) < max_order:
        level, order = levels[-1], len(levels) + 1
        keys = _key(faces[:, 0], level[:, -1], n)
        start = first[level[:, -1] - 1]
        count = first[level[:, -1]] - start
        parent = np.repeat(np.arange(len(level)), count)
        shift = start - np.cumsum(count) + count
        vertex = edges[np.repeat(shift, count) + np.arange(len(parent)), 1]
        found = []
        for i in range(1, 2 if order == 3 else order):
            keep, at = _find(keys, _key(faces[parent, i - 1], vertex, n))
            parent, vertex, found = parent[keep], vertex[keep], [f[keep] for f in found] + [at]
        if order == 3:
            found.append(shift[parent] + keep)
        faces = np.column_stack([parent, *found])
        levels.append(np.column_stack([level[parent], vertex]))
    for level in levels:
        level.setflags(write=False)
    return levels


def locate_rows(cx, rows) -> np.ndarray:
    """CliqueComplex.locate on the keys of locate_keys: finds every prefix by binary search, never reads a face."""
    rows = np.asarray(rows, dtype=np.int64)
    n = cx.graph.n_vertices
    pos = np.where(((rows >= 1) & (rows <= n)).all(axis=1), rows[:, 0] - 1, -1)
    for order in range(2, rows.shape[1] + 1):
        keys = locate_keys(cx, order)
        key = _key(pos, rows[:, order - 1], n)
        at = np.searchsorted(keys, key)
        hit = (pos >= 0) & (at < len(keys))
        hit[hit] = keys[at[hit]] == key[hit]
        pos = np.where(hit, at, -1)
    return pos


def locate_keys(cx, order: int) -> np.ndarray:
    """The _key of every clique of the given order, its prefix located in the level below: the oracle of _keys."""
    level = cx.level(order)
    return _key(locate_rows(cx, level[:, :-1]), level[:, -1], cx.graph.n_vertices)


def locate_coboundary(cx, k: int) -> sp.csr_matrix:
    """d_k with each face of each (k+2)-clique located by binary search, as assembled before faces were recorded."""
    rows = cx.level(k + 2)
    n_rows, order = rows.shape
    drop = range(order - 1, -1, -1)
    indices = np.column_stack([locate_rows(cx, np.delete(rows, j, axis=1)) for j in drop]).ravel()
    data = np.tile([1.0 if j % 2 == 0 else -1.0 for j in drop], n_rows)
    indptr = np.arange(0, order * n_rows + 1, order)
    return sp.csr_matrix((data, indices, indptr), shape=(n_rows, cx.n_cliques(k + 1)))


def diags_coboundary(cx, j: int, w) -> sp.csr_matrix:
    """B_j = W_{j+1}^{1/2} d_j W_j^{-1/2} as the sp.diags product it was built as before its entries had one home:
    the cached d_j itself when neither of its levels has a weight table."""
    d = coboundary(cx, j).matrix
    if j + 1 not in w.tables and j + 2 not in w.tables:
        return d
    return sp.diags(np.sqrt(w.vector(cx, j + 1))) @ d @ sp.diags(1.0 / np.sqrt(w.vector(cx, j)))


def sparse_gram(cx, j: int, w) -> np.ndarray:
    """The smaller Gram of B_j as a sparse product made dense, the path the face-array Gram replaced: B B^T when
    B has fewer rows than columns, else B^T B."""
    b = diags_coboundary(cx, j, w)
    return (b @ b.T if b.shape[0] < b.shape[1] else b.T @ b).toarray()


def abs_gram_bound(m, right: np.ndarray) -> float:
    """|D|_1 |D|_inf >= |D^T D|_2 for D = m diag(right), m sparse, by products with abs(m): the CG stop bound
    decompose took before it read the bound off the face array."""
    mag = abs(m)
    col_sums = right * (mag.T @ np.ones(m.shape[0]))
    return float(np.max(mag @ right, initial=0.0) * np.max(col_sums, initial=0.0))


def coexact_bound(cx, k: int, w, sqrt_w: np.ndarray) -> float:
    """abs_gram_bound of D = W_{k+1} d_k, built as decompose builds it, scaled by W_k^{-1/2}."""
    d = coboundary(cx, k).matrix
    if k + 2 in w.tables:
        d = sp.diags(w.vector(cx, k + 1)) @ d
    return abs_gram_bound(d, 1.0 / sqrt_w)


def potential_bound(cx, k: int, sqrt_w: np.ndarray) -> float:
    """abs_gram_bound of d_{k-1}^T scaled by W_k^{1/2}: the square of a bound on |A_e|_2."""
    return abs_gram_bound(coboundary(cx, k - 1).matrix.T, sqrt_w)


def csr_edge_potential(c, w) -> tuple[np.ndarray, np.ndarray]:
    """(exact part, potential) of an edge flow c by decompose's CG with products with the CSR d_0 =
    coboundary(cx, 0), the potential solve the edge-array d_0 replaced: same stop, same gauge."""
    from graphhodge.decompose import SOLVER_RTOL, _cg, _mean_zero_gauge

    cx = c.complex
    d, w_edges = coboundary(cx, 0).matrix, w.vector(cx, 1)
    sqrt_w = np.sqrt(w_edges)
    atol = SOLVER_RTOL * np.sqrt(potential_bound(cx, 1, sqrt_w)) * np.linalg.norm(sqrt_w * c.values)
    g = _cg(lambda x: d.T @ (w_edges * (d @ x)), d.T @ (w_edges * c.values), atol, "the potential")
    g = _mean_zero_gauge(g, cx)
    return d @ g, g


def csr_vertex_coexact(c, w) -> tuple[np.ndarray, np.ndarray]:
    """(coexact part, prepotential) of a 0-cochain c by decompose's CG with products with the CSR D = W_1 d_0,
    sp.diags(W_1) @ coboundary(cx, 0) sorted, the solves the edge-array D replaced: same stops."""
    from graphhodge.decompose import SOLVER_RTOL, _cg

    cx = c.complex
    d, w_here = coboundary(cx, 0).matrix, w.vector(cx, 0)
    if 2 in w.tables:
        d = sp.diags(w.vector(cx, 1)) @ d
        d.sort_indices()
    sqrt_w = np.sqrt(w_here)
    bound, b = coexact_bound(cx, 0, w, sqrt_w), sqrt_w * c.values

    def gram(x):
        return (d.T @ (d @ (x / sqrt_w))) / sqrt_w

    coexact = _cg(gram, gram(b), SOLVER_RTOL * bound * np.linalg.norm(b), "the coexact part") / sqrt_w
    atol = SOLVER_RTOL * np.sqrt(bound) * np.linalg.norm(b)
    return coexact, _cg(lambda x: d @ ((d.T @ x) / w_here), d @ c.values, atol, "the prepotential")


# A 5-clique among 70,000 declared vertices: keys made of base-(n+1) digits of
# every vertex overflow int64 from order 4 on, since 70001**4 > 2**63.
BIG_FIVE_CLIQUE = Graph.from_edges(70_000, combinations((3, 17, 40_000, 69_999, 70_000), 2))


def oracle_graphs(rng: np.random.Generator):
    """(graph, max_order) pairs for checking levels and coboundaries against the loop oracles."""
    for _ in range(25):
        yield random_graph(rng, int(rng.integers(1, 15)), float(rng.uniform(0.2, 0.95))), 5
    yield complete_graph(7), 8
    yield Graph(6, frozenset()), 4
    inner = random_graph(rng, 8, 0.7)
    yield Graph(12, inner.pairs), 5  # vertices 9..12 isolated
    yield cycle_graph(4), 4
    yield BIG_FIVE_CLIQUE, 6


# Floats whose text is easy to get wrong: signed zeros, the smallest subnormal,
# extreme exponents, integral values and a repeating fraction.
SPECIAL_FLOATS = np.array([-0.0, 0.0, 5e-324, 1e-300, -1e-300, 1e300, -1e300, 3.0, -42.0, 1e15, 1 / 3])


def special_floats(rng: np.random.Generator, size: int) -> np.ndarray:
    """size seeded floats, about half from SPECIAL_FLOATS and the rest normal draws of random magnitude."""
    draws = rng.normal(size=size) * 10.0 ** rng.integers(-20, 20, size)
    return np.where(rng.random(size) < 0.5, rng.choice(SPECIAL_FLOATS, size), draws)


def with_value_at_random(rng: np.random.Generator, values: np.ndarray, value: float) -> np.ndarray:
    """A copy of a non-empty array with value at one random position."""
    out = values.copy()
    out[rng.integers(values.size)] = value
    return out


def raised_message(write) -> str:
    """The message of the ValueError write() raises; fails the test if it raises none."""
    with pytest.raises(ValueError) as info:
        write()
    return str(info.value)


def loop_write_cochain_tsv(c) -> str:
    """write_cochain_tsv by the per-clique loop over tuple views it replaced, kept as oracle."""
    for v in c.values:
        fmt_float(v)  # raises at the first nan or inf
    lines = []
    for clique, v in zip(c.complex.cliques(c.degree + 1), c.values):
        lines.append(" ".join(str(i) for i in clique) + " " + "%.12g" % v)
    return "\n".join(lines) + ("\n" if lines else "")


def sort_with_sign(vertices) -> tuple[tuple[int, ...], int]:
    """Sort a vertex tuple, returning (sorted tuple, permutation sign), one tuple at a time: the rule
    cochains._ascending applies to arrays, kept as its oracle.

    Sign is 0 when a vertex repeats (an alternating function vanishes there).
    """
    t = tuple(vertices)
    inversions = sum(a > b for i, a in enumerate(t) for b in t[i + 1 :])
    return tuple(sorted(t)), 0 if len(set(t)) < len(t) else 1 - 2 * (inversions % 2)


def index_eval(c, vertices) -> float:
    """Cochain.eval by a lookup in the clique_index dict of every clique, the path it replaced, kept as oracle."""
    sorted_t, sign = sort_with_sign(tuple(int(v) for v in vertices))
    if sign == 0:
        return 0.0
    idx = clique_index(c.complex, c.degree + 1).get(sorted_t)
    return 0.0 if idx is None else sign * float(c.values[idx])


def loop_write_matrix(mat) -> str:
    """write_matrix by the per-entry loop it replaced, kept as oracle."""
    coo = sp.coo_matrix(mat)
    for x in coo.data:
        fmt_float(x)  # raises at the first nan or inf
    order = np.lexsort((coo.col, coo.row))
    lines = ["%%MatrixMarket matrix coordinate real general",
             f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}"]
    for idx in order:
        lines.append(f"{coo.row[idx] + 1} {coo.col[idx] + 1} " + "%.12g" % coo.data[idx])
    return "\n".join(lines) + "\n"


def loop_json_array(values: np.ndarray) -> str:
    """A float array of any shape as JSON nested lists by one fmt_float call per element, the encoding json_dumps
    replaced."""
    def encode(x) -> str:
        return "[" + ", ".join(map(encode, x)) + "]" if isinstance(x, list) else fmt_float(x)

    return encode(values.tolist())


def loop_data_lines(text: str):
    """(line number, tokens) of each line that holds any once its `#` comment is cut off, one line at a time: the
    tokenizer complexes._data_rows replaced, kept as oracle."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


def loop_parse_graph(text: str) -> Graph:
    """parse_graph by the line-by-line loop with per-token int() calls and a list of tuples that the array reader
    replaced, kept as oracle: it raises at the first bad line, and an id past int64 reaches Graph.from_edges."""
    n_declared = 0
    edges: list[tuple[int, int]] = []
    for lineno, tokens in loop_data_lines(text):
        if tokens[0] == "p":
            if len(tokens) != 3:
                raise InputFormatError(f"line {lineno}: header must be 'p <n> <m>'")
            try:
                n_declared, _ = (int(t) for t in tokens[1:])
            except ValueError:
                raise InputFormatError(f"line {lineno}: non-integer token in header") from None
            if not 1 <= n_declared < 2**63:
                raise InputFormatError(f"line {lineno}: header vertex count " + (
                    f"{n_declared} is past int64" if n_declared >= 2**63 else "must be positive"))
            continue
        if len(tokens) != 2:
            raise InputFormatError(f"line {lineno}: expected two vertex ids, got {len(tokens)} tokens")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise InputFormatError(f"line {lineno}: non-integer token") from None
        if u == v:
            raise InputFormatError(f"line {lineno}: self-loop {u} {v}")
        if u < 1 or v < 1:
            raise InputFormatError(f"line {lineno}: vertex ids must be positive")
        edges.append((u, v))
    n = max(n_declared, max((max(e) for e in edges), default=0))
    if n == 0:
        raise InputFormatError("document declares no vertices (no edges and no header)")
    return Graph.from_edges(n, edges)


def loop_clique_lines(text: str, what: str):
    """(line number, ids as written, value) of each line `ids... value`, checked one line at a time with a set of
    the cliques seen: the reader cochains._clique_rows replaced, kept as oracle."""
    seen = set()
    for lineno, tokens in loop_data_lines(text):
        if len(tokens) < 2:
            raise InputFormatError(f"line {lineno}: expected vertex ids and a {what}")
        try:
            verts, value = tuple(int(t) for t in tokens[:-1]), float(tokens[-1])
        except ValueError:
            raise InputFormatError(f"line {lineno}: non-numeric token") from None
        clique = frozenset(verts)
        if len(clique) < len(verts):
            raise InputFormatError(f"line {lineno}: repeated vertex in {_key_text(verts)}")
        if clique in seen:
            raise InputFormatError(f"line {lineno}: duplicate {what} for {_key_text(tuple(sorted(verts)))}")
        seen.add(clique)
        yield lineno, verts, value


def loop_read_cochain_tsv(text: str, cx, degree: int | None = None) -> Cochain:
    """read_cochain_tsv by loop_clique_lines and a dict handed to Cochain.from_dict, kept as oracle."""
    entries: dict[tuple[int, ...], float] = {}
    for lineno, key, value in loop_clique_lines(text, "value"):
        if not np.isfinite(value):
            raise InputFormatError(f"line {lineno}: value must be finite, got {value}")
        if degree is None:
            degree = len(key) - 1
        if len(key) != degree + 1:
            raise InputFormatError(f"line {lineno}: expected {degree + 1} vertex ids, got {len(key)}")
        entries[key] = value
    if degree is None:
        raise InputFormatError("empty cochain document and no degree given")
    try:
        return Cochain.from_dict(cx, degree, entries)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from None


def loop_read_weights_tsv(text: str) -> WeightScheme:
    """read_weights_tsv by loop_clique_lines and a dict handed to WeightScheme.from_table, kept as oracle."""
    entries: dict[tuple[int, ...], float] = {}
    for lineno, key, value in loop_clique_lines(text, "weight"):
        if not 0 < value < np.inf:
            raise InputFormatError(f"line {lineno}: weight must be positive and finite, got {value}")
        entries[key] = value
    return WeightScheme.from_table(entries)


def outcome(read, *args):
    """What read(*args) gives: ("value", its result) or ("raise", exception type, message)."""
    try:
        return "value", read(*args)
    except Exception as exc:  # the oracle comparison is of any exception, type and message
        return "raise", type(exc), str(exc)


def tsv_lines(rows) -> str:
    """Rows as TSV by one formatting call per cell, the writer the column tables replaced, kept as oracle."""
    out = []
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (bool, np.bool_)):
                cells.append("true" if cell else "false")
            elif isinstance(cell, (float, np.floating)):
                cells.append(fmt_float(cell))
            else:
                cells.append(str(cell))
        out.append("\t".join(cells))
    return "\n".join(out) + ("\n" if out else "")


def loop_game_outputs(form) -> tuple[str, str]:
    """The game document and --flow-out TSV from one (name, name, x) triple per edge, kept as oracle."""
    sg = strategy_graph(form)
    flow = game_flow(form, sg)
    split = decompose_game_flow(flow)
    names = [",".join(p) for p in sg.profiles]
    edges = sg.graph.sorted_edges

    def flow_rows(cochain):
        return [(names[u - 1], names[v - 1], float(cochain.values[i])) for i, (u, v) in enumerate(edges)]

    payload = {
        "profiles": names,
        "flow": [[a, b, x] for a, b, x in flow_rows(flow)],
        "potential_flow": [[a, b, x] for a, b, x in flow_rows(split.potential_flow)],
        "harmonic_flow": [[a, b, x] for a, b, x in flow_rows(split.harmonic_flow)],
        "potential": {names[i]: float(v) for i, v in enumerate(split.potential.values)},
        "is_potential_game": is_potential_game(form),
        "is_harmonic_game": is_harmonic_game(form),
        "pure_nash": [",".join(p) for p in pure_nash(form)],
    }
    return json_dumps(payload) + "\n", tsv_lines(flow_rows(flow))


def loop_rank_outputs(csv_text: str, model: str) -> tuple[str, str]:
    """The rank document and --plot TSV from one dict per edge and one triple per item, kept as oracle."""
    cf = aggregate(ComparisonData.from_csv(csv_text), model=model)
    result = rank(cf)
    payload = result.to_json_dict()
    payload["model"] = model
    payload["edges"] = [
        {
            "item_i": cf.items[u - 1],
            "item_j": cf.items[v - 1],
            "x": float(cf.flow.values[i]),
            "weight": cf.weights.weight((u, v)),
        }
        for i, (u, v) in enumerate(cf.graph.sorted_edges)
    ]
    plot = tsv_lines((pos + 1, item, result.scores[item]) for pos, item in enumerate(result.order))
    return json_dumps(payload) + "\n", plot


def sparse_p_laplacian(graph: Graph, f: np.ndarray, p: float, mode: str = "interval") -> np.ndarray:
    """apply_p_laplacian by products with the sparse d_0 = coboundary(cx, 0), the path the edge-array
    gradient replaced, kept as oracle."""
    from graphhodge.operators import coboundary

    A = coboundary(enumerate_cliques(graph, 2), 0).matrix
    grad = A @ f
    if p > 1:
        return A.T @ (np.sign(grad) * np.abs(grad) ** (p - 1.0))
    fixed = A.T @ np.sign(grad)
    if mode == "selection":
        return fixed
    slack = abs(A).T @ (grad == 0).astype(float)
    return np.column_stack([fixed - slack, fixed + slack])


def sparse_cheeger_laplacian(graph: Graph) -> np.ndarray:
    """The Cheeger report's graph Laplacian as (A^T A).toarray() of the sparse d_0 it replaced, kept as oracle."""
    from graphhodge.operators import coboundary

    A = coboundary(enumerate_cliques(graph, 2), 0).matrix
    return (A.T @ A).toarray()


def quote_each_cell(ids: np.ndarray) -> list[list[str]]:
    """The label columns of a JSON table by one json.dumps call per cell, the quoting textio replaced."""
    return [list(map(json.dumps, col)) for col in ids.T.tolist()]


def union_find_components(graph: Graph) -> int:
    parent = list(range(graph.n_vertices + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edge_set(graph):
        parent[find(u)] = find(v)
    return len({find(v) for v in range(1, graph.n_vertices + 1)})


def dfs_connected_components(graph: Graph) -> list[list[int]]:
    """connected_components by the depth-first walk over neighbour sets it replaced, kept as oracle."""
    seen, nbrs = [False] * (graph.n_vertices + 1), neighbor_sets(graph)
    comps = []
    for start in range(1, graph.n_vertices + 1):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in nbrs[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


def loop_strategy_edges(shape: tuple[int, ...]) -> frozenset[tuple[int, int]]:
    """The strategy-graph edge set by the per-profile stride loop it replaced, kept as oracle."""
    strides = np.zeros(len(shape), dtype=int)
    acc = 1
    for i in reversed(range(len(shape))):
        strides[i] = acc
        acc *= shape[i]
    edges = set()
    for flat, idx in enumerate(np.ndindex(shape)):
        for player, size in enumerate(shape):
            for alt in range(idx[player] + 1, size):
                other = flat + (alt - idx[player]) * strides[player]
                edges.add((flat + 1, other + 1))
    return frozenset(edges)


def kendall_tau_distance(order_a, order_b) -> int:
    """Number of discordant pairs between two orderings of the same items."""
    pos = {item: i for i, item in enumerate(order_b)}
    seq = [pos[item] for item in order_a]
    return sum(
        1 for i, j in combinations(range(len(seq)), 2) if seq[i] > seq[j]
    )


def pinv_split(A_down: np.ndarray, A_up: np.ndarray, x: np.ndarray):
    """Dense pseudoinverse oracle for the unit-weight decomposition of x.

    exact = A_down pinv(A_down) restricted projection onto im(A_down),
    coexact = projection onto im(A_up^T); harmonic is the leftover.
    """
    if A_down.size:
        proj_exact = A_down @ np.linalg.pinv(A_down)
        exact = proj_exact @ x
    else:
        exact = np.zeros_like(x)
    if A_up.size:
        up_t = A_up.T
        proj_coexact = up_t @ np.linalg.pinv(up_t)
        coexact = proj_coexact @ x
    else:
        coexact = np.zeros_like(x)
    return exact, x - exact - coexact, coexact


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def c3_complex():
    return enumerate_cliques(cycle_graph(3), 3)


@pytest.fixture
def c4_complex():
    return enumerate_cliques(cycle_graph(4), 3)
