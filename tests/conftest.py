"""Shared fixtures: golden graphs, random generators, and independent oracles."""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp

from graphhodge import (
    ComparisonData,
    Graph,
    aggregate,
    decompose_game_flow,
    enumerate_cliques,
    game_flow,
    is_harmonic_game,
    is_potential_game,
    pure_nash,
    rank,
    strategy_graph,
)
from graphhodge.cochains import sort_with_sign
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
        index = cx.index(2)
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
    assert graph.edges == frozen and graph.sorted_edges == ordered
    assert all(type(v) is int for e in graph.sorted_edges for v in e)
    degrees = [0] * n_vertices
    for u, v in frozen:
        degrees[u - 1] += 1
        degrees[v - 1] += 1
    assert graph.degrees == tuple(degrees)
    oracle = Graph(n_vertices, ordered)
    assert graph == oracle and hash(graph) == hash(oracle)


def brute_force_cliques(graph: Graph, order: int) -> list[tuple[int, ...]]:
    out = []
    for subset in combinations(range(1, graph.n_vertices + 1), order):
        if all((a, b) in graph.edges for a, b in combinations(subset, 2)):
            out.append(subset)
    return out


def loop_enumerate_levels(graph: Graph, max_order: int) -> list[tuple[tuple[int, ...], ...]]:
    """Clique levels by the tuple-at-a-time extension the array enumeration replaced.

    The exact oracle for enumerate_cliques: every level, in its order.
    """
    nbrs = graph.neighbors
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
    yield Graph(12, inner.edges), 5  # vertices 9..12 isolated
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


def index_eval(c, vertices) -> float:
    """Cochain.eval by a lookup in the index() dict of every clique, the path it replaced, kept as oracle."""
    sorted_t, sign = sort_with_sign(tuple(int(v) for v in vertices))
    if sign == 0:
        return 0.0
    idx = c.complex.index(c.degree + 1).get(sorted_t)
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
    """A float array as JSON by one fmt_float call per element, the encoding json_dumps replaced."""
    return "[" + ", ".join(fmt_float(x) for x in values.tolist()) + "]"


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
            "weight": result.edge_weights[(u, v)],
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

    for u, v in graph.edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(1, graph.n_vertices + 1)})


def dfs_connected_components(graph: Graph) -> list[list[int]]:
    """connected_components by the depth-first walk over neighbour sets it replaced, kept as oracle."""
    seen = [False] * (graph.n_vertices + 1)
    comps = []
    for start in range(1, graph.n_vertices + 1):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in graph.neighbors[v]:
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
def lap_iso_pair():
    return LAP_ISO_A, LAP_ISO_B


@pytest.fixture
def full_iso_pair():
    return FULL_ISO_A, FULL_ISO_B


@pytest.fixture
def c3_complex():
    return enumerate_cliques(cycle_graph(3), 3)


@pytest.fixture
def c4_complex():
    return enumerate_cliques(cycle_graph(4), 3)
