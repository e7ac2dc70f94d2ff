"""Undirected simple graphs and their clique complexes.

Vertices are 1-indexed externally; array positions are 0-indexed. A clique
complex stores, for every order k in 1..max_order, the k-cliques as a sorted
(N, k) integer array: one strictly ascending clique per row, rows in
lexicographic order. That ordering is the canonical basis used by every
operator matrix in this package, so it must be reproducible bit for bit.
locate() finds rows of vertex ids in a level by binary search on keys that
cannot overflow; cliques(k) and index(k) are tuple views no computation reads.
The levels and everything built from them are kept once per graph. A Graph
stores its edges once, as the order-2 level itself: producers pass it pair
arrays, degrees and components are computed from it, and edges, sorted_edges
and the neighbour sets are views built from it on first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class InputFormatError(ValueError):
    """A text input (edge list, cochain table, CSV record) is malformed."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph: a vertex count and its edges, stored once as the order-2 clique level.

    pairs is a read-only (m, 2) int64 array of ascending pairs in lexicographic order, without repeats.
    Graph(n, pairs) takes an (m, 2) array or any collection of ascending pairs, from_edges either
    orientation. edges, sorted_edges, neighbors and degree(v) are views built from pairs on first read.
    """

    n_vertices: int
    pairs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        n = self.n_vertices
        if not 1 <= n < 2**63:
            raise ValueError(f"vertex count {n} is past int64" if n >= 2**63 else "graph must have at least one vertex")
        pairs = _pair_array(self.pairs)
        bad = (pairs[:, 0] < 1) | (pairs[:, 0] >= pairs[:, 1]) | (pairs[:, 1] > n)
        if bad.any():
            u, v = pairs[np.argmax(bad)].tolist()
            raise ValueError(f"self-loop at vertex {u}" if u == v else
                             f"edge ({u},{v}) not ascending or out of 1..{n}")
        pairs = pairs[np.lexsort(pairs.T[::-1])]
        pairs = pairs[(np.diff(pairs, axis=0, prepend=0) != 0).any(axis=1)]  # ids are >= 1: row 0 stays
        pairs.setflags(write=False)
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def from_edges(cls, n_vertices: int, edges) -> "Graph":
        """Build a graph from (u, v) pairs in either orientation, as an array or any collection."""
        return cls(n_vertices, np.sort(_pair_array(edges), axis=1))

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n_vertices == other.n_vertices and \
            np.array_equal(self.pairs, other.pairs)

    def __hash__(self) -> int:
        return hash((self.n_vertices, self.pairs.tobytes()))

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.sorted_edges)

    @cached_property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(tuple, self.pairs.tolist()))

    @cached_property
    def neighbors(self) -> tuple[frozenset[int], ...]:
        """Neighbor sets indexed by vertex (position 0 unused)."""
        ends = np.concatenate([self.pairs, self.pairs[:, ::-1]])
        ends = ends[np.argsort(ends[:, 0], kind="stable")]
        cuts = np.searchsorted(ends[:, 0], np.arange(1, self.n_vertices + 1))
        return tuple(frozenset(part.tolist()) for part in np.split(ends[:, 1], cuts))

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(np.bincount(self.pairs.ravel() - 1, minlength=self.n_vertices).tolist())

    def connected_components(self) -> list[list[int]]:
        """Vertex lists of the connected components, each ascending, ordered by minimum vertex.

        Root hooking on the edge array (Shiloach and Vishkin, J. Algorithms 1982): a round hooks
        every root under the least root it shares an edge with, then pointer jumping flattens the
        trees to stars. Roots only move down, so each root is its tree's least vertex.
        """
        ends = self.pairs.T - 1
        root = np.arange(self.n_vertices)
        while True:
            hooked = root.copy()
            np.minimum.at(hooked, root[ends], root[ends[::-1]])
            if np.array_equal(hooked, root):
                break
            while not np.array_equal(hooked[hooked], hooked):
                hooked = hooked[hooked]
            root = hooked
        order = np.argsort(root, kind="stable")
        cuts = np.flatnonzero(np.diff(root[order])) + 1
        return [comp.tolist() for comp in np.split(order + 1, cuts)]

    def is_connected(self) -> bool:
        return len(self.connected_components()) == 1

    @cached_property
    def _levels(self) -> list[np.ndarray]:
        """The clique levels enumerated so far, orders 1, 2, ...; enumerate_cliques only appends."""
        vertices = np.arange(1, self.n_vertices + 1, dtype=np.int64)[:, None]
        vertices.setflags(write=False)
        return [vertices]

    @cached_property
    def _memo(self) -> dict:
        """What CliqueComplex._memo built from the levels, keyed by (kind, order)."""
        return {}


def _pair_array(pairs) -> np.ndarray:
    """pairs as an (m, 2) int64 array; ValueError at a wrong shape, a non-integral id or an id past int64."""
    given = pairs if isinstance(pairs, np.ndarray) else list(pairs)
    raw = np.asarray(given)
    raw = raw.reshape(0, 2) if raw.size == 0 else raw
    if raw.ndim != 2 or raw.shape[1] != 2:
        raise ValueError(f"edges must be vertex pairs, an (m, 2) array; got shape {raw.shape}")
    if raw.dtype.kind not in "bi":  # float, unsigned or object ids, checked as exact Python numbers
        ids = raw.astype(object)
        with np.errstate(invalid="ignore"):
            odd = (ids % 1 != 0).any(axis=1)  # nan and inf too: their remainder is nan
        if odd.any():
            raise ValueError("edge ({},{}) has a non-integral vertex id".format(*given[np.argmax(odd)]))
        past = np.argwhere((ids >= 2**63) | (ids < -(2**63)))
        if len(past):
            raise ValueError(f"vertex id {given[past[0, 0]][past[0, 1]]} is past int64")
    return raw.astype(np.int64)


def _data_lines(text: str):
    """(line number, tokens) of each line that holds any once its `#` comment is cut off."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


def parse_graph(text: str) -> Graph:
    """Parse an edge-list document into a Graph.

    Format: `#` starts a comment, an optional header line `p n m` declares the
    vertex count, and every other non-blank line holds two distinct positive
    integers. Duplicate edge lines collapse to one edge; the vertex count is
    the larger of the header value and the maximum vertex id seen.
    """
    n_declared = 0
    edges: list[tuple[int, int]] = []
    for lineno, tokens in _data_lines(text):
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


def _key(prefix_position, last, n: int):
    """Key of a clique: (position of its prefix in the level below) * (n+1) + its last vertex.

    The prefix is all vertices but the last. Within a level the keys ascend as
    the cliques do. They stay below (size of the level below) * (n+1), so
    unlike base-(n+1) digits of every vertex they cannot overflow int64 for
    any level that fits in memory.
    """
    return prefix_position * (n + 1) + last


@dataclass(frozen=True, eq=False)
class CliqueComplex:
    """All k-cliques of a graph for k = 1..max_order, in lexicographic order.

    levels[k-1] is a read-only (N, k) int64 array, one ascending clique per
    row, rows sorted lexicographically.
    """

    graph: Graph
    max_order: int
    levels: tuple[np.ndarray, ...] = field(repr=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliqueComplex):
            return NotImplemented
        return self.graph == other.graph and self.max_order == other.max_order

    def __hash__(self) -> int:
        return hash((self.graph, self.max_order))

    def level(self, order: int) -> np.ndarray:
        """The (N, order) array of the cliques of the given order (number of vertices).

        Orders beyond max_order are served only when provably empty, i.e. when
        some enumerated level is already empty; otherwise enumeration never
        covered them and asking is an error.
        """
        if order < 1:
            raise ValueError(f"clique order must be >= 1, got {order}")
        if order <= self.max_order:
            return self.levels[order - 1]
        if any(len(level) == 0 for level in self.levels):
            return np.empty((0, order), dtype=np.int64)
        raise ValueError(
            f"cliques of order {order} were not enumerated (max_order={self.max_order}) "
            "and cannot be proven empty; re-enumerate with a larger max_order"
        )

    def cliques(self, order: int) -> tuple[tuple[int, ...], ...]:
        """The cliques of the given order as ascending tuples: a view of level(order)."""
        return self._memo("cliques", order, lambda: tuple(map(tuple, self.level(order).tolist())))

    def n_cliques(self, order: int) -> int:
        """Size of a level, read without building its tuple view."""
        return len(self.level(order))

    def index(self, order: int) -> dict[tuple[int, ...], int]:
        """Position of each clique of the given order in the lexicographic list."""
        return self._memo("index", order, lambda: {c: i for i, c in enumerate(self.cliques(order))})

    def locate(self, rows) -> np.ndarray:
        """Position of each row of vertex ids in the level of its length, or -1 where the row is no clique.

        A row is found only in the stored form of its clique, vertices ascending.
        """
        rows = np.asarray(rows, dtype=np.int64)
        n = self.graph.n_vertices
        pos = np.where(((rows >= 1) & (rows <= n)).all(axis=1), rows[:, 0] - 1, -1)
        for order in range(2, rows.shape[1] + 1):
            keys = self._keys(order)
            key = _key(pos, rows[:, order - 1], n)
            at = np.searchsorted(keys, key)
            hit = (pos >= 0) & (at < len(keys))
            hit[hit] = keys[at[hit]] == key[hit]
            pos = np.where(hit, at, -1)
        return pos

    def _keys(self, order: int) -> np.ndarray:
        """The ascending _key of every clique of the given order (>= 2)."""
        level = self.level(order)
        n = self.graph.n_vertices
        return self._memo("keys", order, lambda: _key(self.locate(level[:, :-1]), level[:, -1], n))

    def _memo(self, kind: str, order: int, build):
        """build(), run once per graph and shared under (kind, order) by all its complexes.

        order is the highest clique order the entry reads: level(order) raises
        first if this complex does not cover it, even when the graph holds it.
        Entries must never be modified in place, nor refer to a complex or the graph.
        """
        self.level(order)
        memo = self.graph._memo
        if (kind, order) not in memo:
            memo[kind, order] = build()
        return memo[kind, order]

    def clique_number(self) -> int | None:
        """omega(G) when the enumeration settles it, else None (omega >= max_order)."""
        empty = [order - 1 for order, level in enumerate(self.levels, start=1) if len(level) == 0]
        return empty[0] if empty else None


def enumerate_cliques(graph: Graph, max_order: int = 3) -> CliqueComplex:
    """All cliques of order 1..max_order, extending the levels already kept on the graph."""
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    levels = graph._levels
    if len(levels) < max_order:
        _extend(graph, levels, max_order)
    return CliqueComplex(graph, max_order, tuple(levels[:max_order]))


def _extend(graph: Graph, levels: list[np.ndarray], max_order: int) -> None:
    """Append levels up to max_order: graph.pairs as order 2, each higher one by extending the one below.

    Each k-clique is extended by the neighbours of its last vertex that are
    larger than it, in ascending order, and a candidate is kept when its new
    vertex is adjacent to every other member: that edge's key must be among
    the sorted edge keys. Extending the cliques in order yields every level
    already sorted.
    """
    n = graph.n_vertices
    edges = graph.pairs
    if len(levels) == 1:
        levels.append(edges)
    edge_keys = _key(edges[:, 0] - 1, edges[:, 1], n)
    # the larger neighbours of vertex v are edges[first[v - 1]:first[v], 1]
    first = np.searchsorted(edges[:, 0], np.arange(1, n + 2))
    while len(levels) < max_order:
        level = levels[-1]
        start = first[level[:, -1] - 1]
        count = first[level[:, -1]] - start
        parent = np.repeat(np.arange(len(level)), count)
        # candidate t of a parent whose candidates begin at t0 is edge start + (t - t0)
        vertex = edges[np.repeat(start - np.cumsum(count) + count, count) + np.arange(len(parent)), 1]
        for j in range(level.shape[1] - 1):
            key = _key(level[parent, j] - 1, vertex, n)
            keep = edge_keys[np.minimum(np.searchsorted(edge_keys, key), len(edge_keys) - 1)] == key
            parent, vertex = parent[keep], vertex[keep]
        level = np.column_stack([level[parent], vertex])
        level.setflags(write=False)
        levels.append(level)
