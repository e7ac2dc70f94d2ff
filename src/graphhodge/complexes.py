"""Undirected simple graphs and their clique complexes.

Vertices are 1-indexed externally; array positions are 0-indexed. A clique
complex stores, for every order k in 1..max_order, the list of k-cliques as
strictly ascending tuples, sorted lexicographically. That ordering is the
canonical basis used by every operator matrix in this package, so it must be
reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property


class InputFormatError(ValueError):
    """A text input (edge list, cochain table, CSV record) is malformed."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus a set of ascending edge pairs."""

    n_vertices: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n_vertices < 1:
            raise ValueError("graph must have at least one vertex")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u < v <= self.n_vertices):
                raise ValueError(f"edge ({u},{v}) not ascending or out of 1..{self.n_vertices}")

    @classmethod
    def from_edges(cls, n_vertices: int, edges) -> "Graph":
        """Build a graph from any iterable of (u, v) pairs, canonicalizing order."""
        canon = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            canon.add((min(u, v), max(u, v)))
        return cls(n_vertices, frozenset(canon))

    @cached_property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def neighbors(self) -> tuple[frozenset[int], ...]:
        """Neighbor sets indexed by vertex (position 0 unused)."""
        nbrs: list[set[int]] = [set() for _ in range(self.n_vertices + 1)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(frozenset(s) for s in nbrs)

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(self.neighbors[v]) for v in range(1, self.n_vertices + 1))

    def connected_components(self) -> list[list[int]]:
        """Vertex lists of the connected components, each ascending, ordered by minimum vertex."""
        seen = [False] * (self.n_vertices + 1)
        comps = []
        for start in range(1, self.n_vertices + 1):
            if seen[start]:
                continue
            stack, comp = [start], []
            seen[start] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for u in self.neighbors[v]:
                    if not seen[u]:
                        seen[u] = True
                        stack.append(u)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        return len(self.connected_components()) == 1


def parse_graph(text: str) -> Graph:
    """Parse an edge-list document into a Graph.

    Format: `#` starts a comment, an optional header line `p n m` declares the
    vertex count, and every other non-blank line holds two distinct positive
    integers. Duplicate edge lines collapse to one edge; the vertex count is
    the larger of the header value and the maximum vertex id seen.
    """
    n_declared = 0
    edges: set[tuple[int, int]] = set()
    max_seen = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if len(tokens) != 3:
                raise InputFormatError(f"line {lineno}: header must be 'p <n> <m>'")
            try:
                n_declared = int(tokens[1])
                int(tokens[2])
            except ValueError:
                raise InputFormatError(f"line {lineno}: non-integer token in header") from None
            if n_declared < 1:
                raise InputFormatError(f"line {lineno}: header vertex count must be positive")
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
        edges.add((min(u, v), max(u, v)))
        max_seen = max(max_seen, u, v)
    n = max(n_declared, max_seen)
    if n == 0:
        raise InputFormatError("document declares no vertices (no edges and no header)")
    return Graph(n, frozenset(edges))


@dataclass(frozen=True, eq=False)
class CliqueComplex:
    """All k-cliques of a graph for k = 1..max_order, in lexicographic order."""

    graph: Graph
    max_order: int
    levels: tuple[tuple[tuple[int, ...], ...], ...] = field(repr=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliqueComplex):
            return NotImplemented
        return self.graph == other.graph and self.max_order == other.max_order

    def __hash__(self) -> int:
        return hash((self.graph, self.max_order))

    def cliques(self, order: int) -> tuple[tuple[int, ...], ...]:
        """The list of cliques of the given order (number of vertices).

        Orders beyond max_order are served only when provably empty, i.e. when
        some enumerated level is already empty; otherwise enumeration never
        covered them and asking is an error.
        """
        if order < 1:
            raise ValueError(f"clique order must be >= 1, got {order}")
        if order <= self.max_order:
            return self.levels[order - 1]
        if any(len(level) == 0 for level in self.levels):
            return ()
        raise ValueError(
            f"cliques of order {order} were not enumerated (max_order={self.max_order}) "
            "and cannot be proven empty; re-enumerate with a larger max_order"
        )

    def n_cliques(self, order: int) -> int:
        """Size of a level; reads an enumerated level's length without visiting its cliques."""
        if 1 <= order <= self.max_order:
            return len(self.levels[order - 1])
        return len(self.cliques(order))

    def index(self, order: int) -> dict[tuple[int, ...], int]:
        """Position of each clique of the given order in the lexicographic list."""
        cache = self._index_cache
        if order not in cache:
            cache[order] = {c: i for i, c in enumerate(self.cliques(order))}
        return cache[order]

    @cached_property
    def _index_cache(self) -> dict[int, dict[tuple[int, ...], int]]:
        return {}

    @cached_property
    def _operator_cache(self) -> dict[tuple[str, int], object]:
        """Operators and spectra built once from this complex, keyed by (kind, degree).

        Entries are shared by every caller and must never be modified in place.
        """
        return {}

    def clique_number(self) -> int | None:
        """omega(G) when the enumeration settles it, else None (omega >= max_order)."""
        for order in range(1, self.max_order + 1):
            if not self.levels[order - 1]:
                return order - 1
        return None


def enumerate_cliques(graph: Graph, max_order: int = 3) -> CliqueComplex:
    """Enumerate all cliques of order 1..max_order by incremental lexicographic extension.

    Each k-clique is extended by vertices larger than its maximum that are
    adjacent to all of its members, which yields every level already sorted.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    nbrs = graph.neighbors
    levels: list[tuple[tuple[int, ...], ...]] = [
        tuple((v,) for v in range(1, graph.n_vertices + 1))
    ]
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
    return CliqueComplex(graph, max_order, tuple(levels))
