"""Undirected simple graphs and their clique complexes.

Vertices are 1-indexed externally; array positions are 0-indexed. The k-cliques
of a complex are ordered lexicographically, each one ascending. That ordering is
the canonical basis used by every operator matrix in this package, so it must be
reproducible bit for bit. A level of order k >= 2 is its face array: enumeration
records, once per graph, where each clique's faces sit in the level below, and
d_k, the counts and the keys read only that. A level is enumerated on its first
read (CliqueComplex._faces, the one path into _extend); enumerate_cliques reads
its top level at once. Every complex, eager or lazy, refuses a vertex count past
MAX_VERTICES when it is built, before any key is formed. Enumeration finds a candidate's faces by their keys,
which cannot overflow: by one gather from a direct-address table when the keys'
range is no larger than the number of queries, else by binary search. It refuses
an order whose candidates would not fit in physical memory before laying them
out; _check_fits is the one such check, which spectral's dense paths use too.
locate() finds cochain and weight table rows by binary search on the same keys.
level(k) builds the (N, k) vertex rows of an order k >= 3 from the faces on
first read, for output; cliques(k) is a tuple view of it that no computation
reads. A Graph stores its edges once, as the order-2 level itself: producers
pass it pair arrays, degrees and components are computed from it, and
sorted_edges is a view built from it on first read. Text tables are read by
whole arrays: numpy's C text reader (_loadtxt) reads a well-formed ASCII table
in one pass; where it refuses, or the table breaks a rule, one tokenizer
(_data_rows) and one conversion per block (_table) read it again, and the error
names the line of the first fault.
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass, field, fields
from functools import cached_property
from operator import isub

import numpy as np

MAX_VERTICES = 3_037_000_499  # the largest n with n(n+1) in int64: every _key stays below it
# bytes an order's step of _extend holds per candidate: its tracemalloc peak over the candidate count read 35.0-47.7
# at orders 3-5 of G(n, p) graphs and of a 300-vertex, 25,616-edge comparison graph (1,480,618 candidates, 53.6 MB)
_CANDIDATE_BYTES = 35
# a step needing fewer bytes is not checked against physical memory: importing numpy alone keeps ~27 MB resident
_CHECKED_FROM = 1 << 24


class InputFormatError(ValueError):
    """A text input (edge list, cochain table, CSV record) is malformed."""


def _equal(a, b) -> bool:
    """a == b, where arrays compare by np.array_equal and sparse matrices by shape and no entry of a != b, also inside
    tuples and dicts; the same object is equal to itself, as in Python's own containers."""
    if a is b:
        return True
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    sparse = sys.modules.get("scipy.sparse")  # not loaded: no sparse matrix exists
    if sparse is not None and sparse.issparse(a):
        return sparse.issparse(b) and a.shape == b.shape and (a != b).nnz == 0
    if isinstance(a, tuple):
        return type(a) is type(b) and len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict):
        return type(a) is type(b) and a.keys() == b.keys() and all(_equal(v, b[k]) for k, v in a.items())
    return a == b


def _fields_equal(self, other) -> bool:
    """__eq__ of every record that holds an array or a sparse matrix: the dataclass's own rule, same class and equal
    compared fields, by _equal, where the generated __eq__ would ask an array's == for one truth value and raise.
    hash() stays a TypeError where the generated __hash__ hashes an array."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    return all(_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self) if f.compare)


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph: a vertex count and its edges, stored once as the order-2 clique level.

    pairs is a read-only (m, 2) int64 array of ascending pairs in lexicographic order, without repeats.
    Graph(n, pairs) takes an (m, 2) array or any collection of ascending pairs, from_edges either
    orientation. sorted_edges is a tuple view built from pairs on first read.
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
        u, v = pairs.T
        if not ((u[1:] > u[:-1]) | (u[1:] == u[:-1]) & (v[1:] > v[:-1])).all():  # not yet ascending, without repeats
            pairs = pairs[np.lexsort(pairs.T[::-1])]
            pairs = pairs[(np.diff(pairs, axis=0, prepend=0) != 0).any(axis=1)]  # ids are >= 1: row 0 stays
        object.__setattr__(self, "pairs", _frozen(pairs))

    @classmethod
    def from_edges(cls, n_vertices: int, edges) -> "Graph":
        """Build a graph from (u, v) pairs in either orientation, as an array or any collection."""
        return cls(n_vertices, np.sort(_pair_array(edges), axis=1))

    __eq__ = _fields_equal

    def __hash__(self) -> int:
        return hash((self.n_vertices, self.pairs.tobytes()))

    @cached_property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(tuple, self.pairs.tolist()))

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(np.bincount(self.pairs.ravel() - 1, minlength=self.n_vertices).tolist())

    def connected_components(self) -> list[list[int]]:
        """Vertex lists of the connected components, each ascending, ordered by minimum vertex.

        Computed once per graph (_components) and kept in its memo as read-only arrays; each call returns new lists.
        """
        memo = self._memo
        if ("components", 2) not in memo:
            memo["components", 2] = _components(self)
        vertices, cuts = memo["components", 2]
        return [comp.tolist() for comp in np.split(vertices, cuts)]

    def is_connected(self) -> bool:
        return len(self.connected_components()) == 1

    @cached_property
    def _memo(self) -> dict:
        """The faces _extend recorded, what CliqueComplex._memo built from them and the components, keyed by
        (kind, order)."""
        return {}


def _components(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Graph.connected_components as (vertices, cuts), read-only: the vertices grouped by component, and where each
    group after the first starts. Root hooking on the edge array (Shiloach and Vishkin, J. Algorithms 1982): a round
    hooks every root under the least root it shares an edge with, then pointer jumping flattens the trees to stars.
    Roots only move down, so each root is its tree's least vertex."""
    ends = graph.pairs.T - 1
    root = np.arange(graph.n_vertices)
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
    return _frozen(order + 1), _frozen(cuts)


def _d0(graph: Graph, scale=1.0):
    """(D, D^T) on the edge array, D = diag(scale) d_0 for scale 1.0 or an edge vector: x[head] - x[tail] subtracted
    into the gather (scale * x[head] - scale * x[tail]), and one bincount adding -z_e, +z_e, z = scale * y, into each
    edge's tail and head in edge order, as CSC's product does. Both are bit for bit sp.diags(scale) @ the CSR d_0, save
    one case of D: where scale * x[head] is -0.0 and scale * x[tail] is +0.0, D gives -0.0 and CSR's 0.0 + -0.0 + -0.0
    gives 0.0."""
    n, ends = graph.n_vertices, graph.pairs.ravel() - 1
    tail, head, signed = ends[::2].copy(), ends[1::2].copy(), np.empty(len(ends))

    def adjoint(y: np.ndarray) -> np.ndarray:
        np.negative(y, out=signed[::2])
        signed[1::2] = y
        return np.bincount(ends, signed, minlength=n).astype(float, copy=False)  # int64 when there is no edge

    if np.ndim(scale):
        return lambda x: isub(scale * x[head], scale * x[tail]), lambda y: adjoint(scale * y)
    return lambda x: isub(x[head], x[tail]), adjoint


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


def _loadtxt(lines: list[str], dtype) -> np.ndarray | None:
    """lines by numpy's C text reader: whitespace-separated columns, `#` comments and blank lines skipped, as an (N,
    columns) array, (N, 1) for a structured dtype. None where it refuses, at any ValueError or warning: a token dtype
    does not read (a sign and ASCII digits for an int), a line of another width, or no data line. Callers pass the
    splitlines() of ASCII text only, where its splitting and number rules are str.split's, int()'s and float()'s less
    underscores, and read the text again by _data_rows wherever it refuses. (numpy 2.4.6 crashed with SIGSEGV, under
    some hash seeds, reading 10^5 lines in turn that each held another non-ASCII character.)"""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(lines, dtype, comments="#", ndmin=2)
    except (ValueError, Warning):
        return None


def _data_rows(text: str) -> tuple[range | list[int], list[list[str]]]:
    """The line numbers and tokens of the lines that hold any once `#` comments are cut (only when the text holds a
    `#`): one splitlines, one str.split per line. Only the error messages read the numbers."""
    lines = text.splitlines()
    rows = list(map(str.split, [line.partition("#")[0] for line in lines] if "#" in text else lines))
    kept = list(filter(None, rows))
    return range(1, len(rows) + 1) if len(kept) == len(rows) else [i for i, row in enumerate(rows, 1) if row], kept


def _table(rows: list[list[str]], width: int, number=int) -> tuple[np.ndarray, np.ndarray]:
    """Token rows as an (N, width) array by the rules of number, int (int64) or float, in one conversion, and each
    row's fault: 0, 1 where it does not hold width tokens, 2 where number rejects a token. When that conversion fails
    (a fault, or an int past int64) the rows are read one by one, ints as Python ints (object), faulty rows as 1s."""
    try:
        return np.array(rows, np.int64 if number is int else float).reshape(len(rows), width), np.zeros(len(rows), int)
    except (ValueError, OverflowError):
        pass

    def read(row: list[str]) -> tuple[list, int]:
        try:
            return ([number(token) for token in row], 0) if len(row) == width else ([1] * width, 1)
        except ValueError:
            return [1] * width, 2

    table, fault = zip(*map(read, rows))
    return np.array(table, dtype=object if number is int else float), np.array(fault)


def parse_graph(text: str) -> Graph:
    """Parse an edge-list document into a Graph.

    Format: `#` starts a comment, an optional header line `p n m` declares the
    vertex count, and every other non-blank line holds two distinct positive
    integers. Duplicate edge lines collapse to one edge; the vertex count is
    the larger of the header value and the maximum vertex id seen.
    """
    lines = text.splitlines()
    head = lines[0].partition("#")[0].split() if lines else []
    header = head[1:] if head[:1] == ["p"] else None
    if text.isascii() and text.count("p") == (header is not None):  # the header, if any, is the first line
        graph = _read_graph(lines, header)
        if graph is not None:
            return graph
    numbers, rows = _data_rows(text)
    heads = [i for i, row in enumerate(rows) if row[0] == "p"]
    for i in heads:
        rows[i] = rows[i][1:]  # p n m as n m
    pairs, fault = _table(rows, 2)
    head, (u, v) = np.isin(np.arange(len(rows)), heads), pairs.T
    fault = np.select([fault > 0, head & ((u < 1) | (u >= 2**63)), ~head & (u == v), ~head & ((u < 1) | (v < 1))],
                      [fault, 3, 3, 4])
    if fault.any():
        i = np.argmax(fault > 0)
        u, v = pairs[i].tolist()
        rules = ("header must be 'p <n> <m>'", "non-integer token in header", "header vertex count " + (
            f"{u} is past int64" if u >= 2**63 else "must be positive")) if head[i] else (
            f"expected two vertex ids, got {len(rows[i])} tokens", "non-integer token", f"self-loop {u} {v}",
            "vertex ids must be positive")
        raise InputFormatError(f"line {numbers[i]}: {rules[fault[i] - 1]}")
    edges = pairs[~head] if heads else pairs
    n = max(pairs[heads[-1], 0] if heads else 0, edges.max(initial=0))
    if n == 0:
        raise InputFormatError("document declares no vertices (no edges and no header)")
    return Graph.from_edges(int(n), edges)


def _read_graph(lines: list[str], header: list[str] | None) -> Graph | None:
    """parse_graph of a document whose only header, if any, is its first line (header: that line's tokens after the
    p), by _loadtxt, None where it refuses or a line breaks a rule parse_graph names."""
    n = 0
    if header is not None:
        try:
            n, _ = map(int, header)
        except ValueError:  # not two tokens, or not integers
            return None
        if not 1 <= n < 2**63:
            return None
    pairs = _loadtxt(lines[header is not None:], np.int64)
    if pairs is None or pairs.shape[1] != 2 or ((pairs[:, 0] == pairs[:, 1]) | (pairs < 1).any(axis=1)).any():
        return None
    return Graph.from_edges(max(n, int(pairs.max())), pairs)


def _key(prefix_position, last, n: int):
    """Key of a clique: (position of its prefix in the level below) * (n+1) + its last vertex.

    The prefix is all vertices but the last. Within a level the keys ascend as
    the cliques do. They stay below (size of the level below) * (n+1), so
    unlike base-(n+1) digits of every vertex they cannot overflow int64 for
    any level that fits in memory.
    """
    return np.asarray(prefix_position, dtype=np.int64) * (n + 1) + last  # int32 positions would wrap


@dataclass(frozen=True)
class CliqueComplex:
    """All k-cliques of a graph for k = 1..max_order, in lexicographic order.

    A level of order k >= 2 is its face array (see _faces), enumerated on first read, kept once per graph.
    Orders beyond max_order are served only when provably empty, i.e. when some
    level up to max_order is empty; otherwise asking for them is an error.
    Building one refuses max_order < 1 and a vertex count past MAX_VERTICES, before any key is formed.
    """

    graph: Graph
    max_order: int

    def __post_init__(self) -> None:
        if self.max_order < 1:
            raise ValueError(f"max_order must be >= 1, got {self.max_order}")
        if self.graph.n_vertices > MAX_VERTICES:
            raise ValueError(f"vertex count {self.graph.n_vertices} is above {MAX_VERTICES}: "
                             "clique keys would pass int64")

    @property
    def levels(self) -> tuple[np.ndarray, ...]:
        """level(k) for k = 1..max_order."""
        return tuple(map(self.level, range(1, self.max_order + 1)))

    def level(self, order: int) -> np.ndarray:
        """The read-only (N, order) int64 array of the cliques of the given order, one ascending clique per row.

        Order 2 is graph.pairs. An order k >= 3 is built from its faces on first read: row r is the row of
        level k-1 at face 0 (its prefix), then the last vertex of the row at face 1, which drops the
        second-to-last vertex.
        """
        if order > 2 and not self.n_cliques(order):
            return _frozen(np.empty((0, order), dtype=np.int64))
        return self._memo("level", order, lambda: self._vertex_rows(order))

    def _vertex_rows(self, order: int) -> np.ndarray:
        if order < 3:
            n = self.graph.n_vertices
            return self.graph.pairs if order == 2 else _frozen(np.arange(1, n + 1, dtype=np.int64)[:, None])
        below, faces = self.level(order - 1), self._faces(order)
        return _frozen(np.column_stack([below[faces[:, 0]], below[faces[:, 1], -1]]))

    def cliques(self, order: int) -> tuple[tuple[int, ...], ...]:
        """The cliques of the given order as ascending tuples: a view of level(order)."""
        return self._memo("cliques", order, lambda: tuple(map(tuple, self.level(order).tolist())))

    def n_cliques(self, order: int) -> int:
        """Size of a level, read from its faces without building its vertex rows."""
        return self.graph.n_vertices if order == 1 else len(self._faces(order))

    def locate(self, rows) -> np.ndarray:
        """Position of each row of vertex ids in the level of its length, or -1 where the row is no clique.

        A row is found only in the stored form of its clique, vertices ascending.
        """
        rows = np.asarray(rows, dtype=np.int64)
        n = self.graph.n_vertices
        pos = np.where(((rows >= 1) & (rows <= n)).all(axis=1), rows[:, 0] - 1, -1)
        for order in range(2, rows.shape[1] + 1):
            # a row already lost asks for key -1, which no clique has: every key is at least 1
            keep, at = _find(self._keys(order), np.where(pos >= 0, _key(pos, rows[:, order - 1], n), -1))
            pos = np.full_like(pos, -1)
            pos[keep] = at
        return pos

    def _keys(self, order: int) -> np.ndarray:
        """The ascending _key of every clique of the given order (>= 2), read from its faces: its prefix is
        face 0, and face 1 shares its last vertex, the key of that face modulo n+1."""
        faces, n = self._faces(order), self.graph.n_vertices
        if order == 2 or not len(faces):  # an edge's last vertex is its pair's; an empty level reads none
            return self._memo("keys", order, lambda: _key(faces[:, 0], self.graph.pairs[: len(faces), 1], n))
        return self._memo("keys", order, lambda: _key(faces[:, 0], self._keys(order - 1)[faces[:, 1]] % (n + 1), n))

    def _faces(self, order: int) -> np.ndarray:
        """Positions in level order-1 of each clique's faces, ascending: column i drops vertex order-1-i.

        Read-only, int32 while every position fits; empty past the first empty level. An order up to max_order
        that the graph has not recorded is enumerated, with the levels below it, on this first read.
        """
        self._cover(order)
        if order <= self.max_order and _top(self.graph) < order and self.clique_number() is None:
            _extend(self, order)
        faces = self.graph._memo.get(("faces", order))
        return _frozen(np.empty((0, order), dtype=np.int32)) if faces is None else faces

    def _cover(self, order: int) -> None:
        """Raise unless the order is at most max_order or provably empty: past an empty level up to max_order."""
        if order < 1:
            raise ValueError(f"clique order must be >= 1, got {order}")
        if order > self.max_order and self.n_cliques(self.max_order):
            raise ValueError(f"cliques of order {order} were not enumerated (max_order={self.max_order}) "
                             "and cannot be proven empty; re-enumerate with a larger max_order")

    def _memo(self, kind: str, order: int, build):
        """build(), run once per graph and shared under (kind, order) by all its complexes.

        order is the highest clique order the entry reads: _cover(order) raises
        first if this complex does not cover it, even when the graph holds it.
        Entries must never be modified in place, nor refer to a complex or the graph.
        """
        self._cover(order)
        memo = self.graph._memo
        if (kind, order) not in memo:
            memo[kind, order] = build()
        return memo[kind, order]

    def clique_number(self) -> int | None:
        """omega(G) when the enumeration settles it, else None (omega >= max_order)."""
        top = _top(self.graph)
        return top - 1 if 1 < top <= self.max_order and not len(self.graph._memo["faces", top]) else None


def enumerate_cliques(graph: Graph, max_order: int = 3) -> CliqueComplex:
    """All cliques of order 1..max_order, extending the enumeration already kept on the graph, enumerated now."""
    cx = CliqueComplex(graph, max_order)
    cx._faces(max_order)  # its first read enumerates it
    return cx


def _top(graph: Graph) -> int:
    """The highest order whose faces enumeration recorded, 1 before any: it stops at the first empty level."""
    return max((order for kind, order in graph._memo if kind == "faces"), default=1)


def _extend(cx: CliqueComplex, target: int) -> None:
    """Record the faces of every level above the graph's top up to order target, stopping after an empty one.

    Each k-clique Q is extended by the larger neighbours w of its last vertex, in
    ascending order, so the levels come out sorted. The face of (Q, w) without q_j
    is the child by w of Q's face without q_j, found by its key in level k; a
    candidate is kept when all are found. Q is the face without w, and at order 3
    the face without q_0 is the candidate's own edge. The keys of level k lie below
    (size of level k-1) * (n+1), so a lookup with at least that many queries reads
    them from a direct-address table (see _find). graph._memo["faces", order] keeps
    them, int32 when every position fits (see CliqueComplex._faces). Before an
    order's candidates are laid out, their count is checked against physical memory.
    """
    graph, n, edges = cx.graph, cx.graph.n_vertices, cx.graph.pairs
    order = _top(graph) + 1
    if order == 2:
        _keep_faces(graph, 2, [edges[:, 0] - 1, edges[:, 1] - 1], n)
        order = 3
    first = None  # the larger neighbours of vertex v are edges[first[v - 1]:first[v], 1]
    while order <= target and cx.n_cliques(order - 1):
        if first is None:  # n + 1 entries, laid out only when an order >= 3 is enumerated
            first = np.searchsorted(edges[:, 0], np.arange(1, n + 2))
        faces, keys = cx._faces(order - 1), cx._keys(order - 1)
        last = keys % (n + 1)
        start = first[last - 1]
        count = first[last] - start
        candidates = int(count.sum())
        if (need := _CANDIDATE_BYTES * candidates) >= _CHECKED_FROM:
            _check_fits(need, f"clique enumeration at order {order} has {candidates} candidates: it")
        parent = np.repeat(np.arange(len(faces)), count)
        # candidate t of a parent whose candidates begin at t0 is edge shift + t, shift = start - t0
        shift = start - np.cumsum(count) + count
        vertex = edges[np.repeat(shift, count) + np.arange(len(parent)), 1]
        found, bound = [], cx.n_cliques(order - 2) * (n + 1)  # every key of level order-1 lies below it
        for i in range(1, 2 if order == 3 else order):
            keep, at = _find(keys, _key(faces[parent, i - 1], vertex, n), bound)
            parent, vertex, found = parent[keep], vertex[keep], [f[keep] for f in found] + [at]
        if order == 3:
            found.append(shift[parent] + keep)
        _keep_faces(graph, order, [parent, *found], len(faces))
        order += 1


def _find(keys: np.ndarray, key: np.ndarray, bound: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Which of key are among the sorted keys, and where.

    By binary search, or, given a bound that every key and every query lies below and that is no larger than the
    number of queries, by one gather from a direct-address table of the keys' positions (Cormen, Leiserson, Rivest
    and Stein, Introduction to Algorithms, 11.1): int32 while the positions fit, it is at most half the queries' size.
    """
    if bound is not None and bound <= len(key):
        table = np.full(bound, -1, dtype=np.int32 if len(keys) <= 2**31 else np.int64)
        table[keys] = np.arange(len(keys))
        at = table.take(key)
        keep = np.flatnonzero(at >= 0)
    else:
        at = np.searchsorted(keys, key)
        keep = np.flatnonzero(keys.take(at, mode="clip") == key) if len(keys) else at[:0]
    return keep, at[keep]


def _check_fits(need: int, subject: str) -> None:
    """ValueError, "<subject> needs <need> bytes, more than the <memory> bytes of physical memory", when need exceeds
    physical memory, where os.sysconf can tell; called before anything of that size is allocated."""
    try:
        memory = max(os.sysconf("SC_PAGE_SIZE"), 0) * max(os.sysconf("SC_PHYS_PAGES"), 0)
    except (AttributeError, OSError, ValueError):
        memory = 0
    if memory and need > memory:
        raise ValueError(f"{subject} needs {need} bytes, more than the {memory} bytes of physical memory")


def _keep_faces(graph: Graph, order: int, columns: list[np.ndarray], below: int) -> None:
    """Store the face columns of level order as one read-only array, int32 when all `below` positions fit."""
    faces = np.empty((len(columns[0]), order), dtype=np.int32 if below <= 2**31 else np.int64)
    for i, column in enumerate(columns):
        faces[:, i] = column
    graph._memo["faces", order] = _frozen(faces)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array
