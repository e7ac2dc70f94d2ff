"""Alternating k-cochains on a clique complex and weighted inner products.

A k-cochain stores one float per (k+1)-clique, in the complex's lexicographic clique order, in the canonical
orientation "ascending vertex order". Only the constructors put a key into it: `Cochain._from_keys` (of `from_dict`
and of the TSV reader's arrays) and `eval` by `_ascending`'s sort and sign, and the weight scheme's tables by a sort.
A weight scheme keeps, per order, an array of cliques and an array of their weights, read only in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .complexes import CliqueComplex, InputFormatError, _data_rows, _fields_equal, _loadtxt, _table
from .textio import id_value_lines


def _ascending(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of an (N, order) int array sorted ascending, and each row's sort sign, 0 where an id repeats."""
    i, j = np.triu_indices(rows.shape[1], 1)
    sign = 1.0 - 2.0 * ((rows[:, i] > rows[:, j]).sum(axis=1) % 2)
    sign[(rows[:, i] == rows[:, j]).any(axis=1)] = 0.0
    return np.sort(rows, axis=1), sign


def _key_text(key) -> str:
    """A key as tuple text of plain numbers (numpy scalars too); past six ids, its first four, "..." and its last."""
    ids = list(map(str, key)) if len(key) <= 6 else [*map(str, key[:4]), "...", str(key[-1])]
    return f"({', '.join(ids)}{',' * (len(ids) == 1)})"


@dataclass(frozen=True)
class WeightScheme:
    """Positive finite weight per clique, from per-order tables {order: (cliques, weights)}: an (N, order)
    int64 array of ascending cliques and a float array of their N weights.

    A clique missing from its order's table weighs 1, and so does every clique of an order without a
    table: unit weights are the scheme with no tables, and an empty table is dropped.
    """

    tables: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    __eq__ = _fields_equal

    def __post_init__(self) -> None:
        tables = {order: (_vertex_rows(cliques, order), np.asarray(weights, dtype=float))
                  for order, (cliques, weights) in self.tables.items()}
        for order, (cliques, weights) in tables.items():
            bad = ~((weights > 0) & (weights < math.inf))
            if bad.any():
                w, clique = weights[bad][0].item(), tuple(cliques[bad][0].tolist())
                raise ValueError(f"weight {w} for {_key_text(clique)} (order {order}) must be positive and finite")
        object.__setattr__(self, "tables", {order: table for order, table in tables.items() if table[1].size})

    @property
    def mode(self) -> str:
        """Derived kind, "unit" when no order has a table and "table" otherwise."""
        return "table" if self.tables else "unit"

    @classmethod
    def unit(cls) -> "WeightScheme":
        return cls()

    @classmethod
    def from_table(cls, entries: dict[tuple[int, ...], float]) -> "WeightScheme":
        """One {clique: weight} mapping, ids in any order, as a scheme; a clique named twice keeps its last weight."""
        tables: dict[int, dict[tuple[int, ...], float]] = {}
        for clique, w in entries.items():
            tables.setdefault(len(clique), {})[tuple(sorted(clique))] = float(w)
        return cls({order: (list(t), list(t.values())) for order, t in tables.items()})

    def weight(self, clique: tuple[int, ...]) -> float:
        cliques, weights = self.tables.get(len(clique), (np.empty((0, len(clique))), ()))
        hit = np.flatnonzero((cliques == sorted(clique)).all(axis=1))
        return float(weights[hit[-1]]) if hit.size else 1.0

    def vector(self, cx: CliqueComplex, degree: int) -> np.ndarray:
        """Weights of all (degree+1)-cliques in the complex's canonical order."""
        out = np.ones(cx.n_cliques(degree + 1))
        if degree + 1 in self.tables:
            cliques, weights = self.tables[degree + 1]
            pos = cx.locate(cliques)  # -1: a clique not in cx
            out[pos[pos >= 0]] = weights[pos >= 0]
        return out


def _vertex_rows(keys, order: int) -> np.ndarray:
    """Vertex-id tuples, array rows or a flat id sequence, `order` ids per clique, as an int64 array of `order`
    columns (an int64 array uncopied), an id past int64 as 0 (it names no vertex, and neither does 0); ValueError,
    naming the first clique that holds one as given, at a non-integral id."""
    rows = np.asarray(keys)
    rows = rows.reshape(-1 if rows.size else len(rows), order)  # an empty key too
    if rows.dtype.kind in "fuO":  # float, unsigned or object ids, checked as exact Python numbers
        ids = rows.astype(object)
        with np.errstate(invalid="ignore"):
            odd = (ids % 1 != 0).any(axis=1)  # nan and inf too: their remainder is nan
        if odd.any():
            first = int(np.argmax(odd))
            given = keys[first] if np.ndim(keys[first]) else ids[first]  # a flat sequence's ids as its row
            raise ValueError(f"{_key_text(tuple(given))} has a non-integral vertex id")
        rows = np.where(abs(ids) < 2**63, ids, 0)
    return rows.astype(np.int64, copy=False)


@dataclass(frozen=True)
class Cochain:
    """Alternating k-cochain: degree, owning complex, and dense coordinates."""

    degree: int
    complex: CliqueComplex
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError("cochain degree must be >= 0")
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        expected = self.complex.n_cliques(self.degree + 1)
        if vals.shape != (expected,):
            raise ValueError(
                f"degree-{self.degree} cochain needs {expected} values, got shape {vals.shape}"
            )

    __eq__ = _fields_equal

    @classmethod
    def zero(cls, cx: CliqueComplex, degree: int) -> "Cochain":
        return cls(degree, cx, np.zeros(cx.n_cliques(degree + 1)))

    @classmethod
    def from_dict(cls, cx: CliqueComplex, degree: int, entries: dict[tuple[int, ...], float]) -> "Cochain":
        """Build from {vertex tuple: value}, tuples in any order: each value takes the sign of its tuple's sort.

        Raises ValueError at the first key, in mapping order, that repeats a
        vertex or is not a clique of order degree+1. A clique named twice keeps
        its last value.
        """
        return cls._from_keys(cx, degree, list(entries), list(entries.values()))

    @classmethod
    def _from_keys(cls, cx: CliqueComplex, degree: int, keys, values) -> "Cochain":
        """from_dict of keys (vertex tuples or id array rows) and values: the one locate-and-sign path."""
        order = degree + 1
        if isinstance(keys, np.ndarray):  # rows of one width: no Python loop over them
            sized = np.full(len(keys), keys.shape[1] == order)
        else:
            sized = np.fromiter(map(len, keys), dtype=np.int64, count=len(keys)) == order
        rows, sign = _ascending(_vertex_rows(keys if sized.all() else [k for k, ok in zip(keys, sized) if ok], order))
        pos = np.full(len(keys), -1)
        pos[sized] = cx.locate(rows)  # a repeated vertex is never found
        if (pos < 0).any():  # decided on the key: rows hold an id past int64 as 0
            key = keys[np.argmax(pos < 0)]
            _vertex_rows([key], len(key))  # a non-integral id in a key of any length, named as given
            if len(set(map(int, key))) < len(key):
                raise ValueError(f"repeated vertex in {_key_text(key)}")
            raise ValueError(f"{_key_text(tuple(sorted(map(int, key))))} is not a clique of order {order}")
        signed = sign * np.asarray(values, dtype=float)
        last = len(pos) - 1 - np.unique(pos[::-1], return_index=True)[1]
        vals = np.zeros(cx.n_cliques(order))
        vals[pos[last]] = signed[last]
        return cls(degree, cx, vals)

    def eval(self, vertices) -> float:
        """Value at a vertex tuple, with the alternating sign convention.

        Returns 0 for repeated vertices and for tuples that are not cliques.
        """
        t = tuple(int(v) for v in vertices)
        if len(t) != self.degree + 1:
            raise ValueError(f"expected {self.degree + 1} vertices, got {len(t)}")
        n = self.complex.graph.n_vertices
        for v in t:
            if not 1 <= v <= n:
                raise ValueError(f"vertex {v} out of range 1..{n}")
        rows, sign = _ascending(np.array([t]))
        idx = self.complex.locate(rows)[0]  # a repeated vertex is never found
        return 0.0 if idx < 0 else float(sign[0] * self.values[idx])

    def __neg__(self) -> "Cochain":
        return Cochain(self.degree, self.complex, -self.values)

    def __add__(self, other: "Cochain") -> "Cochain":
        _check_compatible(self, other)
        return Cochain(self.degree, self.complex, self.values + other.values)

    def __sub__(self, other: "Cochain") -> "Cochain":
        _check_compatible(self, other)
        return Cochain(self.degree, self.complex, self.values - other.values)

    def __mul__(self, scalar: float) -> "Cochain":
        return Cochain(self.degree, self.complex, self.values * float(scalar))

    __rmul__ = __mul__


def _check_compatible(f: Cochain, g: Cochain) -> None:
    if f.degree != g.degree:
        raise ValueError(f"degree mismatch: {f.degree} vs {g.degree}")
    if f.complex != g.complex:
        raise ValueError("cochains live on different complexes")


def inner_product(f: Cochain, g: Cochain, weights: WeightScheme | None = None) -> float:
    """Weighted inner product, summing over each clique exactly once."""
    _check_compatible(f, g)
    w = (weights or WeightScheme.unit()).vector(f.complex, f.degree)
    return float(np.dot(w * f.values, g.values))


def norm(f: Cochain, weights: WeightScheme | None = None) -> float:
    return _weighted_norm(f.values, (weights or WeightScheme.unit()).vector(f.complex, f.degree))


def _weighted_norm(values: np.ndarray, w: np.ndarray) -> float:
    """sqrt(sum w * values^2), from a weight vector already built."""
    return float(np.sqrt(max(float(np.dot(w * values, values)), 0.0)))


def _clique_rows(text: str, what: str, order: int | None = None) -> tuple[dict, int | None]:
    """{order: (ids, values)} of the lines `ids... value`, converted at once per order (ids as written, int64 or
    Python ints where one is past int64), and a cochain's order (what is "value"): the given one, else the first
    line's. An ASCII document whose lines all have the first line's width is read by _loadtxt; any other, or one with
    a fault, by _data_rows and _table. InputFormatError at the first line with a fault, in the order the lines were
    checked one by one."""
    lines, cochain = text.splitlines(), what == "value"
    first = next(filter(None, (line.partition("#")[0].split() for line in lines)), [])
    order = len(first) - 1 if cochain and order is None and first else order
    if text.isascii() and len(first) > 1:
        table = _loadtxt(lines, [("ids", np.int64, (len(first) - 1,)), ("value", float)])
        if table is not None:
            ids, values = table["ids"][:, 0], table["value"][:, 0]
            if not _faults(ids, values, np.zeros(len(ids), int), cochain, order)[0].any():
                return {len(first) - 1: (ids, values)}, order
    numbers, rows = _data_rows(text)
    sizes = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    tables, found = {}, []  # found: (line, message) of the first fault of each size
    for size in np.unique(sizes).tolist():
        at = np.flatnonzero(sizes == size)
        block = rows if len(at) == len(rows) else [rows[i] for i in at.tolist()]
        if size < 2:
            found.append((numbers[at[0]], f"expected vertex ids and a {what}"))
            continue
        ids, fault = _table([row[:-1] for row in block], size - 1)
        values, rejected = _table([row[-1:] for row in block], 1, float)
        values = values.ravel()
        code, cliques = _faults(ids, values, fault | rejected, cochain, order)
        if code.any():
            i = np.argmax(code > 0)
            key, clique = (_key_text(tuple(a[i].tolist())) for a in (ids, cliques))
            rule = "finite" if cochain else "positive and finite"
            found.append((numbers[at[i]], ("non-numeric token", f"repeated vertex in {key}", f"duplicate {what} for "
                          f"{clique}", f"{what} must be {rule}, got {values[i].item()}",
                          f"expected {order} vertex ids, got {size - 1}")[code[i] - 2]))
        tables[size - 1] = ids, values
    if found:
        raise InputFormatError("line {}: {}".format(*min(found)))
    return tables, order


def _faults(ids: np.ndarray, values: np.ndarray, fault: np.ndarray, cochain: bool, order: int | None):
    """Each line's first fault in a block of lines of one width, 0 where it has none: 2 a token not read (fault > 0),
    3 a repeated vertex, 4 a clique an earlier line names, 5 a value out of range, 6 a cochain line without order ids;
    and the lines' cliques, ids sorted."""
    cliques = np.sort(ids, axis=1)
    ranked = np.lexsort(cliques.T[::-1])  # stable: of the lines naming one clique, the first comes first
    twice = np.isin(np.arange(len(ids)), ranked[1:][(cliques[ranked[1:]] == cliques[ranked[:-1]]).all(axis=1)])
    valid = np.isfinite(values) if cochain else (values > 0) & (values < math.inf)
    return np.select([fault > 0, (cliques[:, 1:] == cliques[:, :-1]).any(axis=1), twice, ~valid,
                      np.full(len(ids), cochain and ids.shape[1] != order)], [2, 3, 4, 5, 6]), cliques


def read_cochain_tsv(text: str, cx: CliqueComplex, degree: int | None = None) -> Cochain:
    """Parse cochain TSV: lines of vertex ids followed by a value.

    The degree is inferred from the first data line unless given, and each value takes the sign of its ids' sort.
    Omitted cliques default to 0; naming a clique twice, in any order, is an error.
    """
    tables, order = _clique_rows(text, "value", None if degree is None else degree + 1)
    if order is None:
        raise InputFormatError("empty cochain document and no degree given")
    return _cochain(cx, order, tables)


def _cochain(cx: CliqueComplex, order: int, tables: dict) -> Cochain:
    """The cochain of degree order - 1 on cx that _clique_rows read as tables."""
    try:
        return Cochain._from_keys(cx, order - 1, *tables.get(order, ([], [])))
    except ValueError as exc:
        raise InputFormatError(str(exc)) from None


def write_cochain_tsv(c: Cochain) -> str:
    """One `i .. k value` line per clique, in canonical order; ValueError on nan/inf."""
    return id_value_lines(c.complex.level(c.degree + 1), c.values)


def read_weights_tsv(text: str) -> WeightScheme:
    """Parse weight TSV: vertex ids then a positive finite weight; omitted cliques weigh 1."""
    tables, _ = _clique_rows(text, "weight")
    return WeightScheme({order: (np.sort(ids, axis=1), values) for order, (ids, values) in tables.items()})
