"""Alternating k-cochains on a clique complex and weighted inner products.

A k-cochain stores one float per (k+1)-clique, in the complex's lexicographic
clique order. Values are coordinates with respect to the canonical orientation
"ascending vertex order"; evaluation at any other argument order picks up the
sign of the sorting permutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .complexes import CliqueComplex, InputFormatError
from .textio import require_finite


def sort_with_sign(vertices) -> tuple[tuple[int, ...], int]:
    """Sort a vertex tuple, returning (sorted tuple, permutation sign).

    Sign is 0 when a vertex repeats (an alternating function vanishes there).
    Insertion sort is fine: tuples have at most a handful of entries.
    """
    t = list(vertices)
    sign = 1
    for i in range(1, len(t)):
        j = i
        while j > 0 and t[j - 1] > t[j]:
            t[j - 1], t[j] = t[j], t[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(t, t[1:]):
        if a == b:
            return tuple(t), 0
    return tuple(t), sign


@dataclass(frozen=True)
class WeightScheme:
    """Positive finite weight per clique, from per-order tables {ascending clique: weight}.

    A clique missing from its order's table weighs 1, and so does every clique of
    an order without a table: unit weights are the scheme with no tables.
    """

    tables: dict[int, dict[tuple[int, ...], float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for order, table in self.tables.items():
            for clique, w in table.items():
                if not 0 < w < math.inf:
                    raise ValueError(f"weight {w} for {clique} (order {order}) must be positive and finite")

    @property
    def mode(self) -> str:
        """Derived kind, "unit" when no order has a table and "table" otherwise."""
        return "table" if any(self.tables.values()) else "unit"

    @classmethod
    def unit(cls) -> "WeightScheme":
        return cls()

    @classmethod
    def from_table(cls, entries: dict[tuple[int, ...], float]) -> "WeightScheme":
        """Build a scheme from one flat {clique: weight} mapping."""
        tables: dict[int, dict[tuple[int, ...], float]] = {}
        for clique, w in entries.items():
            key = tuple(sorted(clique))
            tables.setdefault(len(key), {})[key] = float(w)
        return cls(tables)

    def weight(self, clique: tuple[int, ...]) -> float:
        return self.tables.get(len(clique), {}).get(clique, 1.0)

    def vector(self, cx: CliqueComplex, degree: int) -> np.ndarray:
        """Weights of all (degree+1)-cliques in the complex's canonical order."""
        out = np.ones(cx.n_cliques(degree + 1))
        table = self.tables.get(degree + 1)
        if table:
            pos = cx.locate(_vertex_rows(list(table), degree + 1))  # -1: a clique not in cx
            found = pos >= 0
            out[pos[found]] = np.fromiter(table.values(), dtype=float, count=len(table))[found]
        return out


def _vertex_rows(keys: list, order: int) -> np.ndarray:
    """Vertex-id tuples of one length as an int64 array of that many columns."""
    try:
        return np.array(keys, dtype=np.int64).reshape(-1, order)
    except OverflowError:  # an id past int64 names no vertex, and neither does 0
        return np.array([[x if abs(x) < 2**63 else 0 for x in map(int, key)] for key in keys],
                        dtype=np.int64).reshape(-1, order)


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

    @classmethod
    def zero(cls, cx: CliqueComplex, degree: int) -> "Cochain":
        return cls(degree, cx, np.zeros(cx.n_cliques(degree + 1)))

    @classmethod
    def from_dict(cls, cx: CliqueComplex, degree: int, entries: dict[tuple[int, ...], float]) -> "Cochain":
        """Build from {vertex tuple: value}; tuples may be in any order (signs applied).

        Raises ValueError at the first key, in mapping order, that repeats a
        vertex or is not a clique of order degree+1. A clique named twice keeps
        its last value.
        """
        order = degree + 1
        keys = list(entries)
        sized = np.fromiter(map(len, keys), dtype=np.int64, count=len(keys)) == order
        sized_keys = [key for key, ok in zip(keys, sized) if ok]
        rows = _vertex_rows(sized_keys, order)
        pos = np.full(len(keys), -1)
        pos[sized] = cx.locate(np.sort(rows, axis=1))  # a repeated vertex is never found
        if (pos < 0).any():
            key = keys[np.argmax(pos < 0)]
            sorted_key, sign = sort_with_sign(tuple(int(x) for x in key))
            if sign == 0:
                raise ValueError(f"repeated vertex in {key}")
            raise ValueError(f"{sorted_key} is not a clique of order {order}")
        i, j = np.triu_indices(order, 1)
        sign = 1.0 - 2.0 * ((rows[:, i] > rows[:, j]).sum(axis=1) % 2)  # parity of the inversions
        signed = sign * np.array(list(entries.values()), dtype=float)
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
        sorted_t, sign = sort_with_sign(t)
        if sign == 0:
            return 0.0
        idx = self.complex.index(self.degree + 1).get(sorted_t)
        if idx is None:
            return 0.0
        return sign * float(self.values[idx])

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


def read_cochain_tsv(text: str, cx: CliqueComplex, degree: int | None = None) -> Cochain:
    """Parse cochain TSV: lines of vertex ids followed by a value.

    The degree is inferred from the first data line unless given. Non-ascending
    index tuples are normalized by sorting and flipping the sign. Omitted
    cliques default to 0; naming the same clique twice is an error.
    """
    entries: dict[tuple[int, ...], float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise InputFormatError(f"line {lineno}: expected vertex ids and a value")
        try:
            verts = tuple(int(t) for t in tokens[:-1])
            value = float(tokens[-1])
        except ValueError:
            raise InputFormatError(f"line {lineno}: non-numeric token") from None
        if not math.isfinite(value):
            raise InputFormatError(f"line {lineno}: value must be finite, got {value}")
        if degree is None:
            degree = len(verts) - 1
        if len(verts) != degree + 1:
            raise InputFormatError(
                f"line {lineno}: expected {degree + 1} vertex ids, got {len(verts)}"
            )
        key, sign = sort_with_sign(verts)
        if sign == 0:
            raise InputFormatError(f"line {lineno}: repeated vertex in {verts}")
        if key in entries:
            raise InputFormatError(f"line {lineno}: duplicate entry for clique {key}")
        entries[key] = sign * value
    if degree is None:
        raise InputFormatError("empty cochain document and no degree given")
    try:
        return Cochain.from_dict(cx, degree, entries)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from None


def write_cochain_tsv(c: Cochain, fmt: str = "%.12g") -> str:
    """One `i .. k value` line per clique, in canonical order; ValueError on nan/inf."""
    require_finite(c.values)
    lines = []
    for clique, v in zip(c.complex.cliques(c.degree + 1), c.values):
        lines.append(" ".join(str(i) for i in clique) + " " + fmt % v)
    return "\n".join(lines) + ("\n" if lines else "")


def read_weights_tsv(text: str) -> WeightScheme:
    """Parse weight TSV: vertex ids then a positive finite weight; omitted cliques weigh 1."""
    entries: dict[tuple[int, ...], float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise InputFormatError(f"line {lineno}: expected vertex ids and a weight")
        try:
            verts = tuple(int(t) for t in tokens[:-1])
            value = float(tokens[-1])
        except ValueError:
            raise InputFormatError(f"line {lineno}: non-numeric token") from None
        if not 0 < value < math.inf:
            raise InputFormatError(f"line {lineno}: weight must be positive and finite, got {value}")
        key, sign = sort_with_sign(verts)
        if sign == 0:
            raise InputFormatError(f"line {lineno}: repeated vertex in {verts}")
        if key in entries:
            raise InputFormatError(f"line {lineno}: duplicate weight for {key}")
        entries[key] = value
    return WeightScheme.from_table(entries)
