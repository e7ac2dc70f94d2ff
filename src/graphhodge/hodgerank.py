"""Global ranking from pairwise comparisons via least-squares potentials.

Voter data is aggregated into an edge flow X on the comparison graph, with
X(i,j) > 0 meaning i is favored over j, then split by the Hodge decomposition:
the gradient part yields the score function (high score = preferred), while
the curl-adjoint and harmonic parts certify local and global inconsistency.

Aggregation models (the exact formulas are package conventions):

  arithmetic mean   X(i,j) = mean over voters rating both of (score_i - score_j)
  log-odds          X(i,j) = log((#{i preferred} + 1/2) / (#{j preferred} + 1/2))

Edge weights are vote counts, w_ij = number of voters who compared i and j (one table: the edge
array and the counts), which keeps thinly compared pairs from dominating heavily compared ones.

aggregate enumerates nothing above the edges; the split on a dense comparison graph enumerates no triangle.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cochains import Cochain, WeightScheme
from .complexes import CliqueComplex, Graph, InputFormatError, _d0
from .decompose import hodge_decompose

MODELS = ("mean", "logodds")


@dataclass(frozen=True)
class ComparisonData:
    """Voter records: either ratings (voter, item, score) or pairwise (voter, i, j, value)."""

    ratings: tuple[tuple[str, str, float], ...] = ()
    pairwise: tuple[tuple[str, str, str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.ratings and self.pairwise:
            raise ValueError("mixing rating and pairwise records is not supported")
        seen = set()
        for voter, item, _ in self.ratings:
            if (voter, item) in seen:
                raise ValueError(f"duplicate rating by voter {voter!r} for item {item!r}")
            seen.add((voter, item))
        for voter, a, b, _ in self.pairwise:
            if a == b:
                raise ValueError(f"voter {voter!r} compared item {a!r} with itself")
            key = (voter, min(a, b), max(a, b))
            if key in seen:
                raise ValueError(f"duplicate comparison of {a!r} and {b!r} by voter {voter!r}")
            seen.add(key)

    @classmethod
    def from_csv(cls, text: str) -> "ComparisonData":
        """Read `voter,item,score` or `voter,item_i,item_j,value` rows (optional header)."""
        rows = [r for r in csv.reader(io.StringIO(text)) if r and any(cell.strip() for cell in r)]
        if not rows:
            raise InputFormatError("empty comparison document")
        width = len(rows[0])
        if width not in (3, 4):
            raise InputFormatError(f"expected 3 or 4 columns, got {width}")
        try:
            float(rows[0][-1])
        except ValueError:
            rows = rows[1:]  # header row
        if not rows:
            raise InputFormatError("no data rows")
        records = []
        for lineno, row in enumerate(rows, start=1):
            if len(row) != width:
                raise InputFormatError(f"record {lineno}: expected {width} fields, got {len(row)}")
            try:
                value = float(row[-1])
            except ValueError:
                raise InputFormatError(f"record {lineno}: non-numeric value {row[-1]!r}") from None
            if not math.isfinite(value):
                raise InputFormatError(f"record {lineno}: value must be finite, got {row[-1]!r}")
            records.append(tuple(cell.strip() for cell in row[:-1]) + (value,))
        if width == 3:
            return cls(ratings=tuple(records))
        return cls(pairwise=tuple(records))


@dataclass(frozen=True)
class ComparisonFlow:
    """Aggregated pairwise flow: cochain, vote-count weights, graph, item labels."""

    flow: Cochain
    weights: WeightScheme
    graph: Graph
    items: tuple[str, ...]
    excluded: tuple[str, ...]

    @property
    def complex(self) -> CliqueComplex:
        return self.flow.complex


def _pair_statistics(data: ComparisonData):
    """Every compared pair's signed per-voter values, grouped by pair.

    Returns (names, pairs, counts, votes). names is the sorted item universe;
    pairs[p] = (i, j), i < j, indexes it, and the rows ascend. Pair p's values
    are votes[s : s + counts[p]], s = counts[:p].sum(), in voter order (first
    appearance for ratings, record order for pairwise data); a positive value
    favors names[i].
    """
    if data.ratings:
        voters, items, scores = zip(*data.ratings)
    else:
        _, firsts, seconds, values = zip(*data.pairwise)
        items = firsts + seconds
    names = sorted(set(items))
    index = dict(zip(names, range(len(names))))
    ids = np.array([index[name] for name in items], dtype=np.int64)
    if data.ratings:
        seen: dict[str, int] = {}
        voter = np.array([seen.setdefault(v, len(seen)) for v in voters], dtype=np.int64)
        by_voter = np.lexsort((ids, voter))  # each voter's ratings, by name
        voter, ids, score = voter[by_voter], ids[by_voter], np.array(scores, dtype=float)[by_voter]
        # rating t pairs with each later rating of its voter, t = first[p] < second[p]
        later = np.searchsorted(voter, voter, side="right") - np.arange(len(voter)) - 1
        first = np.repeat(np.arange(len(voter)), later)
        second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
        lo, hi, value, rank = ids[first], ids[second], score[first] - score[second], voter[first]
    else:
        first, second = ids[: len(firsts)], ids[len(firsts) :]
        lo, hi = np.minimum(first, second), np.maximum(first, second)
        value = np.where(first < second, 1.0, -1.0) * np.array(values, dtype=float)
        rank = np.arange(len(first))
    key = lo * len(names) + hi
    order = np.lexsort((rank, key))
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    pairs = np.column_stack([lo[order][starts], hi[order][starts]])
    return names, pairs, np.diff(starts, append=len(key)), value[order]


@np.errstate(over="ignore")  # an overflowing pair is named below instead
def aggregate(data: ComparisonData, model: str = "mean") -> ComparisonFlow:
    """Aggregate voter records into an edge flow, vote-count weights, and a graph.

    Raises ValueError naming the first pair whose aggregated value is not
    finite (finite records whose differences or sums overflow).
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; choose from {MODELS}")
    if not data.ratings and not data.pairwise:
        raise ValueError("no comparison records")
    names, pairs, counts, votes = _pair_statistics(data)
    used = np.zeros(len(names), dtype=bool)
    used[pairs.ravel()] = True
    compared = tuple(name for name, u in zip(names, used) if u)
    excluded = tuple(name for name, u in zip(names, used) if not u)
    if excluded:
        warnings.warn(f"items never compared with another item were excluded: {excluded}")
    if not compared:
        raise ValueError("no comparable pair in the data")
    vid = np.cumsum(used)  # vertex id of each compared name, ascending with the name
    graph = Graph(len(compared), vid[pairs])  # ascending, in lexicographic order: the graph's edge order
    cx = CliqueComplex(graph, 3)  # a level is enumerated on its first read
    x = np.empty(len(pairs))
    offsets = np.cumsum(counts) - counts
    for c in np.unique(counts):
        # the pairs with c votes: a (G, c) block, whose row means equal np.mean of each list bit for bit
        group = np.flatnonzero(counts == c)
        block = votes[offsets[group][:, None] + np.arange(c)]
        if model == "mean":
            x[group] = block.mean(axis=1)
        else:
            odds = ((block > 0).sum(axis=1) + 0.5) / ((block < 0).sum(axis=1) + 0.5)
            x[group] = [math.log(r) for r in odds.tolist()]
    overflow = np.flatnonzero(~np.isfinite(x))
    if overflow.size:
        a, b = (names[i] for i in pairs[overflow[0]])
        raise ValueError(f"the {model} comparison of {a!r} and {b!r} is not finite: its records overflow")
    return ComparisonFlow(Cochain(1, cx, x), WeightScheme({2: (graph.pairs, counts)}), graph, compared, excluded)


@dataclass(frozen=True)
class Certificate:
    """Weighted norms of the three flow components and the inconsistency ratio."""

    norm_input: float
    norm_consistent: float
    norm_locally_inconsistent: float
    norm_globally_inconsistent: float

    @property
    def inconsistency_ratio(self) -> float:
        if self.norm_input == 0:
            return 0.0
        return (self.norm_globally_inconsistent**2 + self.norm_locally_inconsistent**2) / self.norm_input**2

    def to_json_dict(self) -> dict:
        return {
            "norm_input": self.norm_input,
            "norm_consistent": self.norm_consistent,
            "norm_locally_inconsistent": self.norm_locally_inconsistent,
            "norm_globally_inconsistent": self.norm_globally_inconsistent,
            "inconsistency_ratio": self.inconsistency_ratio,
        }


@dataclass(frozen=True)
class RankingResult:
    """Scores, descending order with deterministic tie-break, and the certificate."""

    items: tuple[str, ...]
    scores: dict[str, float]
    order: tuple[str, ...]
    certificate: Certificate
    connected: bool
    components: tuple[tuple[str, ...], ...]

    def to_json_dict(self) -> dict:
        return {
            "items": list(self.items),
            "scores": {item: self.scores[item] for item in self.items},
            "order": list(self.order),
            "certificate": self.certificate.to_json_dict(),
            "connected": self.connected,
            "incomparable_across_components": not self.connected,
            "components": [list(c) for c in self.components],
        }


def rank(cf: ComparisonFlow) -> RankingResult:
    """Rank items by the least-squares potential of the comparison flow.

    Disconnected comparison graphs are ranked per component (scores are gauged
    to mean zero on each component) and flagged incomparable across components.
    """
    split = hodge_decompose(cf.flow, cf.weights, method="two-solve")
    potential = split.potential
    f = -potential.values if potential is not None else np.zeros(cf.graph.n_vertices)
    scores = {item: float(f[i]) for i, item in enumerate(cf.items)}
    order = tuple(sorted(cf.items, key=lambda it: (-scores[it], it)))
    cert = Certificate(
        norm_input=split.norms["input"],
        norm_consistent=split.norms["exact"],
        norm_locally_inconsistent=split.norms["coexact"],
        norm_globally_inconsistent=split.norms["harmonic"],
    )
    comps = cf.graph.connected_components()
    components = tuple(tuple(cf.items[v - 1] for v in comp) for comp in comps)
    return RankingResult(cf.items, scores, order, cert, len(comps) == 1, components)


def borda_divergence(flow: Cochain) -> Cochain:
    """Net preference per item under unit weights: (div X)(i) = sum_j X(i,j) = (d_0^T (-X))(i), on the edge array."""
    return Cochain(0, flow.complex, _d0(flow.complex.graph)[1](-flow.values))
