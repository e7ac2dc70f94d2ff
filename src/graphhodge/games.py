"""Strategy-profile graphs, game flows, and potential/harmonic game structure.

Profiles are the vertices; two profiles are adjacent when they differ in the
strategy of exactly one player. The game flow assigns to each such edge the
payoff change of the moving player, which is the edge restriction of the
utility Jacobian. Game flows are always curl-free (payoff differences along a
single player's strategy triple telescope), so they split into a potential
part -grad f and a harmonic part.

The profile graph is the Hamming graph, the Cartesian product of the complete
graphs K_{s_p} on each player's s_p strategies. Its graph Laplacian therefore
acts on a utility table T as sum_p (s_p * T - sum of T along axis p), and both
the flow and the game predicates are computed from the tables directly; only
game_flow's default builds the strategy graph. Its edges are, for each player,
the pairs of profile indices taken along that player's axis of the profile
array, and game_flow reads them back from the graph's order-2 clique level.
is_potential_game is a common-interest test (all players' gradients coincide),
stricter than an exact potential game, whose gradients need only come from one
potential: the prisoner's dilemma is one, with a zero harmonic flow, but reads False.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .cochains import Cochain, WeightScheme
from .complexes import CliqueComplex, Graph, _fields_equal, enumerate_cliques
from .decompose import hodge_decompose
from .operators import _face_products

PREDICATE_TOL = 1e-10


def _profile_key(profile) -> str:
    """A profile's key in the utility tables and the game document: its labels joined by commas."""
    return ",".join(profile)


@dataclass(frozen=True)
class GameForm:
    """Finite normal-form game: per-player strategy labels and dense utility tables."""

    strategy_sets: tuple[tuple[str, ...], ...]
    utilities: tuple[np.ndarray, ...]

    __eq__ = _fields_equal

    def __post_init__(self) -> None:
        if not self.strategy_sets:
            raise ValueError("game needs at least one player")
        shape = tuple(len(s) for s in self.strategy_sets)
        if any(size == 0 for size in shape):
            raise ValueError("every player needs at least one strategy")
        for labels in self.strategy_sets:
            if len(set(labels)) != len(labels):
                raise ValueError(f"duplicate strategy label in {labels}")
        if len(self.utilities) != len(self.strategy_sets):
            raise ValueError("one utility table per player is required")
        tables = tuple(np.asarray(u, dtype=float) for u in self.utilities)
        object.__setattr__(self, "utilities", tables)
        for i, table in enumerate(tables):
            if table.shape != shape:
                raise ValueError(f"utility table {i} has shape {table.shape}, expected {shape}")
            bad = np.argwhere(~np.isfinite(table))
            if bad.size:
                profile = _profile_key(labels[j] for labels, j in zip(self.strategy_sets, bad[0]))
                raise ValueError(f"utility table {i} has a non-finite value at profile {profile!r}")

    @property
    def n_players(self) -> int:
        return len(self.strategy_sets)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.strategy_sets)

    @classmethod
    def from_tables(cls, strategies, tables) -> "GameForm":
        """Build from label lists and per-player mappings keyed by comma-joined profiles."""
        arrays = (list, tuple)  # a string or an object would be read one label per character or key
        if not isinstance(strategies, arrays) or not all(isinstance(labels, arrays) for labels in strategies):
            raise ValueError("'strategies' must be a list of label lists, one per player")
        strategy_sets = tuple(tuple(str(s) for s in labels) for labels in strategies)
        shape = tuple(len(s) for s in strategy_sets)
        keys = [_profile_key(profile) for profile in product(*strategy_sets)]
        repeated = [key for key, count in Counter(keys).items() if count > 1]
        if repeated:
            raise ValueError(f"profile key {repeated[0]!r} is ambiguous: several profiles join to it")
        try:
            tables = list(tables)
        except TypeError:
            raise ValueError("'utilities' must be a list of tables, one per player") from None
        utilities = []
        for player, table in enumerate(tables):
            if not isinstance(table, Mapping):
                raise ValueError(f"utility table {player} must map profile keys to numbers")
            values = []
            for key in keys:
                if key not in table:
                    raise ValueError(f"utility table {player} misses profile {key!r}")
                try:
                    if isinstance(table[key], bool):
                        raise TypeError  # float() reads true as 1
                    values.append(float(table[key]))
                except (TypeError, ValueError, OverflowError):
                    raise ValueError(f"utility table {player} has no float value at profile {key!r}") from None
            if len(table) != len(keys):
                extra = set(table) - set(keys)
                raise ValueError(f"utility table {player} has unknown profiles {sorted(extra)}")
            utilities.append(np.array(values).reshape(shape))
        return cls(strategy_sets, tuple(utilities))

    def profiles(self) -> tuple[tuple[str, ...], ...]:
        """All strategy profiles in lexicographic order of strategy indices."""
        return tuple(product(*self.strategy_sets))


@dataclass(frozen=True)
class StrategyGraph:
    """Profile graph with the profile <-> vertex correspondence and its complex."""

    graph: Graph
    profiles: tuple[tuple[str, ...], ...]
    index: dict[tuple[str, ...], int] = field(repr=False)
    complex: CliqueComplex = field(repr=False)


def strategy_graph(form: GameForm) -> StrategyGraph:
    """Vertices are profiles; edges join profiles differing in exactly one coordinate."""
    profiles = form.profiles()
    index = dict(zip(profiles, range(1, len(profiles) + 1)))
    ids = np.arange(1, len(profiles) + 1).reshape(form.shape)
    edges = [np.column_stack([np.take(ids, pick, axis=player).ravel() for pick in np.triu_indices(size, 1)])
             for player, size in enumerate(form.shape)]
    graph = Graph(len(profiles), np.concatenate(edges))
    cx = enumerate_cliques(graph, max_order=3)
    return StrategyGraph(graph, profiles, index, cx)


def game_flow(form: GameForm, sg: StrategyGraph | None = None) -> Cochain:
    """Edge flow X(s,t) = f_i(t) - f_i(s) for the unique player i moving between s and t; ValueError, naming the
    first such pair, where a difference overflows float64."""
    sg = sg or strategy_graph(form)
    edges = sg.complex.level(2) - 1
    u, v = edges[:, 0], edges[:, 1]
    idx_u = np.array(np.unravel_index(u, form.shape))
    idx_v = np.array(np.unravel_index(v, form.shape))
    moved = idx_u != idx_v
    bad = np.flatnonzero(moved.sum(axis=0) != 1)
    if bad.size:
        a, b = tuple(idx_u[:, bad[0]].tolist()), tuple(idx_v[:, bad[0]].tolist())
        raise ValueError(f"profiles {a} and {b} do not differ in exactly one player")
    flat = np.stack(form.utilities).reshape(form.n_players, -1)
    mover = np.argmax(moved, axis=0)
    with np.errstate(over="ignore"):
        values = flat[mover, v] - flat[mover, u]
    past = np.flatnonzero(np.isinf(values))
    if past.size:
        i = past[0]
        raise ValueError(f"the game flow overflows float64: player {mover[i]}'s payoff change from profile "
                         f"{_profile_key(sg.profiles[u[i]])!r} to {_profile_key(sg.profiles[v[i]])!r}")
    return Cochain(1, sg.complex, values)


def _rescaled(form: GameForm, terms: int) -> tuple[np.ndarray, float]:
    """(the stacked utility tables times s, s), s = 2^-e the power of two that keeps a sum of `terms` entries of
    the tables below 2^1023 in magnitude: 1 unless an entry is past 2^1023 / terms. Scaling by a power of two is
    exact (short of subnormals), so a predicate reads the tables' own arithmetic, compared with tol * s."""
    tables = np.stack(form.utilities)
    top = int(np.frexp(np.max(np.abs(tables), initial=0.0))[1])  # every |entry| < 2^top
    e = max(0, top + math.ceil(math.log2(terms)) - 1023)
    return (np.ldexp(tables, -e), 2.0 ** -e) if e else (tables, 1.0)


def is_potential_game(form: GameForm, tol: float = PREDICATE_TOL) -> bool:
    """True when all players' utility gradients coincide on the profile graph: a common-interest test.

    Every player then moves up one shared utility, which is stricter than an exact potential game (Monderer and
    Shapley), where the gradients need only be those of some one potential: the prisoner's dilemma is an exact
    potential game but reads False here. Any finite utilities are compared without overflow (_rescaled).
    """
    tables, scale = _rescaled(form, 4)  # |grad| <= 2 max|u|, and so is the spread of a gradient's values
    for player, size in enumerate(form.shape):
        lo, hi = np.triu_indices(size, 1)
        grads = np.take(tables, hi, axis=player + 1) - np.take(tables, lo, axis=player + 1)
        if np.any(grads.max(axis=0) - grads.min(axis=0) > tol * scale):
            return False
    return True


def is_harmonic_game(form: GameForm, tol: float = PREDICATE_TOL) -> bool:
    """True when the summed utilities lie in the kernel of the profile-graph Laplacian.

    The profile graph is the Cartesian product of the complete graphs K_{s_p},
    so its Laplacian acts on a table as sum_p (s_p * total - sum along axis p).
    Any finite utilities are evaluated without overflow (_rescaled).
    """
    tables, scale = _rescaled(form, 2 * form.n_players * sum(form.shape))  # |total| <= n_players max|u|
    total = np.zeros(form.shape)
    for f in tables:
        total = total + f
    values = sum(
        size * total - total.sum(axis=player, keepdims=True)
        for player, size in enumerate(form.shape)
    )
    return bool(np.max(np.abs(values), initial=0.0) <= tol * scale)


@dataclass(frozen=True)
class GameFlowSplit:
    """X = potential_flow + harmonic_flow with potential_flow = -grad(potential)."""

    potential_flow: Cochain
    potential: Cochain
    harmonic_flow: Cochain


def decompose_game_flow(x: Cochain, curl_tol: float = 1e-8) -> GameFlowSplit:
    """Split a curl-free flow on a profile graph into potential and harmonic parts.

    Raises if the input has curl beyond tolerance (then it was not a game flow)
    or if the decomposition produces a non-negligible curl-adjoint component.
    """
    scale = max(1.0, float(np.max(np.abs(x.values), initial=0.0)))
    curl = _face_products(x.complex._faces(3), len(x.values), x.values, None)[0]  # d_1 x, from the face array
    curl_size = float(np.max(np.abs(curl), initial=0.0))
    if curl_size > curl_tol * scale:
        raise ValueError(f"input is not curl-free: max curl {curl_size:.3e}")
    split = hodge_decompose(x, WeightScheme.unit(), method="two-solve")
    coexact_size = float(np.max(np.abs(split.coexact.values), initial=0.0))
    if coexact_size > curl_tol * scale:
        raise ValueError(f"curl-adjoint component {coexact_size:.3e} exceeds tolerance")
    potential = -split.potential if split.potential is not None else Cochain.zero(x.complex, 0)
    return GameFlowSplit(split.exact, potential, x - split.exact)


def pure_nash(form: GameForm) -> list[tuple[str, ...]]:
    """Profiles where each player's utility is the maximum along its own axis, in lexicographic order."""
    stable = np.ones(form.shape, dtype=bool)
    for player, table in enumerate(form.utilities):
        stable &= table == table.max(axis=player, keepdims=True)
    return [tuple(labels[i] for labels, i in zip(form.strategy_sets, idx)) for idx in np.argwhere(stable)]
