import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphhodge import (
    Cochain,
    GameForm,
    apply_operator,
    coboundary,
    decompose_game_flow,
    game_flow,
    hodge_laplacian,
    is_harmonic_game,
    is_potential_game,
    norm,
    pure_nash,
    strategy_graph,
)
from graphhodge.games import PREDICATE_TOL

from conftest import assert_is_tuple_graph, edge_set, loop_strategy_edges, neighbor_sets


def road_sharing_game() -> GameForm:
    """Three players (commuter, robber, policeman) each pick road a or b.

    The commuter loses 2 per other player on their road; the robber loses 1
    when the policeman shares their road; the policeman gains what the robber
    loses.
    """
    labels = ("a", "b")
    shape = (2, 2, 2)
    f_c = np.zeros(shape)
    f_r = np.zeros(shape)
    f_p = np.zeros(shape)
    for i, sc in enumerate(labels):
        for j, sr in enumerate(labels):
            for k, sp in enumerate(labels):
                f_c[i, j, k] = -2 * ((sr == sc) + (sp == sc))
                f_r[i, j, k] = -1.0 if sp == sr else 0.0
                f_p[i, j, k] = -f_r[i, j, k]
    return GameForm((labels, labels, labels), (f_c, f_r, f_p))


def rock_paper_scissors() -> GameForm:
    labels = ("rock", "paper", "scissors")
    beats = {("rock", "scissors"), ("scissors", "paper"), ("paper", "rock")}
    u1 = np.zeros((3, 3))
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            u1[i, j] = 1.0 if (a, b) in beats else (-1.0 if (b, a) in beats else 0.0)
    return GameForm((labels, labels), (u1, -u1))


def arrows(form, sg=None):
    """Positive-direction arrows (source profile, target profile, weight)."""
    sg = sg or strategy_graph(form)
    x = game_flow(form, sg)
    out = {}
    for (u, v), value in zip(sg.graph.sorted_edges, x.values):
        if value > 0:
            out[(sg.profiles[u - 1], sg.profiles[v - 1])] = value
        elif value < 0:
            out[(sg.profiles[v - 1], sg.profiles[u - 1])] = -value
    return out


FIGURE_ARROWS = {
    (("a", "a", "a"), ("b", "a", "a")): 4.0,
    (("a", "a", "a"), ("a", "b", "a")): 1.0,
    (("b", "a", "a"), ("b", "b", "a")): 1.0,
    (("b", "b", "a"), ("b", "b", "b")): 1.0,
    (("b", "b", "b"), ("b", "a", "b")): 1.0,
    (("b", "a", "b"), ("b", "a", "a")): 1.0,
    (("b", "b", "b"), ("a", "b", "b")): 4.0,
    (("a", "b", "b"), ("a", "a", "b")): 1.0,
    (("a", "a", "b"), ("a", "a", "a")): 1.0,
    (("a", "b", "a"), ("a", "b", "b")): 1.0,
}

FIGURE_POTENTIAL = {
    ("a", "a", "a"): 1.0,
    ("b", "b", "b"): 1.0,
    ("a", "b", "b"): -1.0,
    ("b", "a", "a"): -1.0,
    ("a", "a", "b"): 0.0,
    ("a", "b", "a"): 0.0,
    ("b", "a", "b"): 0.0,
    ("b", "b", "a"): 0.0,
}

FIGURE_SIX_CYCLE = [
    ("a", "a", "a"), ("b", "a", "a"), ("b", "b", "a"),
    ("b", "b", "b"), ("a", "b", "b"), ("a", "a", "b"),
]


class TestStrategyGraph:
    def test_three_binary_players(self):
        sg = strategy_graph(road_sharing_game())
        assert len(sg.profiles) == 8
        assert len(edge_set(sg.graph)) == 12
        expected_pairs = {
            (("a", "a", "a"), ("a", "a", "b")), (("a", "a", "a"), ("a", "b", "a")),
            (("a", "a", "a"), ("b", "a", "a")), (("a", "a", "b"), ("a", "b", "b")),
            (("a", "a", "b"), ("b", "a", "b")), (("a", "b", "a"), ("a", "b", "b")),
            (("a", "b", "a"), ("b", "b", "a")), (("b", "a", "a"), ("b", "a", "b")),
            (("b", "a", "a"), ("b", "b", "a")), (("a", "b", "b"), ("b", "b", "b")),
            (("b", "a", "b"), ("b", "b", "b")), (("b", "b", "a"), ("b", "b", "b")),
        }
        got = {
            tuple(sorted((sg.profiles[u - 1], sg.profiles[v - 1])))
            for u, v in edge_set(sg.graph)
        }
        assert got == {tuple(sorted(p)) for p in expected_pairs}

    def test_single_player_is_complete_graph(self):
        form = GameForm((("x", "y", "z", "w"),), (np.arange(4.0),))
        sg = strategy_graph(form)
        assert len(edge_set(sg.graph)) == 6  # K4

    def test_two_by_three_edge_count(self):
        form = GameForm(
            (("a", "b"), ("p", "q", "r")), (np.zeros((2, 3)), np.zeros((2, 3)))
        )
        sg = strategy_graph(form)
        assert len(sg.profiles) == 6
        assert len(edge_set(sg.graph)) == 9

    def test_vertex_degree_formula(self, rng):
        sizes = (2, 3, 2)
        form = GameForm(
            tuple(tuple(f"s{i}{j}" for j in range(s)) for i, s in enumerate(sizes)),
            tuple(rng.normal(size=sizes) for _ in sizes),
        )
        sg = strategy_graph(form)
        expected = sum(s - 1 for s in sizes)
        nbrs = neighbor_sets(sg.graph)
        assert all(len(nbrs[v]) == expected for v in range(1, len(sg.profiles) + 1))

    def test_profiles_are_lexicographic(self):
        form = GameForm((("a", "b"), ("p", "q")), (np.zeros((2, 2)), np.zeros((2, 2))))
        sg = strategy_graph(form)
        assert sg.profiles == (("a", "p"), ("a", "q"), ("b", "p"), ("b", "q"))
        assert sg.index[("a", "q")] == 2


    @pytest.mark.parametrize("shape", [(1,), (4,), (1, 3), (2, 3, 2), (5, 5, 5, 5, 5)])
    def test_edges_match_the_loop_oracle(self, shape):
        labels = tuple(tuple(f"s{j}" for j in range(size)) for size in shape)
        sg = strategy_graph(GameForm(labels, tuple(np.zeros(shape) for _ in shape)))
        expected = loop_strategy_edges(shape)
        assert edge_set(sg.graph) == expected
        assert sg.complex.level(2).tolist() == sorted(map(list, expected))
        assert_is_tuple_graph(sg.graph, int(np.prod(shape)), expected)
        assert sg.index == {profile: i for i, profile in enumerate(sg.profiles, start=1)}


class TestGameFlow:
    def test_road_sharing_matches_figure(self):
        form = road_sharing_game()
        assert arrows(form) == FIGURE_ARROWS

    def test_constant_utilities_give_zero_flow(self):
        form = GameForm(
            (("a", "b"), ("p", "q")), (np.full((2, 2), 3.0), np.full((2, 2), -1.0))
        )
        assert not np.any(game_flow(form).values)

    def test_rock_paper_scissors_cyclic_divergence_free(self):
        form = rock_paper_scissors()
        sg = strategy_graph(form)
        x = game_flow(form, sg)
        from graphhodge import divergence_matrix

        assert np.allclose(divergence_matrix(sg.complex).toarray() @ x.values, 0.0)
        assert np.any(x.values)

    def test_constant_shift_leaves_flow_unchanged(self, rng):
        sizes = (2, 3)
        u = tuple(rng.normal(size=sizes) for _ in range(2))
        form = GameForm((("a", "b"), ("p", "q", "r")), u)
        shifted = GameForm((("a", "b"), ("p", "q", "r")), (u[0] + 17.5, u[1] - 3.25))
        assert np.allclose(game_flow(form).values, game_flow(shifted).values)
        assert is_potential_game(form) == is_potential_game(shifted)
        assert is_harmonic_game(form) == is_harmonic_game(shifted)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_integer_games_are_exactly_curl_free(self, seed):
        rng = np.random.default_rng(seed)
        n_players = int(rng.integers(1, 4))
        sizes = tuple(int(rng.integers(2, 4)) for _ in range(n_players))
        strategies = tuple(tuple(f"s{j}" for j in range(s)) for s in sizes)
        utilities = tuple(
            rng.integers(-9, 10, size=sizes).astype(float) for _ in range(n_players)
        )
        form = GameForm(strategies, utilities)
        sg = strategy_graph(form)
        x = game_flow(form, sg)
        curl = apply_operator(coboundary(sg.complex, 1), x)
        assert not np.any(curl.values)


class TestPredicates:
    def test_identical_utilities_is_potential_game(self, rng):
        phi = rng.normal(size=(2, 2, 2))
        form = GameForm((("a", "b"),) * 3, (phi, phi, phi))
        assert is_potential_game(form)
        assert pure_nash(form)  # maxima of the common payoff qualify

    def test_rock_paper_scissors_is_harmonic(self):
        form = rock_paper_scissors()
        assert is_harmonic_game(form)
        assert not is_potential_game(form)

    def test_road_sharing_is_neither(self):
        form = road_sharing_game()
        assert not is_potential_game(form)
        assert not is_harmonic_game(form)

    def test_constant_game_is_both(self):
        form = GameForm(
            (("a", "b"), ("p", "q")), (np.full((2, 2), 2.0), np.full((2, 2), 5.0))
        )
        assert is_potential_game(form)
        assert is_harmonic_game(form)

    def test_integer_games_scaled_near_the_float64_limit_read_as_unscaled(self):
        """Scaling integer utilities by 2^1020 changes no predicate, with no numpy warning."""
        games = [road_sharing_game(), rock_paper_scissors(),
                 GameForm((("a", "b"), ("p", "q")), (np.full((2, 2), 2.0), np.full((2, 2), 5.0))),
                 GameForm((("a", "b", "c"),) * 2, (np.arange(9.0).reshape(3, 3),) * 2)]
        for form in games:
            scaled = GameForm(form.strategy_sets, tuple(np.ldexp(u, 1020) for u in form.utilities))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = is_potential_game(scaled), is_harmonic_game(scaled)
            assert got == (is_potential_game(form), is_harmonic_game(form))

    def test_gradients_past_float64_still_compare(self):
        """Both gradients overflow float64 unscaled, 1.8e308 and 1.85e308, and differ: not a potential game."""
        form = GameForm((("a", "b"), ("c",)), (np.array([[-9e307], [9e307]]), np.array([[-9.5e307], [9e307]])))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert not is_potential_game(form)
            assert is_potential_game(GameForm(form.strategy_sets, (form.utilities[0],) * 2))


class TestGameFlowOverflow:
    def test_a_payoff_change_past_float64_names_the_profiles(self):
        form = GameForm((("a", "b"), ("c",)), (np.zeros((2, 1)), np.array([[-9e307], [9e307]])))
        assert game_flow(form).values.tolist() == [0.0]  # player 1 never moves
        form = GameForm(form.strategy_sets, form.utilities[::-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="^the game flow overflows float64: player 0's payoff change from "
                                                 "profile 'a,c' to 'b,c'$"):
                game_flow(form)


class TestDecomposeGameFlow:
    def test_road_sharing_reproduces_both_components(self):
        form = road_sharing_game()
        sg = strategy_graph(form)
        split = decompose_game_flow(game_flow(form, sg))
        for i, profile in enumerate(sg.profiles):
            assert split.potential.values[i] == pytest.approx(FIGURE_POTENTIAL[profile], abs=1e-8)
        # harmonic part: constant weight 2 around the six-cycle, zero elsewhere
        cycle_edges = {}
        for a, b in zip(FIGURE_SIX_CYCLE, FIGURE_SIX_CYCLE[1:] + FIGURE_SIX_CYCLE[:1]):
            u, v = sg.index[a], sg.index[b]
            cycle_edges[(min(u, v), max(u, v))] = 2.0 if u < v else -2.0
        for (u, v), value in zip(sg.graph.sorted_edges, split.harmonic_flow.values):
            assert value == pytest.approx(cycle_edges.get((u, v), 0.0), abs=1e-8)
        # and the two parts recombine into the original flow
        x = game_flow(form, sg)
        assert np.allclose(
            split.potential_flow.values + split.harmonic_flow.values, x.values, atol=1e-8
        )

    def test_zero_flow(self):
        sg = strategy_graph(road_sharing_game())
        split = decompose_game_flow(Cochain.zero(sg.complex, 1))
        assert norm(split.potential_flow) == 0.0
        assert norm(split.harmonic_flow) == 0.0

    def test_gradient_flow_recovers_common_payoff(self, rng):
        phi = rng.normal(size=(2, 2, 2))
        form = GameForm((("a", "b"),) * 3, (phi, phi, phi))
        sg = strategy_graph(form)
        split = decompose_game_flow(game_flow(form, sg))
        assert norm(split.harmonic_flow) < 1e-8
        flat = phi.reshape(-1)
        # game flow is +grad(phi), so the recovered potential is -phi up to gauge
        assert np.allclose(
            split.potential.values - split.potential.values.mean(),
            -(flat - flat.mean()),
            atol=1e-8,
        )

    def test_potential_game_has_no_harmonic_part(self, rng):
        phi = rng.normal(size=(3, 2))
        form = GameForm((("a", "b", "c"), ("p", "q")), (phi, phi))
        assert is_potential_game(form)
        split = decompose_game_flow(game_flow(form))
        assert norm(split.harmonic_flow) < 1e-8

    def test_tiny_utilities_split_as_their_scaled_up_game(self):
        """Utilities times 2^-600 give the game's potential and flows times 2^-600, bit for bit."""
        for seed in range(4):
            rng = np.random.default_rng(seed)
            labels = (("a", "b", "c"), ("p", "q", "r"))
            tables = tuple(rng.normal(size=(3, 3)) for _ in labels)
            big = decompose_game_flow(game_flow(GameForm(labels, tables)))
            tiny = decompose_game_flow(game_flow(GameForm(labels, tuple(np.ldexp(t, -600) for t in tables))))
            for name in ("potential_flow", "potential", "harmonic_flow"):
                expected = np.ldexp(getattr(big, name).values, -600)
                assert getattr(tiny, name).values.tobytes() == expected.tobytes(), (seed, name)

    def test_curl_violation_rejected(self, c3_complex):
        x = Cochain.from_dict(c3_complex, 1, {(1, 2): 1.0, (2, 3): 1.0, (3, 1): 1.0})
        with pytest.raises(ValueError, match="curl"):
            decompose_game_flow(x)


class TestPureNash:
    def test_rock_paper_scissors_has_none(self):
        assert pure_nash(rock_paper_scissors()) == []

    def test_road_sharing_equilibria_match_flow_sinks(self):
        form = road_sharing_game()
        sg = strategy_graph(form)
        x = game_flow(form, sg)
        flows = dict(zip(sg.graph.sorted_edges, x.values))
        sinks, nbrs = [], neighbor_sets(sg.graph)
        for v in range(1, len(sg.profiles) + 1):
            incident = []
            for u in nbrs[v]:
                value = flows[(u, v)] if u < v else -flows[(v, u)]
                incident.append(value)  # positive means flow into v
            if all(val >= 0 for val in incident):
                sinks.append(sg.profiles[v - 1])
        assert pure_nash(form) == sinks == []

    def test_nash_equals_sinks_on_random_games(self, rng):
        for _ in range(10):
            sizes = tuple(int(rng.integers(2, 4)) for _ in range(int(rng.integers(1, 4))))
            strategies = tuple(tuple(f"s{j}" for j in range(s)) for s in sizes)
            utilities = tuple(rng.integers(-5, 6, size=sizes).astype(float) for _ in sizes)
            form = GameForm(strategies, utilities)
            sg = strategy_graph(form)
            flows = dict(zip(sg.graph.sorted_edges, game_flow(form, sg).values))
            sinks, nbrs = set(), neighbor_sets(sg.graph)
            for v in range(1, len(sg.profiles) + 1):
                ok = True
                for u in nbrs[v]:
                    value = flows[(u, v)] if u < v else -flows[(v, u)]
                    if value < 0:
                        ok = False
                        break
                if ok:
                    sinks.add(sg.profiles[v - 1])
            assert set(pure_nash(form)) == sinks

    def test_coordination_game(self):
        match = np.array([[1.0, 0.0], [0.0, 1.0]])
        form = GameForm((("a", "b"), ("a", "b")), (match, match))
        assert pure_nash(form) == [("a", "a"), ("b", "b")]


class TestGameFormValidation:
    def test_from_tables_missing_profile(self):
        with pytest.raises(ValueError, match="misses profile"):
            GameForm.from_tables([["a", "b"]], [{"a": 1.0}])

    def test_from_tables_round_trip(self):
        tables = [{"a,p": 1.0, "a,q": 2.0, "b,p": 3.0, "b,q": 4.0}]
        form = GameForm.from_tables([["a", "b"], ["p", "q"]], tables * 2)
        assert form.utilities[0][1, 0] == 3.0

    @pytest.mark.parametrize("strategies", ["ab", ["ab", ["x"]], {"ab": ["x"]}, [{"a": 1, "b": 2}]])
    def test_label_lists_must_be_lists(self, strategies):
        with pytest.raises(ValueError, match="'strategies' must be a list of label lists"):
            GameForm.from_tables(strategies, [{"a,x": 1.0, "b,x": 2.0}] * 2)

    def test_booleans_are_no_utilities_but_numeric_strings_are(self):
        with pytest.raises(ValueError, match="utility table 0 has no float value at profile 'a'"):
            GameForm.from_tables([["a", "b"]], [{"a": True, "b": "2"}])
        form = GameForm.from_tables([["a", "b"]], [{"a": "1", "b": "-2.5e0"}])
        assert form.utilities[0].tolist() == [1.0, -2.5]

    def test_empty_strategy_set_rejected(self):
        with pytest.raises(ValueError, match="at least one strategy"):
            GameForm((("a",), ()), (np.zeros((1, 0)), np.zeros((1, 0))))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_utility_rejected(self, value):
        tables = [np.zeros((2, 3)), np.zeros((2, 3))]
        tables[1][1, 2] = value
        with pytest.raises(ValueError, match="utility table 1 has a non-finite value at profile 'b,r'"):
            GameForm((("a", "b"), ("p", "q", "r")), tuple(tables))
        with pytest.raises(ValueError, match="non-finite"):
            GameForm.from_tables([["a", "b"]], [{"a": 1.0, "b": float(value)}])


# Loop versions of the table-based game computations: the edge-by-edge flow,
# the edge-by-edge potential test and the profile-graph Laplacian of the
# strategy graph's clique complex. The fast paths must agree with them exactly.

def loop_game_flow(form, sg):
    indices = list(np.ndindex(form.shape))
    values = {}
    for u, v in sg.graph.sorted_edges:
        idx_u, idx_v = indices[u - 1], indices[v - 1]
        movers = [i for i, (a, b) in enumerate(zip(idx_u, idx_v)) if a != b]
        if len(movers) != 1:
            raise ValueError(f"profiles {idx_u} and {idx_v} do not differ in exactly one player")
        f = form.utilities[movers[0]]
        values[(u, v)] = float(f[idx_v] - f[idx_u])
    return Cochain.from_dict(sg.complex, 1, values)


def loop_is_potential_game(form, sg, tol=PREDICATE_TOL):
    indices = list(np.ndindex(form.shape))
    for u, v in sg.graph.sorted_edges:
        idx_u, idx_v = indices[u - 1], indices[v - 1]
        grads = [float(f[idx_v] - f[idx_u]) for f in form.utilities]
        if max(grads) - min(grads) > tol:
            return False
    return True


def loop_is_harmonic_game(form, sg, tol=PREDICATE_TOL):
    total = np.zeros(form.shape)
    for f in form.utilities:
        total = total + f
    lap = hodge_laplacian(sg.complex, 0)
    values = apply_operator(lap, Cochain(0, sg.complex, total.reshape(-1))).values
    return bool(np.max(np.abs(values), initial=0.0) <= tol)


def loop_pure_nash(form):
    """Exhaustive scan: a profile is kept unless some player gains by a unilateral deviation."""
    out = []
    for idx in np.ndindex(form.shape):
        stable = True
        for player, size in enumerate(form.shape):
            here = form.utilities[player][idx]
            for alt in range(size):
                if alt == idx[player]:
                    continue
                other = idx[:player] + (alt,) + idx[player + 1 :]
                if form.utilities[player][other] > here:
                    stable = False
                    break
            if not stable:
                break
        if stable:
            out.append(tuple(form.strategy_sets[i][idx[i]] for i in range(form.n_players)))
    return out


def tied_game(seed, shape):
    """Integer utilities from a range of 3 values, so best responses tie often."""
    rng = np.random.default_rng(seed)
    strategies = tuple(tuple(f"s{j}" for j in range(s)) for s in shape)
    return GameForm(strategies, tuple(rng.integers(0, 3, size=shape).astype(float) for _ in shape))


def seeded_game(seed, shape):
    rng = np.random.default_rng(seed)
    strategies = tuple(tuple(f"s{j}" for j in range(s)) for s in shape)
    return GameForm(strategies, tuple(rng.normal(size=shape) for _ in shape))


def common_payoff_game(seed, shape):
    """Every player gets the same table up to a per-player constant: a potential game."""
    rng = np.random.default_rng(seed)
    phi = rng.normal(size=shape)
    strategies = tuple(tuple(f"s{j}" for j in range(s)) for s in shape)
    return GameForm(strategies, tuple(phi + rng.normal() for _ in shape))


def zero_sum_game(seed, shape):
    """Two players whose utilities sum to zero: the summed table is 0, so harmonic."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=shape)
    strategies = tuple(tuple(f"s{j}" for j in range(s)) for s in shape)
    return GameForm(strategies, (u, -u))


def oracle_games():
    games = [seeded_game(seed, shape)
             for seed, shape in enumerate(((6,), (3, 3), (2, 3, 4), (3, 3, 3)))]
    games += [common_payoff_game(seed, shape) for seed, shape in enumerate(((3, 3), (2, 3, 4)))]
    games += [zero_sum_game(seed, shape) for seed, shape in enumerate(((2, 3), (4, 3)))]
    for form in (common_payoff_game(5, (2, 3, 2)), zero_sum_game(5, (3, 4))):
        # one entry moved by 1e-8: far below any scale but above PREDICATE_TOL
        nudged = [u.copy() for u in form.utilities]
        nudged[-1][(1,) * len(form.shape)] += 1e-8
        games.append(GameForm(form.strategy_sets, tuple(nudged)))
    games += [
        road_sharing_game(),
        rock_paper_scissors(),
        GameForm((("a", "b"), ("p", "q")), (np.full((2, 2), 2.0), np.full((2, 2), 5.0))),
        GameForm((("only",),), (np.zeros(1),)),
    ]
    return games


class TestLoopOracles:
    def test_game_flow_is_bit_equal(self):
        for form in oracle_games():
            sg = strategy_graph(form)
            got, ref = game_flow(form, sg), loop_game_flow(form, sg)
            assert got.complex == ref.complex and got.degree == ref.degree == 1
            assert np.array_equal(got.values, ref.values)

    def test_predicates_match(self):
        seen = set()
        for form in oracle_games():
            sg = strategy_graph(form)
            potential, harmonic = is_potential_game(form), is_harmonic_game(form)
            assert potential == loop_is_potential_game(form, sg)
            assert harmonic == loop_is_harmonic_game(form, sg)
            seen.add((potential, harmonic))
        assert seen == {(False, False), (True, False), (False, True), (True, True)}

    def test_mismatched_strategy_graph_rejected(self):
        form = seeded_game(0, (2, 3))
        transposed = seeded_game(0, (3, 2))
        with pytest.raises(ValueError, match="exactly one player"):
            loop_game_flow(form, strategy_graph(transposed))
        with pytest.raises(ValueError, match="exactly one player"):
            game_flow(form, strategy_graph(transposed))

    def test_pure_nash_matches_loop_scan(self):
        shapes = ((1,), (4,), (2, 2), (3, 3), (2, 3, 4), (3, 3, 3), (2, 2, 2, 2))
        games = oracle_games() + [tied_game(seed, shape) for seed in range(5) for shape in shapes]
        counts = set()
        for form in games:
            got = pure_nash(form)
            assert got == loop_pure_nash(form)
            counts.add(min(len(got), 2))
        assert counts == {0, 1, 2}  # no, one and several equilibria all occur

    def test_predicates_do_not_build_the_strategy_graph(self, monkeypatch):
        import graphhodge.games as games

        def forbidden(form):
            raise AssertionError("strategy graph rebuilt")

        form = road_sharing_game()
        sg = strategy_graph(form)
        monkeypatch.setattr(games, "strategy_graph", forbidden)
        assert not is_potential_game(form)
        assert not is_harmonic_game(form)
        assert np.array_equal(game_flow(form, sg).values, loop_game_flow(form, sg).values)
