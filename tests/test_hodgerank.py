import dataclasses
import math

import numpy as np
import pytest

from graphhodge import (
    CliqueComplex,
    Cochain,
    ComparisonData,
    Graph,
    InputFormatError,
    aggregate,
    borda_divergence,
    divergence_matrix,
    enumerate_cliques,
    hodge_decompose,
    rank,
)
import graphhodge.complexes as complexes
from graphhodge.hodgerank import _pair_statistics

from conftest import assert_is_tuple_graph, kendall_tau_distance, random_graph


def ratings(records):
    return ComparisonData(ratings=tuple(records))


def pairwise(records):
    return ComparisonData(pairwise=tuple(records))


def flow_by_pair(cf):
    return {
        (cf.items[u - 1], cf.items[v - 1]): x
        for (u, v), x in zip(cf.graph.sorted_edges, cf.flow.values)
    }


class TestAggregate:
    def test_single_voter_score_differences(self):
        cf = aggregate(ratings([("v1", "a", 5), ("v1", "b", 3), ("v1", "c", 1)]))
        flows = flow_by_pair(cf)
        assert flows == {("a", "b"): 2.0, ("a", "c"): 4.0, ("b", "c"): 2.0}
        assert all(cf.weights.weight(e) == 1.0 for e in cf.graph.sorted_edges)

    def test_opposite_preferences_cancel(self):
        cf = aggregate(pairwise([("v1", "a", "b", 1.0), ("v2", "b", "a", 1.0)]))
        assert flow_by_pair(cf) == {("a", "b"): 0.0}
        assert cf.weights.weight((1, 2)) == 2.0

    def test_condorcet_triple_log_odds_is_cyclic(self):
        profiles = {
            "v1": ["a", "b", "c"],
            "v2": ["b", "c", "a"],
            "v3": ["c", "a", "b"],
        }
        records = []
        for voter, order in profiles.items():
            for i in range(3):
                for j in range(i + 1, 3):
                    records.append((voter, order[i], order[j], 1.0))
        cf = aggregate(pairwise(records), model="logodds")
        flows = flow_by_pair(cf)
        expected = math.log(2.5 / 1.5)
        assert flows[("a", "b")] == pytest.approx(expected)
        assert flows[("b", "c")] == pytest.approx(expected)
        assert flows[("a", "c")] == pytest.approx(-expected)  # c preferred over a

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError, match="no comparison records"):
            aggregate(ComparisonData())

    def test_self_comparison_rejected(self):
        with pytest.raises(ValueError, match="itself"):
            pairwise([("v1", "a", "a", 1.0)])

    def test_duplicate_pair_record_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            pairwise([("v1", "a", "b", 1.0), ("v1", "b", "a", 2.0)])

    def test_duplicate_rating_rejected(self):
        with pytest.raises(ValueError, match="duplicate rating"):
            ratings([("v1", "a", 1.0), ("v1", "a", 2.0)])

    def test_never_compared_item_excluded_with_warning(self):
        data = ratings([("v1", "a", 5), ("v1", "b", 3), ("v2", "z", 4)])
        with pytest.warns(UserWarning, match="excluded"):
            cf = aggregate(data)
        assert cf.items == ("a", "b")
        assert cf.excluded == ("z",)

    def test_voter_gauge_invariance(self):
        base = [("v1", "a", 5), ("v1", "b", 3), ("v2", "a", 2), ("v2", "b", 4)]
        shifted = [("v1", "a", 105), ("v1", "b", 103), ("v2", "a", 2), ("v2", "b", 4)]
        assert flow_by_pair(aggregate(ratings(base))) == flow_by_pair(aggregate(ratings(shifted)))


def loop_pair_statistics(data):
    """Per unordered pair, the list of signed per-voter values, built in nested loops: the replaced
    grouping, kept as oracle. Returns (values, universe)."""
    values: dict[tuple[str, str], list[float]] = {}
    universe: set[str] = set()
    if data.ratings:
        by_voter: dict[str, dict[str, float]] = {}
        for voter, item, score in data.ratings:
            by_voter.setdefault(voter, {})[item] = score
            universe.add(item)
        for scores in by_voter.values():
            names = sorted(scores)
            for idx, a in enumerate(names):
                for b in names[idx + 1 :]:
                    values.setdefault((a, b), []).append(scores[a] - scores[b])
    else:
        for voter, a, b, value in data.pairwise:
            universe.add(a)
            universe.add(b)
            if a < b:
                values.setdefault((a, b), []).append(value)
            else:
                values.setdefault((b, a), []).append(-value)
    return values, universe


def loop_aggregate(data, model):
    """Per-pair flow and vote count, one np.mean or win count per pair: the replaced loop, kept as oracle."""
    values, _ = loop_pair_statistics(data)
    flow, weight = {}, {}
    for (a, b), diffs in values.items():
        if model == "mean":
            flow[a, b] = float(np.mean(diffs))
        else:
            wins_a = sum(1 for d in diffs if d > 0)
            wins_b = sum(1 for d in diffs if d < 0)
            flow[a, b] = math.log((wins_a + 0.5) / (wins_b + 0.5))
        weight[a, b] = float(len(diffs))
    return flow, weight


def vote_count_ratings(rng, counts, integer):
    """Ratings in which pair number p is compared by exactly counts[p] voters, plus one dense voter pool."""
    records = []
    for p, c in enumerate(counts):
        for v in range(c):
            for item in (f"a{p}", f"b{p}"):
                score = int(rng.integers(1, 6)) if integer else float(rng.normal(scale=10.0))
                records.append((f"p{p}v{v}", item, score))
    for v in range(40):
        for item in rng.choice(12, 6, replace=False):
            score = int(rng.integers(1, 6)) if integer else float(rng.random())
            records.append((f"pool{v}", f"i{item:02d}", score))
    return ratings(records)


class TestPairStatisticsOracle:
    def assert_matches_loop(self, data):
        names, pairs, counts, votes = _pair_statistics(data)
        values, universe = loop_pair_statistics(data)
        assert list(names) == sorted(universe)
        keys = [(names[i], names[j]) for i, j in pairs.tolist()]
        assert keys == sorted(values)
        assert np.array_equal(counts, [len(values[k]) for k in keys])
        # each pair's votes in the loop's voter order, bit for bit
        assert np.array_equal(votes, [x for k in keys for x in values[k]])
        return pairs

    def test_shuffled_ratings(self, rng):
        for _ in range(20):
            records = [(f"v{v}", f"i{i}", float(rng.choice([1.0, 2.5, 3.0, -0.0, 1e-300])))
                       for v in range(int(rng.integers(1, 25)))
                       for i in rng.choice(12, int(rng.integers(1, 9)), replace=False)]
            self.assert_matches_loop(ratings([records[i] for i in rng.permutation(len(records))]))

    def test_interleaved_pairwise_records(self, rng):
        for _ in range(20):
            records = {}
            for _ in range(int(rng.integers(1, 80))):
                v, (a, b) = int(rng.integers(6)), rng.choice(9, 2, replace=False)
                records[v, frozenset((a, b))] = (f"v{v}", f"i{a}", f"i{b}", float(rng.normal()))
            self.assert_matches_loop(pairwise(records.values()))

    def test_no_pair(self):
        pairs = self.assert_matches_loop(ratings([("v1", "a", 1.0), ("v2", "b", 2.0)]))
        assert pairs.shape == (0, 2)

    def test_flow_is_in_the_complex_edge_order(self, rng):
        records = [(f"v{v}", f"i{i}", int(rng.integers(1, 6)))
                   for v in range(20) for i in rng.choice(15, 6, replace=False)]
        cf = aggregate(ratings(records))
        assert cf.graph.sorted_edges == cf.complex.cliques(2)
        flow, _ = loop_aggregate(ratings(records), "mean")
        assert flow_by_pair(cf) == flow


class TestAggregateOracle:
    COUNTS = [*range(1, 40), 127, 128, 129, 200, 300]

    @pytest.mark.parametrize("model", ["mean", "logodds"])
    @pytest.mark.parametrize("integer", [False, True])
    def test_flows_and_weights_bit_identical(self, rng, model, integer):
        data = vote_count_ratings(rng, self.COUNTS, integer)
        cf = aggregate(data, model=model)
        flow, weight = loop_aggregate(data, model)
        pairs = [(cf.items[u - 1], cf.items[v - 1]) for u, v in cf.graph.sorted_edges]
        assert np.array_equal(cf.flow.values, [flow[p] for p in pairs])
        vid = {item: v for v, item in enumerate(cf.items, start=1)}
        assert_is_tuple_graph(cf.graph, len(cf.items), [(vid[a], vid[b]) for a, b in flow])
        assert np.array_equal(cf.weights.vector(cf.complex, 1), [weight[p] for p in pairs])
        assert set(map(float, self.COUNTS)) <= set(weight.values())  # every group size occurs

    @pytest.mark.parametrize("model", ["mean", "logodds"])
    def test_pairwise_records(self, rng, model):
        records = []
        for v in range(30):
            for _ in range(8):
                a, b = rng.choice(10, 2, replace=False)
                records.append((f"v{v}", f"i{a}", f"i{b}", float(rng.choice([-1.0, 0.0, 0.5, 2.0]))))
        data = pairwise(dict(((r[0], frozenset(r[1:3])), r) for r in records).values())
        cf = aggregate(data, model=model)
        flow, _ = loop_aggregate(data, model)
        pairs = [(cf.items[u - 1], cf.items[v - 1]) for u, v in cf.graph.sorted_edges]
        assert np.array_equal(cf.flow.values, [flow[p] for p in pairs])
        vid = {item: v for v, item in enumerate(cf.items, start=1)}
        assert_is_tuple_graph(cf.graph, len(cf.items), [(vid[a], vid[b]) for a, b in flow])


def test_rank_path_builds_no_triangle_tuples(rng, monkeypatch):
    cliques = CliqueComplex.cliques

    def guarded(cx, order):
        if order >= 3:
            raise AssertionError(f"tuple view of the order-{order} level built")
        return cliques(cx, order)

    monkeypatch.setattr(CliqueComplex, "cliques", guarded)
    records = [(f"v{v}", f"i{i}", int(rng.integers(1, 6)))
               for v in range(30) for i in rng.choice(15, 8, replace=False)]
    cf = aggregate(ratings(records))
    result = rank(cf)
    assert cf.complex.n_cliques(3) > 100
    assert result.certificate.norm_input > 0


def eager_rank(cf):
    """rank of the same flow and weights on a fresh copy of the graph, enumerated through order 3 at once."""
    graph = Graph(cf.graph.n_vertices, cf.graph.pairs)
    flow = Cochain(1, enumerate_cliques(graph, 3), cf.flow.values)
    return rank(dataclasses.replace(cf, flow=flow, graph=graph))


def votes_on(graph, rng):
    """Pairwise records on the edges of graph, each pair compared by 1-4 voters."""
    return pairwise([(f"v{k}", f"i{u:03d}", f"i{v:03d}", float(rng.integers(-5, 6)))
                     for u, v in graph.pairs.tolist() for k in range(int(rng.integers(1, 5)))])


class TestLazyTriangles:
    """aggregate enumerates nothing above the edges. rank on a dense comparison graph (64 c_3 >= n^3) reads no
    triangle; elsewhere the triangles are enumerated on first read. Either way the result is the eager one's."""

    def test_dense_comparisons_record_no_triangle(self):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            records = [(f"v{v}", f"i{i}", int(rng.integers(1, 6))) for v in range(40)
                       for i in rng.choice(14 + seed, 8, replace=False)]
            cf = aggregate(ratings(records))
            assert not any(order > 2 for _, order in cf.graph._memo)
            result = rank(cf)
            memo = cf.graph._memo
            assert ("faces", 3) not in memo and ("level", 3) not in memo and ("adjacency", 2) in memo
            assert result.to_json_dict() == eager_rank(cf).to_json_dict()
            n, c3 = cf.graph.n_vertices, cf.complex.n_cliques(3)  # enumerated on this read
            assert 64 * c3 >= n**3 and c3 == enumerate_cliques(Graph(n, cf.graph.pairs), 3).n_cliques(3)

    def test_other_comparison_graphs_enumerate_on_first_read(self, rng):
        k20 = [(u, v) for u in range(1, 21) for v in range(21, 41)]
        cases = [  # (graph, whether 9 n^6 > 8192 m^3 rules a dense level out)
            (random_graph(rng, 40, 0.12), True),
            (Graph(40, k20 + [(1, 2), (3, 4), (5, 6)]), False),  # 60 triangles: counted from A, which is dropped
            (Graph(40, k20), False),  # no triangle: has_up is read off the counts, and nothing is enumerated
        ]
        for graph, size_rule in cases:
            cf = aggregate(votes_on(graph, rng))
            n, m = cf.graph.n_vertices, len(cf.graph.pairs)
            assert (9 * n**6 > 8192 * m**3) == size_rule
            result = rank(cf)
            memo = cf.graph._memo
            assert ("adjacency", 2) not in memo and (("edge triangles", 3) in memo) != size_rule
            assert (("faces", 3) in memo) == (len(graph.pairs) != 400)
            assert result.to_json_dict() == eager_rank(cf).to_json_dict()
            assert 64 * cf.complex.n_cliques(3) < n**3
        assert cf.complex.n_cliques(5) == 0  # past max_order, proven empty by reading level 3, as when enumerated


class TestRankSizeGuard:
    """rank under a physical memory that refuses order-3 enumeration: a dense comparison graph never asks for it,
    a sparse one exits 1 naming the order and its candidates, and a refusal read lazily is not cached away."""

    LIMIT = 35 * 490_000 - 1  # refuses K_150's 551,300 candidates and the star's 700 x 700

    def test_dense_ranks_and_sparse_exits_one(self, monkeypatch, tmp_path, capsys):
        from test_complexes import TestEnumerationSizeGuard

        from graphhodge.cli import main

        k150 = "".join(f"v{(u + v) % 3},i{u:03d},i{v:03d},{(3 * u + 5 * v) % 11 - 5}\n"
                       for u in range(150) for v in range(u + 1, 150))
        star = "".join(f"v,i{leaf:04d},i0700,{leaf % 7 - 3}\n" for leaf in range(1401) if leaf != 700)
        paths = {name: tmp_path / f"{name}.csv" for name in ("k150", "star")}
        for name, text in (("k150", k150), ("star", star)):
            paths[name].write_text(text)
        TestEnumerationSizeGuard.probe(monkeypatch, self.LIMIT)
        assert main(["rank", "--input", str(paths["k150"]), "--output", str(tmp_path / "k150.json")]) == 0
        assert main(["rank", "--input", str(paths["star"])]) == 1
        assert capsys.readouterr().err == ("graphhodge: error: clique enumeration at order 3 has 490000 candidates: "
                                           f"it needs 17150000 bytes, more than the {self.LIMIT} bytes of physical "
                                           "memory\n")
        dense, sparse = (aggregate(ComparisonData.from_csv(text)) for text in (k150, star))
        rank(dense)
        for _ in range(2):
            with pytest.raises(ValueError, match="order 3 has 551300 candidates"):
                dense.complex.n_cliques(3)
            with pytest.raises(ValueError, match="order 3 has 490000 candidates"):
                rank(sparse)
        TestEnumerationSizeGuard.probe(monkeypatch, 35 * 551_300)
        assert dense.complex.n_cliques(3) == 551_300 and rank(sparse).certificate.norm_locally_inconsistent == 0


def test_rank_computes_the_components_once(rng, monkeypatch):
    """The potential's gauge and the result read the components of one computation, kept on the graph; each read
    gets new lists."""
    compute, seen = complexes._components, []
    monkeypatch.setattr(complexes, "_components", lambda graph: seen.append(graph) or compute(graph))
    records = [(f"v{group}{v}", f"{group}{i}", int(rng.integers(1, 6)))
               for group in "ab" for v in range(10) for i in rng.choice(8, 4, replace=False)]
    cf = aggregate(ratings(records))
    result = rank(cf)
    assert len(seen) == 1 and len(result.components) == 2
    cf.graph.connected_components()[0].append(0)
    assert rank(cf).to_json_dict() == result.to_json_dict() and len(seen) == 1


def rank_ratings(seed):
    """300 items, 200 voters rating 20 each, drawn as the rank-ratings benchmark draws them: ~25k compared pairs, a
    dense comparison graph of ~0.9M triangles."""
    rng = np.random.default_rng([seed, 0, 1])
    chosen = np.sort(np.array([rng.choice(300, 20, replace=False) for _ in range(200)]), axis=1)
    scores = rng.integers(1, 6, size=(200, 20))
    return ratings((f"v{v:03d}", f"i{item:03d}", int(score))
                   for v in range(200) for item, score in zip(chosen[v], scores[v]))


class TestOverflowReadsNoTriangle:
    """An overflowing split reads the weights of the degrees that have a table only, so on a lazily built comparison
    complex its message enumerates no triangle."""

    def test_overflowing_split_records_no_triangle(self):
        cf = aggregate(rank_ratings(0))
        with pytest.raises(ValueError, match=r"^the solves overflow float64"):
            hodge_decompose(Cochain(1, cf.complex, cf.flow.values * 1e307), cf.weights)
        assert ("faces", 3) not in cf.graph._memo

    def test_refused_enumeration_leaves_the_overflow_message(self, monkeypatch):
        from test_complexes import TestEnumerationSizeGuard

        k150 = "".join(f"v,i{u:03d},i{v:03d},{(-1) ** (u + v) * 1.5e308}\n"
                       for u in range(150) for v in range(u + 1, 150))
        cf = aggregate(ComparisonData.from_csv(k150))
        TestEnumerationSizeGuard.probe(monkeypatch, TestRankSizeGuard.LIMIT)
        with pytest.raises(ValueError) as info:
            rank(cf)
        assert str(info.value) == "the solves overflow float64 (the cochain's largest |value| is 1.5e+308)"


class TestRank:
    def test_edge_weights_are_vote_counts_in_edge_order(self, rng):
        records = [(f"v{v}", f"i{i}", int(rng.integers(1, 6)))
                   for v in range(25) for i in rng.choice(12, int(rng.integers(2, 8)), replace=False)]
        cf = aggregate(ratings(records))
        _, weight = loop_aggregate(ratings(records), "mean")
        edge_weights = cf.weights.vector(cf.complex, 1).tolist()
        assert edge_weights == [weight[cf.items[u - 1], cf.items[v - 1]] for u, v in cf.graph.sorted_edges]
        assert len(set(edge_weights)) > 1

    def test_consistent_data_recovers_order(self):
        cf = aggregate(ratings([("v1", "a", 5), ("v1", "b", 3), ("v1", "c", 1)]))
        result = rank(cf)
        assert result.order == ("a", "b", "c")
        assert result.certificate.inconsistency_ratio < 1e-12
        assert result.scores["a"] - result.scores["b"] == pytest.approx(2.0, abs=1e-9)
        assert sum(result.scores.values()) == pytest.approx(0.0, abs=1e-9)

    def test_noiseless_differences_zero_kendall_tau(self, rng):
        for _ in range(20):
            n_items = int(rng.integers(3, 9))
            items = [f"i{j:02d}" for j in range(n_items)]
            truth = rng.permutation(np.linspace(1.0, 9.0, n_items))
            records = [("v1", item, float(truth[j])) for j, item in enumerate(items)]
            result = rank(aggregate(ratings(records)))
            true_order = tuple(sorted(items, key=lambda it: -truth[items.index(it)]))
            assert kendall_tau_distance(result.order, true_order) == 0

    def test_cyclic_triangle_is_locally_inconsistent(self):
        cf = aggregate(
            pairwise([("v1", "a", "b", 1.0), ("v1", "b", "c", 1.0), ("v1", "c", "a", 1.0)])
        )
        result = rank(cf)
        cert = result.certificate
        assert all(abs(s) < 1e-9 for s in result.scores.values())
        assert cert.inconsistency_ratio == pytest.approx(1.0, abs=1e-9)
        assert cert.norm_globally_inconsistent < 1e-9
        assert cert.norm_locally_inconsistent == pytest.approx(cert.norm_input, abs=1e-9)

    def test_cyclic_square_is_globally_inconsistent(self):
        cf = aggregate(
            pairwise(
                [
                    ("v1", "a", "b", 1.0),
                    ("v1", "b", "c", 1.0),
                    ("v1", "c", "d", 1.0),
                    ("v1", "d", "a", 1.0),
                ]
            )
        )
        result = rank(cf)
        cert = result.certificate
        assert all(abs(s) < 1e-9 for s in result.scores.values())
        assert cert.inconsistency_ratio == pytest.approx(1.0, abs=1e-9)
        assert cert.norm_locally_inconsistent < 1e-9
        assert cert.norm_globally_inconsistent == pytest.approx(cert.norm_input, abs=1e-9)

    def test_positive_scaling_preserves_order(self, rng):
        records = [
            ("v1", "a", 4.0), ("v1", "b", 0.5), ("v1", "c", 3.0),
            ("v2", "a", 2.0), ("v2", "b", 5.0), ("v2", "d", 1.0),
        ]
        cf = aggregate(ratings(records))
        base = rank(cf)
        for c in (0.5, 3.0, 17.0):
            scaled = dataclasses.replace(cf, flow=c * cf.flow)
            result = rank(scaled)
            assert result.order == base.order
            for item in cf.items:
                assert result.scores[item] == pytest.approx(c * base.scores[item], abs=1e-8)

    def test_pythagoras_certificate(self, rng):
        for _ in range(10):
            n_items = 6
            items = [f"i{j}" for j in range(n_items)]
            records = []
            for v in range(4):
                chosen = rng.choice(n_items, size=4, replace=False)
                for j in chosen:
                    records.append((f"v{v}", items[int(j)], float(rng.normal())))
            cf = aggregate(ratings(records))
            cert = rank(cf).certificate
            lhs = cert.norm_input**2
            rhs = (
                cert.norm_consistent**2
                + cert.norm_locally_inconsistent**2
                + cert.norm_globally_inconsistent**2
            )
            assert abs(lhs - rhs) <= 1e-8 * max(lhs, 1.0)

    def test_vote_count_weights_resist_single_voter_takeover(self):
        # 99 voters slightly favor a over b and b over c; one voter crushes a against c
        records = []
        for v in range(99):
            records.append((f"p{v}", "a", "b", 1.0))
            records.append((f"p{v}", "b", "c", 1.0))
        records.append(("lone", "a", "c", -10.0))
        cf = aggregate(pairwise(records))
        weighted = rank(cf)
        assert weighted.order == ("a", "b", "c")
        unit = dataclasses.replace(cf, weights=__import__("graphhodge").WeightScheme.unit())
        unweighted = rank(unit)
        assert unweighted.order != weighted.order
        assert unweighted.scores["a"] < unweighted.scores["b"]

    def test_disconnected_components_flagged(self):
        records = [("v1", "a", "b", 1.0), ("v2", "c", "d", 2.0)]
        result = rank(aggregate(pairwise(records)))
        assert not result.connected
        assert result.components == (("a", "b"), ("c", "d"))
        assert result.to_json_dict()["incomparable_across_components"] is True

    def test_tie_break_is_ascending_item_id(self):
        result = rank(aggregate(pairwise([("v1", "b", "a", 0.0), ("v1", "c", "a", 0.0)])))
        assert result.order == ("a", "b", "c")


class TestBorda:
    def test_divergence_free_flow_is_neutral(self):
        cf = aggregate(
            pairwise(
                [
                    ("v1", "a", "b", 1.0),
                    ("v1", "b", "c", 1.0),
                    ("v1", "c", "d", 1.0),
                    ("v1", "d", "a", 1.0),
                ]
            )
        )
        assert np.allclose(borda_divergence(cf.flow).values, 0.0)

    def test_star_center_wins(self):
        records = [("v1", "hub", leaf, 1.0) for leaf in ("x", "y", "z")]
        cf = aggregate(pairwise(records))
        div = borda_divergence(cf.flow)
        by_item = dict(zip(cf.items, div.values))
        assert by_item["hub"] == pytest.approx(3.0)
        assert by_item["x"] == by_item["y"] == by_item["z"] == pytest.approx(-1.0)

    def test_single_edge(self):
        cf = aggregate(pairwise([("v1", "a", "b", 3.0)]))
        div = dict(zip(cf.items, borda_divergence(cf.flow).values))
        assert div == {"a": pytest.approx(3.0), "b": pytest.approx(-3.0)}

    def test_equals_the_divergence_matrix_product(self, rng):
        """By the edge-array d_0, against divergence_matrix(cx) @ X: equal, with isolated items at +0 as there."""
        for _ in range(20):
            graph = random_graph(rng, int(rng.integers(2, 16)), float(rng.uniform(0.2, 0.9)))
            cx = enumerate_cliques(Graph(graph.n_vertices + 2, graph.pairs), 2)  # the last two items isolated
            x = Cochain(1, cx, rng.normal(size=cx.n_cliques(2)) * 10.0 ** rng.integers(-5, 5, cx.n_cliques(2)))
            got, ref = borda_divergence(x).values, divergence_matrix(cx) @ x.values
            assert np.array_equal(got, ref) and not np.signbit(got[-2:]).any()
        cx = enumerate_cliques(Graph(1, []), 2)
        assert borda_divergence(Cochain(1, cx, np.zeros(0))).values.tolist() == [0.0]


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_csv_rejects_non_finite_values(value):
    with pytest.raises(InputFormatError, match="record 2: value must be finite"):
        ComparisonData.from_csv(f"voter,item,score\nv1,a,3\nv1,b,{value}\n")
    with pytest.raises(InputFormatError, match="record 1: value must be finite"):
        ComparisonData.from_csv(f"v1,a,b,{value}\n")
