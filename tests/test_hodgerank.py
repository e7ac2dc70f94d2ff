import dataclasses
import math

import numpy as np
import pytest

from graphhodge import (
    CliqueComplex,
    Cochain,
    ComparisonData,
    InputFormatError,
    aggregate,
    borda_divergence,
    enumerate_cliques,
    rank,
)
from graphhodge.hodgerank import _pair_statistics

from conftest import kendall_tau_distance


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


class TestRank:
    def test_edge_weights_are_vote_counts_in_edge_order(self, rng):
        records = [(f"v{v}", f"i{i}", int(rng.integers(1, 6)))
                   for v in range(25) for i in rng.choice(12, int(rng.integers(2, 8)), replace=False)]
        cf = aggregate(ratings(records))
        _, weight = loop_aggregate(ratings(records), "mean")
        result = rank(cf)
        assert list(result.edge_weights) == list(cf.graph.sorted_edges)
        assert result.edge_weights == {(u, v): weight[cf.items[u - 1], cf.items[v - 1]] for u, v in cf.graph.sorted_edges}
        assert len(set(result.edge_weights.values())) > 1

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


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_csv_rejects_non_finite_values(value):
    with pytest.raises(InputFormatError, match="record 2: value must be finite"):
        ComparisonData.from_csv(f"voter,item,score\nv1,a,3\nv1,b,{value}\n")
    with pytest.raises(InputFormatError, match="record 1: value must be finite"):
        ComparisonData.from_csv(f"v1,a,b,{value}\n")
