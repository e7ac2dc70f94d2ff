import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphhodge import (
    Cochain,
    GameForm,
    Graph,
    InputFormatError,
    WeightScheme,
    coboundary,
    enumerate_cliques,
    hodge_decompose,
    hodge_laplacian,
    inner_product,
    norm,
    read_cochain_tsv,
    read_weights_tsv,
    spectrum,
    write_cochain_tsv,
)
from graphhodge.cochains import _ascending, _key_text
from graphhodge.complexes import CliqueComplex

from conftest import (
    clique_index,
    complete_graph,
    index_eval,
    loop_write_cochain_tsv,
    raised_message,
    random_graph,
    sort_with_sign,
    special_floats,
    with_value_at_random,
)


class TestEquality:
    def test_equal_values_in_another_array(self, c3_complex):
        v = np.array([1.0, -2.0, 0.5])
        c, d = Cochain(1, c3_complex, v), Cochain(1, c3_complex, v.copy())
        assert c == d and not c != d and c in [d]
        assert c != Cochain(1, c3_complex, v + 1) and c != Cochain(0, c3_complex, v) and c != 1.0
        assert c != Cochain(1, enumerate_cliques(c3_complex.graph, 2), v)  # another complex of the same graph
        with pytest.raises(TypeError):
            hash(c)

    @staticmethod
    def records(extra: bool) -> dict:
        """Each record that holds an array or a sparse matrix, built from new inputs on every call: the same ones, or
        with an edge, a weight, a utility and a value changed where extra."""
        edges = [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)] + [(2, 4)] * extra
        cx = enumerate_cliques(Graph.from_edges(5, edges), 3)
        w = WeightScheme.from_table({(1, 2): 2.0 + extra, (1, 2, 3): 3.0})
        x = Cochain.from_dict(cx, 1, {(1, 2): 1.0, (3, 4): -2.0 - extra})
        return {"spectrum": spectrum(hodge_laplacian(cx, 1, w)), "weights": w, "laplacian": hodge_laplacian(cx, 1, w),
                "coboundary": coboundary(cx, 1), "split": hodge_decompose(x, w),
                "game": GameForm((("a", "b"), ("c", "d")), (np.eye(2) + extra, np.ones((2, 2))))}

    @pytest.mark.parametrize("name", ["spectrum", "weights", "laplacian", "coboundary", "split", "game"])
    def test_records_holding_arrays_compare_by_value(self, name):
        one, copy, other = self.records(False)[name], self.records(False)[name], self.records(True)[name]
        assert one == copy and not one != copy and one in [copy]
        assert one != other and not one == other and one not in [other] and one != 1.0
        with pytest.raises(TypeError):
            hash(one)


def test_eval_edge_antisymmetry(c3_complex):
    x = Cochain.from_dict(c3_complex, 1, {(1, 2): 2.0})
    assert x.eval((1, 2)) == 2.0
    assert x.eval((2, 1)) == -2.0


def test_eval_repeated_vertex_is_zero(c3_complex):
    phi = Cochain.from_dict(c3_complex, 2, {(1, 2, 3): 5.0})
    assert phi.eval((1, 1, 3)) == 0.0


def test_eval_triangle_signs(c3_complex):
    phi = Cochain.from_dict(c3_complex, 2, {(1, 2, 3): 5.0})
    assert phi.eval((3, 1, 2)) == 5.0
    assert phi.eval((2, 1, 3)) == -5.0


def test_eval_non_clique_is_zero(c4_complex):
    x = Cochain.from_dict(c4_complex, 1, {(1, 2): 1.0})
    assert x.eval((1, 3)) == 0.0


def test_eval_out_of_range_vertex(c3_complex):
    x = Cochain.zero(c3_complex, 1)
    with pytest.raises(ValueError, match="out of range"):
        x.eval((1, 9))


@given(st.permutations(list(range(4))))
@settings(max_examples=24, deadline=None)
def test_eval_alternating_under_permutation(perm):
    cx = enumerate_cliques(complete_graph(5), 5)
    rng = np.random.default_rng(7)
    phi = Cochain(3, cx, rng.normal(size=cx.n_cliques(4)))
    base = (1, 3, 4, 5)
    permuted = tuple(base[i] for i in perm)
    _, sign = sort_with_sign(perm)
    assert phi.eval(permuted) == pytest.approx(sign * phi.eval(base))


@given(st.integers(1, 9), st.floats(0.2, 0.95), st.integers(0, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_eval_matches_the_index_oracle_without_tuple_views(n, p, degree, seed):
    rng = np.random.default_rng(seed)
    cx = enumerate_cliques(random_graph(rng, n, p), degree + 1)
    c = Cochain(degree, cx, special_floats(rng, cx.n_cliques(degree + 1)))
    order = degree + 1
    queries = [tuple(rng.permutation(row).tolist()) for row in cx.level(order)]  # cliques in any vertex order
    queries += [tuple(rng.integers(1, n + 1, size=order).tolist()) for _ in range(40)]  # non-cliques, repeats
    queries += [(v,) * order for v in range(1, n + 1)]
    expected = [index_eval(c, q) for q in queries]

    def forbidden(*args):
        raise AssertionError("read a tuple view of a clique level")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CliqueComplex, "cliques", forbidden)
        got = [c.eval(q) for q in queries]
    assert got == expected
    assert [str(x) for x in got] == [str(x) for x in expected]  # the sign of zero too


def test_inner_product_constant_flow(c3_complex):
    x = Cochain(1, c3_complex, np.full(3, 2.0))
    assert inner_product(x, x) == pytest.approx(12.0)
    assert norm(x) == pytest.approx(np.sqrt(12.0))


def test_inner_product_zero(c3_complex):
    x = Cochain(1, c3_complex, np.array([3.0, -1.0, 2.0]))
    zero = Cochain.zero(c3_complex, 1)
    assert inner_product(x, zero) == 0.0


def test_inner_product_weighted_path():
    path = enumerate_cliques(Graph.from_edges(3, [(1, 2), (2, 3)]), 3)
    x = Cochain.from_dict(path, 1, {(1, 2): 1.0, (2, 3): 1.0})
    w = WeightScheme.from_table({(1, 2): 3.0})
    assert inner_product(x, x, w) == pytest.approx(4.0)


def test_norm_examples(c3_complex):
    assert norm(Cochain.zero(c3_complex, 1)) == 0.0
    ones = Cochain(0, c3_complex, np.ones(3))
    assert norm(ones) == pytest.approx(np.sqrt(3))


def test_inner_product_degree_mismatch(c3_complex):
    f = Cochain.zero(c3_complex, 0)
    x = Cochain.zero(c3_complex, 1)
    with pytest.raises(ValueError, match="degree mismatch"):
        inner_product(f, x)


def test_inner_product_bilinear_symmetric_positive(rng):
    g = random_graph(rng, 8, 0.5)
    cx = enumerate_cliques(g, 3)
    m = cx.n_cliques(2)
    if m == 0:
        pytest.skip("degenerate random draw")
    w = WeightScheme.from_table({e: float(rng.uniform(0.5, 2.0)) for e in cx.cliques(2)})
    for _ in range(10):
        a = Cochain(1, cx, rng.normal(size=m))
        b = Cochain(1, cx, rng.normal(size=m))
        c = Cochain(1, cx, rng.normal(size=m))
        s, t = rng.normal(), rng.normal()
        assert inner_product(a, b, w) == pytest.approx(inner_product(b, a, w))
        assert inner_product(s * a + t * b, c, w) == pytest.approx(
            s * inner_product(a, c, w) + t * inner_product(b, c, w)
        )
        if np.any(a.values):
            assert inner_product(a, a, w) > 0


def test_empty_level_cochain_is_zero_object(c4_complex):
    phi = Cochain.zero(c4_complex, 2)
    assert phi.values.shape == (0,)
    assert norm(phi) == 0.0


class TestCochainTsv:
    def test_round_trip(self, c4_complex, rng):
        x = Cochain(1, c4_complex, rng.normal(size=4))
        again = read_cochain_tsv(write_cochain_tsv(x), c4_complex)
        assert np.allclose(again.values, x.values)

    def test_non_ascending_line_normalized(self, c4_complex):
        x = read_cochain_tsv("1 2 2\n2 3 2\n3 4 2\n4 1 2\n", c4_complex)
        assert x.eval((4, 1)) == 2.0
        assert x.eval((1, 4)) == -2.0

    def test_omitted_cliques_default_to_zero(self, c4_complex):
        x = read_cochain_tsv("1 2 5\n", c4_complex, degree=1)
        assert x.eval((2, 3)) == 0.0

    def test_duplicate_clique_rejected(self, c4_complex):
        with pytest.raises(InputFormatError, match="duplicate"):
            read_cochain_tsv("1 2 5\n2 1 3\n", c4_complex)

    def test_non_clique_rejected(self, c4_complex):
        with pytest.raises(InputFormatError, match="not a clique"):
            read_cochain_tsv("1 3 5\n", c4_complex)

    def test_degree_inferred_from_first_line(self, c3_complex):
        phi = read_cochain_tsv("1 2 3 7\n", c3_complex)
        assert phi.degree == 2


class TestWeights:
    def test_unit_vector(self, c3_complex):
        assert np.all(WeightScheme.unit().vector(c3_complex, 1) == 1.0)

    def test_table_defaults_to_one(self, c3_complex):
        w = WeightScheme.from_table({(1, 2): 3.0})
        assert list(w.vector(c3_complex, 1)) == [3.0, 1.0, 1.0]

    def test_positive_required(self):
        with pytest.raises(ValueError, match="positive"):
            WeightScheme.from_table({(1, 2): 0.0})

    # keys with a non-integral id, and the key each message names: the stored form, ascending
    NON_INTEGRAL_KEYS = {(1.7, 2): "(1.7, 2)", (2, 1.5): "(1.5, 2)", (3, 1, 2.5): "(1, 2.5, 3)",
                         (float("nan"), 2): "(nan, 2)", (1, float("inf")): "(1, inf)", (0.5,): "(0.5,)"}

    @pytest.mark.parametrize("key", list(NON_INTEGRAL_KEYS), ids=list(map(str, NON_INTEGRAL_KEYS.values())))
    def test_non_integral_key_rejected_naming_it(self, c3_complex, key):
        entries = {(1, 2): 3.0, key: 2.0, (2, 3): 0.5}
        message = f"{self.NON_INTEGRAL_KEYS[key]} has a non-integral vertex id"
        assert raised_message(lambda: WeightScheme.from_table(entries)) == message
        w = WeightScheme.from_table({(2.0, 1): 3.0, (3.0,): 2.0})  # integral floats still name their clique
        assert list(w.vector(c3_complex, 1)) == [3.0, 1.0, 1.0] and list(w.vector(c3_complex, 0)) == [1.0, 1.0, 2.0]

    def test_array_table_with_non_integral_ids_rejected(self):
        assert raised_message(lambda: WeightScheme({2: (np.array([[1.7, 2.0]]), [3.0])})) == \
            "(1.7, 2.0) has a non-integral vertex id"
        cliques, _ = WeightScheme({2: (np.array([[1.0, 2.0]]), [3.0])}).tables[2]
        assert cliques.dtype == np.int64 and cliques.tolist() == [[1, 2]]
        pairs = np.array([[1, 2], [2, 3]], dtype=np.int64)
        assert np.shares_memory(WeightScheme({2: (pairs, [1.0, 2.0])}).tables[2][0], pairs)  # no copy

    def test_flat_table_reads_order_ids_per_clique(self):
        cliques, _ = WeightScheme({2: ([1, 2, 2, 3], [1.0, 2.0])}).tables[2]
        assert cliques.tolist() == [[1, 2], [2, 3]]
        assert raised_message(lambda: WeightScheme({1: ([1.5], [2.0])})) == "(1.5,) has a non-integral vertex id"
        assert raised_message(lambda: WeightScheme({2: ([1, 2, 2.5, 3], [1.0, 2.0])})) == \
            "(2.5, 3.0) has a non-integral vertex id"

    def test_weights_tsv(self):
        w = read_weights_tsv("1 2 3.5\n2 1.25\n")
        assert w.weight((1, 2)) == 3.5
        assert w.weight((1,)) == 1.0
        assert w.weight((2,)) == 1.25
        with pytest.raises(InputFormatError, match="positive"):
            read_weights_tsv("1 2 -1\n")

    def test_weight_reads_a_clique_named_in_any_order(self):
        w = WeightScheme.from_table({(1, 2): 3.0, (3, 1, 2): 0.5})
        assert w.weight((2, 1)) == w.weight((1, 2)) == 3.0
        assert w.weight((2, 3, 1)) == w.weight((1, 2, 3)) == 0.5

    def test_scheme_is_its_tables(self):
        assert [f.name for f in dataclasses.fields(WeightScheme)] == ["tables"]
        assert WeightScheme.unit() == WeightScheme.from_table({})
        assert WeightScheme.from_table({}).mode == "unit"
        assert WeightScheme.from_table({(1, 2): 3.0}).mode == "table"

    def test_untabled_order_does_not_visit_cliques(self, rng, monkeypatch):
        cx = enumerate_cliques(complete_graph(6), 3)
        w = WeightScheme.from_table({(1, 2): 3.0})
        edges = w.vector(cx, 1)

        def forbidden(self, order):
            raise AssertionError(f"visited the cliques of order {order}")

        monkeypatch.setattr(CliqueComplex, "cliques", forbidden)
        for scheme in (w, WeightScheme.unit(), WeightScheme.from_table({})):
            assert np.array_equal(scheme.vector(cx, 2), np.ones(20))
            assert np.array_equal(scheme.vector(cx, 0), np.ones(6))
        monkeypatch.undo()
        assert np.array_equal(w.vector(cx, 1), edges)
        assert edges[0] == 3.0 and np.all(edges[1:] == 1.0)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, value):
        with pytest.raises(InputFormatError, match="line 2: weight must be positive and finite"):
            read_weights_tsv(f"1 2 1.5\n2 3 {value}\n")
        with pytest.raises(ValueError, match="positive and finite"):
            WeightScheme.from_table({(1, 2): float(value)})


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_cochain_tsv_rejects_non_finite_values(c3_complex, value):
    with pytest.raises(InputFormatError, match="line 3: value must be finite"):
        read_cochain_tsv(f"1 2 1\n# comment\n2 3 {value}\n", c3_complex)


def loop_from_dict(cx, degree, entries) -> np.ndarray:
    """Cochain.from_dict one entry at a time through clique_index: the replaced path, kept as the oracle."""
    vals = np.zeros(cx.n_cliques(degree + 1))
    index = clique_index(cx, degree + 1)
    for key, v in entries.items():
        sorted_key, sign = sort_with_sign(tuple(int(x) for x in key))
        if sign == 0:
            raise ValueError(f"repeated vertex in {key}")
        if sorted_key not in index:
            raise ValueError(f"{sorted_key} is not a clique of order {degree + 1}")
        vals[index[sorted_key]] = sign * float(v)
    return vals


def outcome(build):
    try:
        return build()
    except ValueError as exc:
        return str(exc)


def loop_vector(entries, cx, degree):
    """One lookup per clique in the flat {clique: weight} table: the replaced WeightScheme.vector, kept as oracle."""
    table = {tuple(sorted(c)): float(w) for c, w in entries.items()}
    return np.array([table.get(c, 1.0) for c in cx.cliques(degree + 1)], dtype=float)


class TestWeightVectorOracle:
    def test_bit_identical_with_partial_tables_and_stray_keys(self, rng):
        for _ in range(20):
            cx = enumerate_cliques(random_graph(rng, int(rng.integers(1, 11)), 0.6), 4)
            entries = {c: float(rng.uniform(0.1, 5.0)) for order in range(1, 5) for c in cx.cliques(order)
                       if rng.random() < 0.6}
            # keys that name no clique here: absent vertices, a repeat, ids past int64
            entries.update({(0,): 2.0, (1, 99): 3.0, (-1, 2): 0.5, (2, 2, 5): 1.5, (1, 10**20): 4.0,
                            (2**64, 3, 1): 7.0, (1, 2, 3, 12): 9.0})
            w = WeightScheme.from_table(entries)
            for degree in range(4):
                assert w.vector(cx, degree).tobytes() == loop_vector(entries, cx, degree).tobytes()

    def test_bit_identical_with_an_edge_array_table(self, rng):
        for _ in range(20):
            cx = enumerate_cliques(random_graph(rng, int(rng.integers(1, 11)), 0.6), 3)
            pairs = cx.graph.pairs
            counts = rng.integers(1, 9, size=len(pairs))
            w = WeightScheme({2: (pairs, counts)})  # as aggregate builds it
            entries = dict(zip(map(tuple, pairs.tolist()), counts.tolist()))
            for degree in range(3):
                assert w.vector(cx, degree).tobytes() == loop_vector(entries, cx, degree).tobytes()

    def test_empty_array_table_is_unit(self, rng, monkeypatch):
        from graphhodge import betti

        cx = enumerate_cliques(random_graph(rng, 9, 0.7), 4)
        empty = WeightScheme({2: (np.empty((0, 2), dtype=np.int64), np.empty(0))})
        unit = WeightScheme.unit()
        assert empty == unit and empty.mode == unit.mode == "unit"
        for degree in range(4):
            assert empty.vector(cx, degree).tobytes() == unit.vector(cx, degree).tobytes()
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        unit_betti = [betti(cx, k, unit) for k in range(3)]
        assert len(calls) == 3
        assert [betti(cx, k, empty) for k in range(3)] == unit_betti
        assert len(calls) == 3  # every Gram spectrum from the cache

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    def test_bad_array_weight_message_matches_from_table(self, value):
        cliques = np.array([[1, 2], [2, 3], [1, 3]])
        weights = np.array([1.5, value, 2.0])
        expected = raised_message(lambda: WeightScheme.from_table({(1, 2): 1.5, (3, 2): value, (1, 3): 2.0}))
        assert expected == f"weight {float(value)} for (2, 3) (order 2) must be positive and finite"
        assert raised_message(lambda: WeightScheme({2: (cliques, weights)})) == expected


class TestFromDictOracle:
    def test_values_bit_identical(self, rng):
        for _ in range(20):
            cx = enumerate_cliques(random_graph(rng, int(rng.integers(1, 11)), 0.7), 4)
            for degree in range(4):
                cliques = cx.cliques(degree + 1)
                entries = {}
                for i in rng.permutation(len(cliques)):
                    key = tuple(int(v) for v in rng.permutation(cliques[i]))
                    entries[key] = rng.choice([float(rng.normal()), 0.0, -0.0, int(rng.integers(-3, 4))])
                    if rng.random() < 0.2:  # the same clique named twice: the later value wins
                        entries[tuple(reversed(key))] = float(rng.normal())
                got = Cochain.from_dict(cx, degree, entries).values
                ref = loop_from_dict(cx, degree, entries)
                assert got.tobytes() == ref.tobytes()  # -0.0 included

    def test_same_first_offending_key(self, rng):
        cx = enumerate_cliques(random_graph(rng, 8, 0.5), 3)
        edges = list(cx.cliques(2))
        bad_keys = [(2, 2), (1, 9), (0, 1), (-1, 3), (5, 4, 3), (7,), (3, 3, 1), (10**20, 1), (2**64, 2**64)]
        bad_keys += [e for e in [(u, v) for u in range(1, 9) for v in range(u + 1, 9)] if e not in edges][:3]
        for _ in range(40):
            picked = [edges[i] for i in rng.choice(len(edges), 5, replace=False)]
            entries = {tuple(reversed(e)) if rng.random() < 0.5 else e: 1.0 for e in picked}
            chosen = [bad_keys[i] for i in rng.choice(len(bad_keys), 2, replace=False)]
            keys = list(entries) + chosen
            order = rng.permutation(len(keys))
            mixed = {keys[i]: 2.5 for i in order}
            got = outcome(lambda: Cochain.from_dict(cx, 1, mixed))
            ref = outcome(lambda: loop_from_dict(cx, 1, mixed))
            assert isinstance(ref, str) and got == ref

    def test_empty_entries(self, c4_complex):
        for degree in range(3):
            assert not Cochain.from_dict(c4_complex, degree, {}).values.any()

    @pytest.mark.parametrize("key, shown", [((1.7, 2), "(1.7, 2)"), ((2, 1.5), "(2, 1.5)"),
                                            ((float("nan"), 3), "(nan, 3)"), ((1, float("-inf")), "(1, -inf)")])
    def test_non_integral_key_rejected_naming_it(self, c3_complex, key, shown):
        # a truncated id would land on edge (1, 2), (1, 2) again, or no clique at all
        entries = {(1, 3): 1.0, key: 2.0}
        assert raised_message(lambda: Cochain.from_dict(c3_complex, 1, entries)) == \
            f"{shown} has a non-integral vertex id"
        assert list(Cochain.from_dict(c3_complex, 1, {(2.0, 1): 2.0}).values) == [-2.0, 0.0, 0.0]

    def test_infinite_id_in_a_key_of_the_wrong_length_rejected_naming_it(self, c3_complex):
        # int(inf) would raise OverflowError, which is not a ValueError
        assert raised_message(lambda: Cochain.from_dict(c3_complex, 2, {(float("inf"), 2): 1.0})) == \
            "(inf, 2) has a non-integral vertex id"

    def test_empty_key_rejected_naming_it(self, c3_complex):
        assert raised_message(lambda: Cochain.from_dict(c3_complex, 1, {(): 1.0})) == "() is not a clique of order 2"

    def test_fractional_id_in_a_key_of_the_wrong_length_rejected_naming_it(self, c3_complex):
        # int(1.5) would name the truncated key (1, 2, 3)
        assert raised_message(lambda: Cochain.from_dict(c3_complex, 1, {(1.5, 2, 3): 1.0})) == \
            "(1.5, 2, 3) has a non-integral vertex id"


def test_from_table_keys_match_sort_with_sign(rng):
    entries = {}
    for _ in range(200):
        key = tuple(int(v) for v in rng.choice(30, int(rng.integers(1, 5)), replace=False) + 1)
        entries[key] = float(rng.uniform(0.5, 2.0))
    expected = {}
    for clique, w in entries.items():
        key, _ = sort_with_sign(clique)
        expected.setdefault(len(key), {})[key] = float(w)
    tables = WeightScheme.from_table(entries).tables
    assert all(cliques.dtype == np.int64 for cliques, _ in tables.values())
    assert {order: dict(zip(map(tuple, cliques.tolist()), weights.tolist()))
            for order, (cliques, weights) in tables.items()} == expected


ROWS = st.integers(1, 5).flatmap(lambda order: st.lists(
    st.lists(st.one_of(st.integers(-3, 6), st.sampled_from([-(2**63), 2**63 - 1])), min_size=order, max_size=order),
    max_size=20).map(lambda rows: np.array(rows, dtype=np.int64).reshape(-1, order)))


@given(ROWS)
@settings(max_examples=100, deadline=None)
def test_ascending_matches_the_sort_with_sign_oracle(rows):
    got, sign = _ascending(rows)
    expected = [sort_with_sign(row) for row in rows.tolist()]
    assert got.dtype == np.int64 and got.tolist() == [list(key) for key, _ in expected]
    assert sign.tolist() == [float(s) for _, s in expected]


@given(st.integers(1, 9), st.floats(0.3, 1.0), st.integers(0, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_cochain_tsv_keys_in_any_order_read_with_the_oracle_sign(n, p, degree, seed):
    rng = np.random.default_rng(seed)
    cx = enumerate_cliques(random_graph(rng, n, p), degree + 1)
    values = special_floats(rng, cx.n_cliques(degree + 1))
    expected, lines = np.zeros_like(values), []
    for i, clique in enumerate(cx.level(degree + 1).tolist()):
        if rng.random() < 0.8:
            key = [int(v) for v in rng.permutation(clique)]
            lines.append(" ".join(map(str, key)) + f" {float(values[i])!r}\n")
            expected[i] = sort_with_sign(key)[1] * values[i]
    got = read_cochain_tsv("".join(lines[i] for i in rng.permutation(len(lines))), cx, degree)
    assert got.values.tobytes() == expected.tobytes()  # -0.0 included


@given(st.integers(1, 9), st.floats(0.3, 1.0), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_weight_tsv_does_not_depend_on_the_order_of_ids(n, p, seed):
    rng = np.random.default_rng(seed)
    cx = enumerate_cliques(random_graph(rng, n, p), 4)
    rows = [(clique, float(rng.uniform(0.25, 4.0))) for order in range(1, 5)
            for clique in cx.level(order).tolist() if rng.random() < 0.7]
    ascending = read_weights_tsv("".join(" ".join(map(str, c)) + f" {w!r}\n" for c, w in rows))
    shuffled = read_weights_tsv("".join(" ".join(map(str, rng.permutation(c))) + f" {w!r}\n" for c, w in rows))
    for degree in range(4):
        assert shuffled.vector(cx, degree).tobytes() == ascending.vector(cx, degree).tobytes()
    for clique, w in rows:
        assert shuffled.weight(tuple(int(v) for v in rng.permutation(clique))) == w


LONG = tuple(range(1, 2001))


def test_messages_show_a_long_key_by_its_first_ids_and_last():
    cx = enumerate_cliques(complete_graph(3), len(LONG))  # levels 4 and up are empty
    ids = " ".join(map(str, reversed(LONG)))
    messages = {
        "line 1: repeated vertex in (2000, 1999, 1998, 1997, ..., 2000)":
            lambda: read_cochain_tsv(f"{ids} 2000 1\n", cx),
        "line 2: duplicate weight for (1, 2, 3, 4, ..., 2000)":
            lambda: read_weights_tsv(f"{ids} 1\n{' '.join(map(str, LONG))} 2\n"),
        "(1, 2, 3, 4, ..., 2000) is not a clique of order 2000": lambda: read_cochain_tsv(f"{ids} 1\n", cx),
        "repeated vertex in (1, 2, 3, 4, ..., 1)": lambda: Cochain.from_dict(cx, 1, {(1, 2): 1.0, (*LONG, 1): 2.0}),
        "(1, 2, 3, 4, ..., 2000) is not a clique of order 2": lambda: Cochain.from_dict(cx, 1, {LONG[::-1]: 1.0}),
        "weight 0.0 for (1, 2, 3, 4, ..., 2000) (order 2000) must be positive and finite":
            lambda: WeightScheme.from_table({LONG[::-1]: 0.0}),
    }
    for expected, build in messages.items():
        assert raised_message(build) == expected and len(expected.encode()) < 200
    assert raised_message(lambda: Cochain.from_dict(cx, 1, {(3, 2, 1, 4, 5, 3): 1.0})) == \
        "repeated vertex in (3, 2, 1, 4, 5, 3)"  # six ids or fewer are shown whole


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_write_cochain_tsv_rejects_non_finite(c3_complex, value, rng):
    x = Cochain(1, c3_complex, np.array([1.0, value, -0.0]))
    with pytest.raises(ValueError, match="non-finite number"):
        write_cochain_tsv(x)
    assert write_cochain_tsv(Cochain(1, c3_complex, np.array([1.0, 2.5, -0.0]))) == "1 2 1\n1 3 2.5\n2 3 -0\n"
    cx = enumerate_cliques(complete_graph(5), 6)  # levels of 5, 10, 10, 5, 1 and 0 cliques
    for _ in range(5):
        for degree in range(6):
            c = Cochain(degree, cx, special_floats(rng, cx.n_cliques(degree + 1)))
            assert write_cochain_tsv(c) == loop_write_cochain_tsv(c)
            if c.values.size:
                bad = Cochain(degree, cx, with_value_at_random(rng, c.values, value))
                assert raised_message(lambda: write_cochain_tsv(bad)) == raised_message(
                    lambda: loop_write_cochain_tsv(bad))


def test_key_text_shows_plain_numbers(c3_complex):
    assert raised_message(lambda: Cochain.from_dict(c3_complex, 1, {(np.int64(1), np.int64(1)): 1.0})) == \
        "repeated vertex in (1, 1)"
    assert raised_message(lambda: WeightScheme.from_table({(np.float32(2.5), 1): 1.0})) == \
        "(1, 2.5) has a non-integral vertex id"
    for key in [(99,), (1, 2), (3, 1, 2), (-1, 2**70, 0, 4), tuple(range(1, 7))]:  # Python ints: tuple text
        assert _key_text(key) == str(key)
    assert _key_text(tuple(np.arange(1, 9))) == _key_text(tuple(range(1, 9))) == "(1, 2, 3, 4, ..., 8)"
