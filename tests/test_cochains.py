import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphhodge import (
    Cochain,
    Graph,
    InputFormatError,
    WeightScheme,
    enumerate_cliques,
    inner_product,
    norm,
    read_cochain_tsv,
    read_weights_tsv,
    write_cochain_tsv,
)
from graphhodge.cochains import sort_with_sign
from graphhodge.complexes import CliqueComplex

from conftest import complete_graph, random_graph


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

    def test_weights_tsv(self):
        w = read_weights_tsv("1 2 3.5\n2 1.25\n")
        assert w.weight((1, 2)) == 3.5
        assert w.weight((1,)) == 1.0
        assert w.weight((2,)) == 1.25
        with pytest.raises(InputFormatError, match="positive"):
            read_weights_tsv("1 2 -1\n")

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
    """Cochain.from_dict one entry at a time through cx.index: the replaced path, kept as the oracle."""
    vals = np.zeros(cx.n_cliques(degree + 1))
    index = cx.index(degree + 1)
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


def loop_vector(w, cx, degree):
    """One dict lookup per clique: the replaced WeightScheme.vector, kept as oracle."""
    table = w.tables.get(degree + 1)
    if not table:
        return np.ones(cx.n_cliques(degree + 1))
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
                assert w.vector(cx, degree).tobytes() == loop_vector(w, cx, degree).tobytes()


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


def test_from_table_keys_match_sort_with_sign(rng):
    entries = {}
    for _ in range(200):
        key = tuple(int(v) for v in rng.choice(30, int(rng.integers(1, 5)), replace=False) + 1)
        entries[key] = float(rng.uniform(0.5, 2.0))
    expected = {}
    for clique, w in entries.items():
        key, _ = sort_with_sign(clique)
        expected.setdefault(len(key), {})[key] = float(w)
    assert WeightScheme.from_table(entries).tables == expected


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_write_cochain_tsv_rejects_non_finite(c3_complex, value):
    x = Cochain(1, c3_complex, np.array([1.0, value, -0.0]))
    with pytest.raises(ValueError, match="non-finite number"):
        write_cochain_tsv(x)
    assert write_cochain_tsv(Cochain(1, c3_complex, np.array([1.0, 2.5, -0.0]))) == "1 2 1\n1 3 2.5\n2 3 -0\n"
