"""The one float formatter of textio (a template repeated to the array's shape, filled by one %) against the
per-element fmt_float encoding it replaced (conftest oracles), byte for byte and message for message."""

from __future__ import annotations

import json

import numpy as np
import pytest

from graphhodge.textio import _Rows, id_value_lines, json_dumps

from conftest import loop_json_array, raised_message, special_floats, tsv_lines

SHAPES = [(), (0,), (0, 2), (2, 0), (5, 2), (2, 3, 2)]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_arrays_match_per_element_encoding(shape, dtype):
    rng = np.random.default_rng(20261022)
    values = special_floats(rng, int(np.prod(shape))).astype(dtype).reshape(shape)
    if values.size:
        values.flat[0] = -0.0
    assert json_dumps(values) == loop_json_array(values)
    text = loop_json_array(values)
    assert json_dumps({"x": values, "y": [values]}) == f'{{"x": {text}, "y": [{text}]}}'
    if values.size:
        assert "-0" not in json_dumps(values[...] * 0 - 0.0)  # -0.0 prints as 0 in JSON


@pytest.mark.parametrize("shape", [s for s in SHAPES if np.prod(s)], ids=str)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_first_non_finite_is_named_as_before(shape, dtype, bad):
    rng = np.random.default_rng(20261023)
    size = int(np.prod(shape))
    for at in sorted({0, size // 2, size - 1}):
        with np.errstate(over="ignore"):  # float32 holds the largest of the test's own floats as inf
            values = special_floats(rng, size).astype(dtype)
        values[at] = bad
        values[(at + 1):] = np.where(rng.random(size - at - 1) < 0.5, -bad, values[(at + 1):])  # later ones too
        values = values.reshape(shape)
        assert raised_message(lambda: json_dumps(values)) == raised_message(lambda: loop_json_array(values))


def test_table_rows_with_percent_labels_match_row_by_row_encoding():
    labels = np.array(["%", "%s", "%%s", "100%", "%(x)s", "a%d", "%.12g"], dtype=object)
    rng = np.random.default_rng(20261024)
    for size in (0, 1, 7, 40):
        names = labels[rng.integers(len(labels), size=(size, 2))]
        x, w = special_floats(rng, size), special_floats(rng, size)
        rows = [[a, b, float(v)] for a, b, v in zip(names[:, 0], names[:, 1], x)]
        dicts = [{"item_i": a, "item_j": b, "x": float(v), "weight": float(u)}
                 for a, b, u, v in zip(names[:, 0], names[:, 1], w, x)]
        assert json_dumps({"t": _Rows(names, (x,))}) == json_dumps({"t": rows})
        assert json_dumps(_Rows(names, (w, x), ("item_i", "item_j", "weight", "x"))) == json_dumps(dicts)
        assert [row[:2] for row in json.loads(json_dumps(_Rows(names, (x,))))] == names.tolist()  # labels as given
        assert id_value_lines(names, x, sep="\t") == tsv_lines(zip(names[:, 0], names[:, 1], x))


def test_table_non_finite_named_in_row_order():
    names = np.array([["a", "%s"], ["b", "c"], ["d", "e"]], dtype=object)
    x, y = np.array([1.0, 2.0, np.inf]), np.array([0.5, -np.inf, np.nan])
    expected = raised_message(lambda: loop_json_array(np.column_stack([x, y])))
    assert "-inf" in expected
    assert raised_message(lambda: json_dumps(_Rows(names, (x, y)))) == expected
    assert raised_message(lambda: id_value_lines(names, x, y)) == expected


def test_id_value_lines_keep_negative_zero():
    ids = np.array([[1, 2], [2, 3]])
    assert id_value_lines(ids, np.array([-0.0, 0.0])) == "1 2 -0\n2 3 0\n"
    assert id_value_lines(ids[:0], np.empty(0)) == ""
