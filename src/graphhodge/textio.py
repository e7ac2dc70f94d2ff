"""Deterministic text output, the package's only number-to-text path.

Identical inputs must produce byte-identical documents, so floats are always
rendered with FLOAT_FMT (12 significant digits) and mapping keys are sorted.
Every float array and table is formatted by one template filled by one %, after
one finiteness check (_filled). A negative zero prints as 0 in JSON, plot TSV
and flow TSV, and as -0 in cochain TSV and MatrixMarket.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

FLOAT_FMT = "%.12g"


def _non_finite(x) -> ValueError:
    return ValueError(f"cannot write the non-finite number {x} (an overflow or non-finite input)")


def fmt_float(x: float) -> str:
    """12 significant digits; raises ValueError on nan and inf, which JSON cannot hold."""
    x = float(x)
    if not math.isfinite(x):
        raise _non_finite(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return FLOAT_FMT % x


def _filled(template: str, shape: tuple[int, ...], *cells) -> str:
    """template, a %-template, repeated to shape as nested JSON lists (as it is for shape ()) and filled by one %
    with the cells row by row: the package's one float formatter. cells are a table's label columns, if any, then
    its float array, whose first nan or inf in row order is named (ValueError)."""
    *labels, floats = cells
    bad = ~np.isfinite(floats)
    if bad.any():
        raise _non_finite(float(floats[bad][0]))
    for size in reversed(shape):
        template = "[" + ", ".join([template] * size) + "]"
    if labels:
        floats = np.concatenate([np.array(labels, dtype=object).T, floats], axis=1)
    return template % tuple(floats.ravel().tolist())


def _table_cells(ids: np.ndarray, columns, quote: bool = False) -> list:
    """The cells of a table for _filled: the label columns of ids, as they are or as JSON strings if quote (one
    json.dumps per label), then the float columns stacked. Labels come in object arrays: <U drops a trailing NUL."""
    text_of = {label: json.dumps(label) for label in set(ids.ravel().tolist())}.__getitem__ if quote else None
    return [list(map(text_of, col)) if quote else col for col in ids.T.tolist()] + [np.column_stack(columns)]


def id_value_lines(ids: np.ndarray, *columns: np.ndarray, sep: str = " ") -> str:
    """Per row of the 2-D label array ids, its labels and then its entry of each column; -0.0 prints as -0."""
    row = sep.replace("%", "%%").join(["%s"] * ids.shape[1] + [FLOAT_FMT] * len(columns)) + "\n"
    return _filled(row * len(ids), (), *_table_cells(ids, columns))


@dataclass(frozen=True)
class _Rows:
    """JSON table rows (a row of ids, then an entry per float column), formatted with one row template when
    json_dumps reaches them; each row is a list, or with keys (in sorted order) an object."""

    ids: np.ndarray
    columns: tuple[np.ndarray, ...]
    keys: tuple[str, ...] = ()


def json_dumps(obj) -> str:
    """Serialize to JSON with sorted keys and fixed float formatting."""
    return _encode(obj)


def _encode(obj) -> str:
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        body = ", ".join(f"{json.dumps(str(k))}: {_encode(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_encode(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f":
            return _filled(FLOAT_FMT, obj.shape, obj + 0.0)  # + 0.0: -0.0 prints as 0
        return _encode(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, _Rows):
        cells = ["%s"] * obj.ids.shape[1] + [FLOAT_FMT] * len(obj.columns)
        if obj.keys:
            cells = [json.dumps(key).replace("%", "%%") + ": " + cell for key, cell in zip(obj.keys, cells)]
        head, tail = "{}" if obj.keys else "[]"
        columns = [col + 0.0 for col in obj.columns]  # + 0.0: -0.0 prints as 0
        return _filled(head + ", ".join(cells) + tail, (len(obj.ids),), *_table_cells(obj.ids, columns, quote=True))
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")
