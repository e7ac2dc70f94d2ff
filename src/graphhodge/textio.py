"""Deterministic text output, the package's only number-to-text path.

Identical inputs must produce byte-identical documents, so floats are always
rendered with FLOAT_FMT (12 significant digits), arrays and tables by columns
with one finiteness check, and mapping keys are sorted. A negative zero prints
as 0 in JSON, plot TSV and flow TSV, and as -0 in cochain TSV and MatrixMarket.
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


def _fmt_floats(values: np.ndarray) -> list[str]:
    """Each entry of a 1-D float array in FLOAT_FMT, sign of zero kept; ValueError at the first nan or inf."""
    bad = ~np.isfinite(values)
    if bad.any():
        raise _non_finite(float(values[np.argmax(bad)]))
    return [FLOAT_FMT % x for x in values.tolist()]


def _table_cells(ids: np.ndarray, columns, quote: bool = False) -> list[list[str]]:
    """Text columns of a table: the label columns of ids by str (JSON strings if quote, one json.dumps per label),
    then the float columns, formatted in row order so the first nan or inf is named. String labels come in
    object arrays, not <U ones, which drop a trailing NUL."""
    text_of = {label: json.dumps(label) for label in set(ids.ravel().tolist())}.__getitem__ if quote else str
    cells = [list(map(text_of, col)) for col in ids.T.tolist()]
    text = _fmt_floats(np.column_stack(columns).ravel()) if columns else []
    return cells + [text[j :: len(columns)] for j in range(len(columns))]


def id_value_lines(ids: np.ndarray, *columns: np.ndarray, sep: str = " ") -> str:
    """Per row of the 2-D label array ids, its labels and then its entry of each column; -0.0 prints as -0."""
    return "".join(sep.join(row) + "\n" for row in zip(*_table_cells(ids, columns), strict=True))


@dataclass(frozen=True)
class _Rows:
    """JSON table rows (a row of ids, then an entry per float column), formatted by columns when json_dumps
    reaches them; each row is a list, or with keys (in sorted order) an object."""

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
        if obj.ndim == 1 and obj.dtype.kind == "f":
            return "[" + ", ".join(_fmt_floats(obj + 0.0)) + "]"  # + 0.0: -0.0 prints as 0
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
        cells = _table_cells(obj.ids, [col + 0.0 for col in obj.columns], quote=True)  # + 0.0: -0.0 prints as 0
        for j, name in enumerate(f"{json.dumps(key)}: " for key in obj.keys):
            cells[j] = [name + cell for cell in cells[j]]
        head, tail = "{}" if obj.keys else "[]"
        return "[" + ", ".join(head + ", ".join(row) + tail for row in zip(*cells, strict=True)) + "]"
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")
