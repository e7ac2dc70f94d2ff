"""Deterministic text output, the package's only number-to-text path.

Identical inputs must produce byte-identical documents, so floats are always
rendered with FLOAT_FMT (12 significant digits), arrays at once with one
finiteness check, and mapping keys are sorted. A negative zero prints as 0 in
JSON, plot TSV and flow TSV, and as -0 in cochain TSV and MatrixMarket.
"""

from __future__ import annotations

import json
import math

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


def id_value_lines(ids: np.ndarray, *columns: np.ndarray, sep: str = " ") -> str:
    """Per row of ids, its ids and then its entry of each float column, joined by sep; -0.0 prints as -0."""
    cells = [list(map(str, col)) for col in ids.T.tolist()] + [_fmt_floats(col) for col in columns]
    return "".join(sep.join(row) + "\n" for row in zip(*cells, strict=True))


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
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def tsv_lines(rows) -> str:
    """Join row iterables into TSV, formatting floats deterministically."""
    out = []
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (bool, np.bool_)):
                cells.append("true" if cell else "false")
            elif isinstance(cell, (float, np.floating)):
                cells.append(fmt_float(cell))
            else:
                cells.append(str(cell))
        out.append("\t".join(cells))
    return "\n".join(out) + ("\n" if out else "")
