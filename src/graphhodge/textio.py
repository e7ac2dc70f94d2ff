"""Deterministic text output: fixed float formatting and sorted-key JSON.

Identical inputs must produce byte-identical documents, so floats are always
rendered with 12 significant digits and mapping keys are sorted.
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


def require_finite(values: np.ndarray) -> None:
    """Raise fmt_float's ValueError at the first nan or inf of an array written without fmt_float."""
    bad = ~np.isfinite(values)
    if bad.any():
        raise _non_finite(float(values[np.argmax(bad)]))


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
