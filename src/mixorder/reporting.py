"""Deterministic report serialization.

Reports are emitted as JSON with floats printed at 17 significant digits
(lossless double round-trip) and insertion-ordered keys, so identical
inputs give byte-identical output. Curve data goes to CSV with LF ends and
each value as ``%.17g``: NaN (outside a curve's domain) is an empty field,
infinities are ``inf``/``-inf`` and negative zero is ``-0``.
"""

from __future__ import annotations

import dataclasses
import math
import re
from enum import Enum

import numpy as np

#: rows per format pass and write in ``write_csv``; bounds its memory on long grids
CSV_BLOCK_ROWS = 4096

_NEEDS_ESCAPE = re.compile(r'[\x00-\x1f"\\]')  # what ``_escape`` rewrites


def to_jsonable(obj):
    """Normalize dataclasses, enums and numpy values to plain containers."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return str(obj)


def _escape(s):
    if not _NEEDS_ESCAPE.search(s):
        return '"' + s + '"'
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\r":
            out.append("\\r")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def dumps(obj, indent=0, _level=0):
    """JSON emitter with fixed float formatting; non-finite floats -> null."""
    if _level == 0:
        obj = to_jsonable(obj)
    pad = " " * (indent * (_level + 1)) if indent else ""
    end_pad = " " * (indent * _level) if indent else ""
    sep = ",\n" if indent else ", "
    nl = "\n" if indent else ""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return "null"
        return format(obj, ".17g")
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, list):
        if not obj:
            return "[]"
        items = [dumps(v, indent, _level + 1) for v in obj]
        return "[" + nl + sep.join(pad + it for it in items) + nl + end_pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            _escape(str(k)) + ": " + dumps(v, indent, _level + 1) for k, v in obj.items()
        ]
        return "{" + nl + sep.join(pad + it for it in items) + nl + end_pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_csv(stream, header, columns):
    """CSV of equal-length float columns in the curve format above, formatted
    by one ``%`` pass and written by one call per ``CSV_BLOCK_ROWS`` rows."""
    stream.write(",".join(header) + "\n")
    columns = [np.asarray(col, dtype=float) for col in columns]
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        block = np.column_stack([col[start:start + CSV_BLOCK_ROWS] for col in columns])
        body = (row * len(block)) % tuple(block.ravel().tolist())
        stream.write(body.replace("nan", ""))
