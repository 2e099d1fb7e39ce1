"""Deterministic report serialization.

``dumps``, the one JSON writer, normalizes a document by one ``to_jsonable``
pass and prints it two-space indented with insertion-ordered keys, floats at
17 significant digits (lossless double round-trip) and non-finite ones as
``null``. Curve data goes to CSV with LF ends and each value as ``%.17g``:
NaN (outside a curve's domain) is an empty field, infinities are
``inf``/``-inf`` and negative zero is ``-0``.

``write_csv`` prints a block of cells in one numpy pass, byte for byte what
``format(x, ".17g")`` gives. A finite nonzero |x| with k = floor(log10|x|)
is scaled to S = |x| 10^(16-k) in [1e16, 1e17): 10^(16-k) is a double-double
times a power of two, so |x| is scaled by that power exactly and the product
taken as an error-free Dekker two-product. For 0 <= 16-k <= 22 the
double-double is exact, so S is exact and rounds to the 17-digit integer D
with ties to even; otherwise S is known to within 1e-14, and a cell whose
fraction lies within 2**-40 of one half goes to ``format``. A carry of D to
10^17 moves the cell to the next decade. D is expanded through a table of
4-digit strings into fixed byte slots (sign, the "0.000" lead of small
fixed-point values, each digit with a point slot after it, exponent);
unused slots hold NUL, and one ``bytes.translate`` deletes them.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from enum import Enum

import numpy as np

#: rows per format pass and write in ``write_csv``; bounds its memory on long grids
CSV_BLOCK_ROWS = 1024

#: decades k = floor(log10|x|) the kernel tables cover, each end one past a double's
_K_LO, _K_HI = -325, 309

#: the ``str.translate`` table of ``_escape``: quote, backslash, and the C0
#: controls, ``\n``, ``\r`` and ``\t`` by name and the rest as ``\u00XX``
_ESCAPES = {c: f"\\u{c:04x}" for c in range(0x20)} | {
    ord('"'): '\\"', ord("\\"): "\\\\", ord("\n"): "\\n", ord("\r"): "\\r", ord("\t"): "\\t"}


def to_jsonable(obj):
    """Normalize dataclasses, enums and numpy values to plain containers."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, np.generic):
        return obj.item()
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
    # every character of the table is a control, a quote or a backslash
    if s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    return '"' + s.translate(_ESCAPES) + '"'


def dumps(obj):
    """The JSON text of ``obj``, normalized by one ``to_jsonable`` pass."""
    return _json(to_jsonable(obj), "\n")


def _json(obj, nl):
    """The JSON text of plain ``obj``; ``nl`` is the line break and indent of its level."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format(obj, ".17g") if math.isfinite(obj) else "null"
    if isinstance(obj, str):
        return _escape(obj)
    inner = nl + "  "
    if isinstance(obj, list):
        items = [_json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + nl + "]" if items else "[]"
    if isinstance(obj, dict):
        items = [_escape(k) + ": " + _json(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}" if items else "{}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


@functools.cache
def _powers():
    """Per decade k, from exact integer arithmetic: 10^(16-k) = (hi + lo)
    2^shift with 1 <= hi <= 2, hi the correctly rounded quotient and lo the
    rounded rest; hi split in 26-bit halves for the two-product; and the
    half-width of the band around one half where rounding is left to
    ``format`` (0 where hi is exact)."""
    hi, lo, shift = [], [], []
    for k in range(_K_LO, _K_HI + 1):
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        s = num.bit_length() - den.bit_length()
        s -= (num << max(-s, 0)) < (den << max(s, 0))
        num, den = (num, den << s) if s >= 0 else (num << -s, den)
        hi.append(num / den)
        h_num, h_den = hi[-1].as_integer_ratio()
        lo.append((num * h_den - h_num * den) / (den * h_den))
        shift.append(s)
    hi, lo = np.array(hi), np.array(lo)
    head = _split(hi)
    return (np.array(shift, dtype=np.int32), hi, head, hi - head, lo,
            np.where(lo == 0.0, 0.0, 2.0 ** -40))


@functools.cache
def _words():
    """The 8-byte words a cell is built from: heads (sign, "0.000" lead,
    first digit, the point after it), the digits of 0000-9999 with a point
    slot after each, exponents ("e+308", then the separator slot) with a
    NUL word last, and per count of digits kept after the first the masks
    that NUL the rest."""
    heads = b"".join(sign + b"0.000"[:lead + 1 if lead else 0].ljust(5, b"\0") + b"%d" % digit
                     + point for sign in (b"\0", b"-") for lead in range(5)
                     for digit in range(10) for point in (b"\0", b"."))
    pairs = np.zeros((100, 4), np.uint8)
    pairs[:, ::2] = np.arange(100)[:, None] // (10, 1) % 10 + 48
    quads = np.empty((100, 100, 8), np.uint8)
    quads[:, :, :4], quads[:, :, 4:] = pairs[:, None], pairs
    exps = b"".join(f"e{k:+03d}".encode().ljust(8, b"\0") for k in range(_K_LO, _K_HI + 1))
    masks = b"".join(b"\xff\xff" * keep + b"\0\xff" * (16 - keep) for keep in range(17))
    return (np.frombuffer(heads, np.uint64), quads.view(np.uint64).ravel(),
            np.frombuffer(exps + bytes(8), np.uint64),
            np.frombuffer(masks, np.uint64).reshape(17, 4))


def _split(v):
    """The upper 26 bits of each double of ``v`` (Dekker's split)."""
    c = v * 134217729.0
    return c - (c - v)


def _scaled(a, k):
    """|x| 10^(16-k) as its integer part (int64) and fraction, and the
    half-width of its undecided band around one half."""
    shift, hi, hi_head, hi_tail, lo, band = _powers()
    i = k - _K_LO
    x = np.ldexp(a, shift[i])
    h = hi[i]
    prod = x * h
    xh = _split(x)
    xt = x - xh
    hh, ht = hi_head[i], hi_tail[i]
    rest = ((xh * hh - prod) + xh * ht + xt * hh) + xt * ht + x * lo[i]
    whole = np.floor(rest)
    return prod.astype(np.int64) + whole.astype(np.int64), rest - whole, band[i]


def _undecided(x):
    """The bytes of one cell the kernel cannot round exactly."""
    return format(x, ".17g").encode()


def _cells(values):
    """The ``format(x, ".17g")`` bytes of each double of the flat array
    ``values`` in fixed slots of six 8-byte words, NUL elsewhere, as a (n, 48)
    uint8 array: head, four 4-digit words, exponent. NaN is all NUL, and
    byte 45, after the exponent, is left for a separator."""
    heads, quads, exps, masks = _words()
    n = values.size
    a = np.abs(values)
    plain = (a > 0.0) & (a < math.inf)
    if not (regular := plain.all()):
        a[~plain] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    whole, frac, band = _scaled(a, k)
    if (fix := ((whole < 10 ** 16) | (whole >= 10 ** 17)).nonzero()[0]).size:
        # log10 rounded across a power of ten: move to the next decade. A cell
        # still outside is within rounding of 10^k and rounds to it either way.
        k[fix] += np.where(whole[fix] < 10 ** 16, -1, 1)
        whole[fix], frac[fix], band[fix] = _scaled(a[fix], k[fix])
        edge = fix[(whole[fix] < 10 ** 16) | (whole[fix] >= 10 ** 17)]
        k[edge] += whole[edge] >= 10 ** 17
        whole[edge], frac[edge] = 10 ** 16, 0.0
    undecided = np.abs(frac - 0.5) < band
    whole += frac > 0.5
    if (tie := frac == 0.5).any():
        whole[tie] += whole[tie] & 1
    if (carry := whole == 10 ** 17).any():
        whole[carry], k[carry] = 10 ** 16, k[carry] + 1
    upper, lower = np.divmod(whole, 10 ** 8)
    first, upper = np.divmod(upper, 10 ** 8)
    quad = np.empty((n, 4), np.intp)
    np.divmod(upper, 10 ** 4, out=(quad[:, 0], quad[:, 1]))
    np.divmod(lower, 10 ** 4, out=(quad[:, 2], quad[:, 3]))
    words = np.empty((n, 6), np.uint64)
    words[:, 1:5] = quads.take(quad)
    out = words.view(np.uint8)
    last = np.full(n, 16)  # the last nonzero digit, the first when none
    if (zeros := (quad[:, 3] % 10 == 0).nonzero()[0]).size:
        nonzero = out[zeros, 8:40:2] != ord("0")
        last[zeros] = np.where(nonzero.any(axis=1), 16 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    sci = (k < -4) | (k > 16)
    point = np.where(sci, 0, k)  # the digit the point follows; none for k < 0
    dotted = last > point
    lead = np.where(sci | (k >= 0), 0, -k)
    words[:, 0] = heads[((np.signbit(values) * 5 + lead) * 10 + first) * 2
                        + (dotted & (point == 0))]
    words[:, 5] = exps[np.where(sci, k - _K_LO, -1)]
    if (cut := (np.maximum(last, point) < 16).nonzero()[0]).size:
        words[cut, 1:5] &= masks[np.maximum(last[cut], point[cut])]
    inner = (dotted & (point > 0)).nonzero()[0]
    out.reshape(-1)[inner * 48 + 7 + 2 * point[inner]] = ord(".")
    if not regular:
        special = (~plain).nonzero()[0]
        x = values[special]
        words[special] = 0
        out[special[np.signbit(x) & ~np.isnan(x)], 0] = ord("-")
        out[special[np.isinf(x)], 1:4] = np.frombuffer(b"inf", np.uint8)
        out[special[x == 0.0], 6] = ord("0")
    for i in undecided.nonzero()[0]:
        text = _undecided(float(values[i]))
        words[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out


def write_csv(stream, header, columns):
    """CSV of equal-length float columns in the curve format above, formatted
    by one kernel pass and written by one call per ``CSV_BLOCK_ROWS`` rows."""
    stream.write(",".join(header) + "\n")
    columns = [np.asarray(col, dtype=float) for col in columns]
    rows = CSV_BLOCK_ROWS
    for start in range(0, len(columns[0]), rows):
        block = np.column_stack([col[start:start + rows] for col in columns])
        cells = _cells(block.ravel()).reshape(*block.shape, 48)
        cells[:, :, 45] = ord(",")
        cells[:, -1, 45] = ord("\n")
        stream.write(cells.tobytes().translate(None, b"\0").decode("ascii"))
