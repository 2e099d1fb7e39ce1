import io
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixorder import reporting
from mixorder.reporting import CSV_BLOCK_ROWS, write_csv
from mixorder.scenarios import run_scenario

#: values whose text is easy to get wrong: both NaN signs, infinities,
#: signed zeros, the subnormal range and the ends of the float range
SPECIAL = (math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
           2.2250738585072009e-308, 1e-310, 1e308, -1e308, 1.7976931348623157e308)
#: row counts as (blocks, extra rows): 1, block - 1, block, block + 1, 2 block + 3
ROW_SHAPES = ((0, 1), (1, -1), (1, 0), (1, 1), (2, 3))


def _cell(x):
    """The per-cell formatter the block writer replaced."""
    x = float(x)
    if math.isnan(x):
        return ""
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


def _reference_csv(header, columns):
    rows = zip(*(np.asarray(col, dtype=float).tolist() for col in columns))
    lines = [",".join(header)] + [",".join(map(_cell, row)) for row in rows]
    return "".join(line + "\n" for line in lines)


def _written(header, columns):
    out = io.StringIO()
    write_csv(out, header, columns)
    return out.getvalue()


def _table(rng, values, n_rows, n_cols):
    ordinary = rng.standard_normal(16) * 10.0 ** rng.integers(-300, 300, 16)
    pool = np.concatenate([np.array(values), ordinary])
    columns = [pool[rng.integers(0, pool.size, n_rows)] for _ in range(n_cols)]
    # plain lists are accepted as well as arrays
    columns[0] = columns[0].tolist()
    return [f"c{i}" for i in range(n_cols)], columns


@given(
    drawn=st.lists(st.floats() | st.sampled_from(SPECIAL), min_size=1, max_size=16),
    n_cols=st.integers(1, 4),
    block=st.integers(2, 9),
    shape=st.sampled_from(ROW_SHAPES),
    seed=st.integers(0, 2**32 - 1),
)
def test_write_csv_matches_per_cell_format(drawn, n_cols, block, shape, seed):
    # a small block puts every block boundary case into a table of a few rows
    header, columns = _table(np.random.default_rng(seed), drawn + list(SPECIAL),
                             shape[0] * block + shape[1], n_cols)
    with mock.patch.object(reporting, "CSV_BLOCK_ROWS", block):
        assert _written(header, columns) == _reference_csv(header, columns)


def test_write_csv_matches_per_cell_format_at_the_block_size():
    for seed, (blocks, extra) in enumerate(ROW_SHAPES):
        header, columns = _table(np.random.default_rng(seed), SPECIAL,
                                 blocks * CSV_BLOCK_ROWS + extra, 3)
        assert _written(header, columns) == _reference_csv(header, columns)


def test_write_csv_keeps_a_header_named_nan():
    assert _written(["x", "nan"], [[math.nan, 1.0], [2.0, -math.nan]]) == "x,nan\n,2\n1,\n"


def test_write_csv_writes_once_per_block():
    class Counting(io.StringIO):
        writes = 0

        def write(self, text):
            self.writes += 1
            return super().write(text)

    for n_rows, blocks in ((0, 0), (1, 1), (CSV_BLOCK_ROWS, 1), (2 * CSV_BLOCK_ROWS + 3, 3)):
        out = Counting()
        write_csv(out, ["x"], [np.zeros(n_rows)])
        assert out.writes == 1 + blocks
        assert out.getvalue().count("\n") == 1 + n_rows


def _oracle_values(rng):
    """10^6 doubles: random bit patterns; with both signs, every 10^k for k in
    [-330, 308] and its 1-3 ulp neighbours, 17-digit roundings that carry
    into the next decade, exact ties of the 17th digit (q / 2^(p+1) with q
    odd, in every decade that has them), subnormals, both NaN signs, zeros
    and infinities; grid steps whose digits end in zeros; then normal draws
    over the decades whose power of ten is exact (k in [-6, 16]), where
    fixed-point notation starts and ends."""
    powers = np.array([float(f"1e{k}") for k in range(-330, 309)])
    near = [powers]
    for direction in (math.inf, -math.inf):
        step = powers
        for _ in range(3):
            step = np.nextafter(step, direction)
            near.append(step)
    carries = [float(f"9.99999999999999999{d}e{e}") for d in range(10) for e in range(-323, 308)]
    carries += [9.9999999999999999e22, 0.99999999999999999, 9.999999999999999e-5]
    ties = [1234567890123456.75, 0.5, 2.5, 2.0 ** -25, 1.7881393432617188e-07]
    for p in range(1, 25):
        low, high = -(-2 * 10 ** 16 // 5 ** p), min(2 * 10 ** 17 // 5 ** p, 2 ** 53)
        q = rng.integers(low, high, 200) | 1
        ties += np.ldexp(q[q < high].astype(float), -(p + 1)).tolist()
    subnormal = rng.integers(1, 2 ** 52, 20_000, dtype=np.uint64).view(np.float64)
    values = np.concatenate([*near, carries, ties, subnormal, SPECIAL])
    bits = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64).view(np.float64)
    grids = np.concatenate([np.arange(-50_000, 50_000) * step for step in (1e-3, 0.25, 3.0)])
    rest = 10 ** 6 - bits.size - 2 * values.size - grids.size
    exact = rng.standard_normal(rest) * 10.0 ** rng.uniform(-6, 17, rest)
    return np.concatenate([bits, values, -values, grids, exact])


def test_kernel_matches_format_on_a_million_doubles():
    values = _oracle_values(np.random.default_rng(20261019))
    assert values.size >= 10 ** 6
    written = _written(["x"], [values])
    expected = "x\n" + "\n".join(map(format, values.tolist(), itertools.repeat(".17g"))) + "\n"
    # "nan" is a whole line here, and only NaN formats as one
    expected = expected.replace("nan", "")
    if written != expected:
        got, want = written.split("\n")[1:], expected.split("\n")[1:]
        i = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
        raise AssertionError(f"{values[i]!r}: wrote {got[i]!r}, format gives {want[i]!r}")


@pytest.mark.parametrize("points", [2001, 4001])
def test_catalog_curves_never_fall_back_to_format(catalog, points):
    # every cell of the records is decided by the kernel: a silent fallback to
    # format() would pass every byte test and only show as lost speed
    fallbacks, smallest = [], math.inf
    for scenario in catalog:
        curves = run_scenario(scenario, points).curves
        names = list(curves)
        columns = [np.asarray(curves[name], dtype=float) for name in names]
        with mock.patch.object(reporting, "_undecided", wraps=reporting._undecided) as spy:
            assert _written(names, columns) == _reference_csv(names, columns), scenario.scenario_id
        fallbacks += spy.call_args_list
        magnitudes = np.abs(np.concatenate(columns))
        smallest = min(smallest, magnitudes[magnitudes > 0].min())
    assert fallbacks == []
    # the records reach decades whose power of ten is inexact
    assert math.floor(math.log10(smallest)) <= -60


def test_numpy_bool_is_a_json_boolean():
    assert reporting.to_jsonable([np.True_, np.False_]) == [True, False]
    assert reporting.dumps({"passed": np.False_}) == '{\n  "passed": false\n}'


#: JSON strings without ``\b`` and ``\f``, which ``json`` escapes by name and
#: ``dumps`` as ``\u0008`` and ``\u000c``
_JSON_TEXT = st.text(alphabet=st.characters(exclude_characters="\b\f"))
_JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=20,
)


@given(_JSON_DOCS)
def test_dumps_matches_json_indented_by_two(doc):
    assert reporting.dumps(doc) == json.dumps(doc, indent=2, ensure_ascii=False)


@given(st.floats() | st.sampled_from(SPECIAL))
def test_dumps_prints_floats_at_17_digits_and_non_finite_as_null(x):
    text = format(x, ".17g") if math.isfinite(x) else "null"
    assert reporting.dumps(x) == text
    assert reporting.dumps(np.float64(x)) == text
    assert reporting.dumps({"x": [x]}) == '{\n  "x": [\n    ' + text + '\n  ]\n}'


def _escape_by_loop(s):
    """Character-by-character JSON string quoting, the reference for ``_escape``."""
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


@given(st.text(alphabet=st.one_of(
    st.sampled_from('"\\\n\r\t\x00\x1f\x7f \u2028\U0001f600'),
    st.characters(max_codepoint=0x40),
    st.characters(),
)))
def test_escape_matches_the_character_loop(s):
    assert reporting._escape(s) == _escape_by_loop(s)


def test_escape_matches_the_character_loop_on_each_character():
    # every ASCII character alone and between plain ones, and a few beyond
    for ch in [*map(chr, range(0x80)), " ", "é", "\U0001f600"]:
        for s in (ch, f"a{ch}b", ch * 3):
            assert reporting._escape(s) == _escape_by_loop(s), repr(s)
