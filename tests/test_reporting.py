import io
import math
from unittest import mock

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from mixorder import reporting
from mixorder.reporting import CSV_BLOCK_ROWS, write_csv

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


def test_numpy_bool_is_a_json_boolean():
    assert reporting.to_jsonable([np.True_, np.False_]) == [True, False]
    assert reporting.dumps({"passed": np.False_}) == '{"passed": false}'


def _escape_by_loop(s):
    """The character-by-character JSON string quoting that ``_escape`` ran
    on every string before its no-escape fast path."""
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
    # the fast path is taken exactly when no character needs escaping
    assert reporting._escape(s) == _escape_by_loop(s)
    assert reporting._escape(s) == '"' + s + '"' or reporting._NEEDS_ESCAPE.search(s)


def test_escape_matches_the_character_loop_on_each_character():
    # every ASCII character alone and between plain ones, and a few beyond
    for ch in [*map(chr, range(0x80)), " ", "é", "\U0001f600"]:
        for s in (ch, f"a{ch}b", ch * 3):
            assert reporting._escape(s) == _escape_by_loop(s), repr(s)
