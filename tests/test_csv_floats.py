"""The compiled CSV body reader against Python's ``float``.

``svdd_csv_floats`` takes a value from one exact operation where Clinger's
fast path holds and from ``strtod_l`` everywhere else; either way each cell
must be the bits ``float`` gives. Everything outside its grammar is
refused, and the row loop reads that file again.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svddpeak import _native, cli

HEADER = b"x1,x2\n"


@pytest.fixture(scope="module")
def floats():
    compiled = _native.csv_floats()
    if compiled is None:
        pytest.skip("no compiled reader on this host")
    return compiled


def _read(floats, path, body, n_cols=2):
    path.write_bytes(HEADER + body)
    return floats(path, len(HEADER), n_cols)


def _column(floats, path, cells):
    """The compiled reader's bits of one column of cells, and float's."""
    got = _read(floats, path, "\n".join(cells).encode() + b"\n", n_cols=1)
    assert got is not None
    return got.ravel().tobytes(), np.array([float(c) for c in cells]).tobytes()


# beyond the fast path: 16-19 significant digits and more, exponents past
# +-22 and +-308, subnormals; and the short forms of the grammar
CELLS = [
    "9007199254740992", "9007199254740993", "1234567890123456", "12345678901234567",
    "0.1234567890123456789", "123456789012345678.9", "1.00000000000000000000001",
    "0.30000000000000004", "1e22", "1e23", "1e-22", "1e-23", "4.5e-30", "123e-25",
    "1.7976931348623157e308", "1.7976931348623158e308", "1.8e308", "1e309", "1e99999999999",
    "2.2250738585072014e-308", "2.2250738585072011e-308", "5e-324", "4.9406564584124654e-324",
    "2.4703282292062327e-324", "2.4703282292062328e-324", "1e-400", "1e-99999999999",
    "-0", "+0", "-0.0e-5", "0e999", "0000", "007", "+.5", "-.5", "5.", "5.e3", "1E+2", "1e-0",
    "100000000000000000000000", "0.000000000000000000000000001", "-1.5",
    # 2^64 and 2^64 + 1: digits past HELD_DIGITS would wrap to 0 and 1
    "18446744073709551616", "18446744073709551617", "1844674407370955161.7",
]


@pytest.mark.parametrize("cell", CELLS)
def test_cells_equal_float(floats, tmp_path, cell):
    got, want = _column(floats, tmp_path / "data.csv", [cell, f" {cell}\t", cell])
    assert got == want


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(5e-324)
@example(-0.0)
@example(1.7976931348623157e308)
def test_printed_floats_read_back(floats, tmp_path_factory, value):
    cells = [repr(value), "%.12g" % value, "%.15g" % value, "%.18e" % value]
    got, want = _column(floats, tmp_path_factory.mktemp("floats") / "data.csv", cells)
    assert got == want


def test_random_bit_patterns(floats, tmp_path):
    # 25,000 finite doubles of every exponent, in four formats
    bits = np.random.default_rng(20261018).integers(0, 2**64, 30_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)][:25_000].tolist()
    cells = [fmt % v for v in values for fmt in ("%r", "%.12g", "%.15g", "%.18e")]
    got, want = _column(floats, tmp_path / "data.csv", cells)
    assert got == want


@pytest.mark.parametrize("body", [
    b'"1",2\n', b"1,2\r3,4\n", b"1,2\r", b"\x1c1,2\n", b"1,2\x1f\n",
    b"1\xc3\xa9,2\n", b"1_0,2\n", b"nan,2\n", b"inf,2\n", b"-Infinity,2\n", b"0x10,2\n",
    b"1e,2\n", b"1e+,2\n", b".,2\n", b",2\n", b"+,2\n", b"1 2,3\n", b"1,2,\n", b"1\n",
    b"1,2,3\n", b"\x0b1,2\n", b"1,2\x0c\n", b"1#,2\n", b"1,\x002\n", b" \n", b"1,2\n \n",
], ids=repr)
def test_outside_the_grammar_is_refused(floats, tmp_path, body):
    assert _read(floats, tmp_path / "data.csv", body) is None


@pytest.mark.parametrize("body, rows", [
    (b"1,2\n3,4", [[1, 2], [3, 4]]),
    (b"1,2\r\n3,4", [[1, 2], [3, 4]]),
    (b"1,2\r\n3,4\r\n", [[1, 2], [3, 4]]),
    (b"", np.empty((0, 2))),
    # blank lines are skipped, as the row loop skips them
    (b"1,2\n\n3,4\n\n", [[1, 2], [3, 4]]),
    (b"\r\n1,2\r\n\r\n\n3,4", [[1, 2], [3, 4]]),
    (b"\n\r\n", np.empty((0, 2))),
])
def test_line_endings(floats, tmp_path, body, rows):
    got = _read(floats, tmp_path / "data.csv", body)
    assert got.tobytes() == np.array(rows, dtype=float).tobytes()
    assert got.shape == np.shape(rows)


@pytest.mark.parametrize("block_bytes", range(14, 42))
def test_rows_split_across_blocks(floats, tmp_path, monkeypatch, block_bytes):
    # lines of 10 to 14 bytes, the longest one block, and blank lines: every
    # split position within a line, between the "\r" and the "\n" of a
    # "\r\n" too
    rows = [(f"{i}.5", f"-{i * 7}e-2") for i in range(40)]
    body = "".join(f"{a},{b}" + ("\r\n" if i % 3 else "\n") + ("\r\n" if i % 7 == 3 else "")
                   for i, (a, b) in enumerate(rows))
    monkeypatch.setattr(_native, "CSV_BLOCK_BYTES", block_bytes)
    got = _read(floats, tmp_path / "data.csv", body.encode())
    assert got is not None
    assert got.tobytes() == np.array([[float(a), float(b)] for a, b in rows]).tobytes()


def test_a_row_longer_than_a_block_goes_to_the_row_loop(floats, tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    monkeypatch.setattr(_native, "CSV_BLOCK_BYTES", 8)
    assert _read(floats, path, b"1,2\n12345,67890\n3,4\n") is None
    _, X, _ = cli.read_csv_dataset(path)
    assert X.tolist() == [[1, 2], [12345, 67890], [3, 4]]
