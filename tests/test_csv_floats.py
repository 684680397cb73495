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
    with open(path, "rb") as fh:
        return floats(fh, len(HEADER), n_cols)


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


# a body: lines of two cells or blank, each ended by "\n" or "\r\n", the
# last one maybe without an ending
LINES = st.lists(st.tuples(
    st.one_of(st.none(), st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                                   st.integers(-10**6, 10**6))),
    st.sampled_from([b"\n", b"\r\n"])), max_size=40)


@settings(max_examples=200, deadline=None)
@given(lines=LINES, ended=st.booleans(), data=st.data())
def test_any_block_split_reads_as_the_whole_file(floats, tmp_path_factory, lines, ended, data):
    texts = [b"" if cells is None else b"%r,%d" % cells for cells, _ in lines]
    endings = [ending for _, ending in lines]
    if texts and texts[-1] and not ended:
        endings[-1] = b""
    path = tmp_path_factory.mktemp("splits") / "data.csv"
    whole = _read(floats, path, b"".join(t + e for t, e in zip(texts, endings)))
    # a block holds a whole line with its ending; a last line without one
    # needs a byte more, as the read that ends the file is a short one
    longest = max((len(t) + max(len(e), 1) for t, e in zip(texts, endings)), default=1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_native, "CSV_BLOCK_BYTES", data.draw(st.integers(longest, 256)))
        with open(path, "rb") as fh:
            got = floats(fh, len(HEADER), 2)
    want = np.array([[float(c) for c in t.split(b",")] for t in texts if t]).reshape(-1, 2)
    assert whole is not None and got is not None
    assert got.shape == whole.shape == want.shape
    assert got.tobytes() == whole.tobytes() == want.tobytes()


def test_the_library_parses_a_buffer_it_is_handed():
    lib = _native.library()
    if lib is None:
        pytest.skip("no compiled reader on this host")
    text = b"1,2\r\n\n3.5, -4e1\n\r\n5,6"
    parse = lib.svdd_csv_floats
    assert parse(text, len(text), 2, None, 0) == 3
    assert parse(text, 5, 2, None, 0) == 1  # "1,2\r\n" alone
    out = np.zeros((3, 2))
    assert parse(text, len(text), 2, out.ctypes.data, 3) == 3
    assert out.tolist() == [[1.0, 2.0], [3.5, -40.0], [5.0, 6.0]]
    # a third row does not fit: refused, and nothing written past the two
    small = np.zeros((3, 2))
    assert parse(text, len(text), 2, small.ctypes.data, 2) == -1
    assert small.tolist() == [[1.0, 2.0], [3.5, -40.0], [0.0, 0.0]]
    assert parse(b"1,x\n", 4, 2, out.ctypes.data, 3) == -1
