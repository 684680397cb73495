"""The compiled CSV writer's float cells against Python's ``"%.12g" % v``.

``svdd_csv_rows`` takes 12 digits from a scaled product where it can vouch
for them and asks the C library for every other value; either way each
cell must be the bytes Python writes.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from svddpeak import _native


@pytest.fixture(scope="module")
def blocks():
    compiled = _native.csv_blocks()
    if compiled is None:
        pytest.skip("no compiled writer on this host")
    return compiled


def _compiled(blocks, values, block_rows=4096):
    column = np.asarray(values, dtype=np.float64)
    return b"".join(bytes(text) for text in blocks([column], [], column.size, block_rows))


def _python(values):
    return "".join(["%.12g\r\n" % v for v in np.asarray(values, dtype=np.float64).tolist()]
                   ).encode()


# where the fast path hands over (|k| > 22, subnormals, fractions near .5),
# where %g switches notation, and the ends of the double range
EDGES = [1e-5, 9.99999999999995e-05, 1e-4, 999999999999.4, 999999999999.5, 1e12, 1e16, 1e22,
         1e23, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]


def test_named_edges(blocks):
    with np.errstate(over="ignore"):  # the next double above the largest is inf
        values = [v for edge in EDGES for v in (edge, -edge, np.nextafter(edge, 0.0),
                                                np.nextafter(edge, np.inf))]
    assert _compiled(blocks, values) == _python(values)


@settings(max_examples=1000, deadline=None)
@given(st.floats())
@example(0.0)
@example(-0.0)
@example(float("inf"))
@example(float("-inf"))
@example(float("nan"))
@example(-np.nan)  # glibc would print "-nan"
@example(5e-324)
def test_any_float(blocks, value):
    assert _compiled(blocks, [value]) == _python([value])


def test_random_bit_patterns(blocks):
    # every exponent, so mostly the C library's exact printer
    values = np.random.default_rng(20261018).integers(0, 2**64, 10**6, dtype=np.uint64)
    assert _compiled(blocks, values.view(np.float64)) == _python(values.view(np.float64))


def test_random_values_on_the_fast_path(blocks):
    rng = np.random.default_rng(11)
    values = rng.uniform(-10.0, 10.0, 200_000) * 10.0 ** rng.integers(-12, 33, 200_000)
    assert _compiled(blocks, values) == _python(values)


def test_thirteen_digit_ties(blocks):
    # d.dddddddddddd5 x 10^e: halfway between two 12-digit values before the
    # decimal is rounded to binary, so the product's fraction sits near .5
    rng = np.random.default_rng(5)
    digits = rng.integers(10**12, 10**13, 20_000) // 10 * 10 + 5
    exponents = rng.integers(-30, 30, digits.size)
    values = [float(f"{d}e{e}") for d, e in zip(digits.tolist(), exponents.tolist())]
    assert _compiled(blocks, values) == _python(values)


def test_blocks_and_strides(blocks):
    # a strided, reversed column split into blocks of 3 rows
    values = np.linspace(-3.0, 3.0, 22).reshape(11, 2)[::-1, 1]
    assert _compiled(blocks, values, block_rows=3) == _python(values)
