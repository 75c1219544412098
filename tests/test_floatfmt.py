"""The vectorized CSV formatter writes exactly the bytes of ``repr``."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenwave import floatfmt, scenarios

# every case where repr's rules or the formatter's certificate change
EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, float("inf"), float("-inf"), float("nan"),
    1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 1e-05, 0.00010000000000000002,
    0.1, 1 / 3, -2 / 3, 1.0, -3.0, 100.0, 1e15, 123456789012345.6, 0.9999999999999999,
    99.99999999999999, 0.5, 2.0**-10, -1024.0, 2.0**52, 2.0**-14, 2.0**53,
    1025 * 2.0**-20,      # exact 16th-digit tie: repr 0.0009775161743164062
    1234567890.00390625,  # exact 17th-digit tie: repr 1234567890.0039062
]
# the EDGES of magnitude >= 1 that repr writes
LARGE_FALLBACKS = [1.0, -1024.0, 2.0**53, 1e16, -1.7976931348623157e308, float("inf"),
                   float("nan"), 1234567890.00390625]


def csv_bytes(matrix, head: bytes = b"") -> bytes:
    # the whole text as one bytes object; each block is copied, as it keeps its rows' allocation
    return b"".join(map(bytes, floatfmt.csv_blocks(matrix, head)))


def repr_csv(matrix) -> bytes:
    return ("\n".join(",".join(map(repr, row)) for row in np.asarray(matrix).tolist())
            + "\n").encode()


def assert_matches_repr(matrix):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert csv_bytes(matrix) == repr_csv(matrix)


def test_named_edges():
    edges = np.array(EDGES)
    assert_matches_repr(edges[None, :])
    assert_matches_repr(edges[:, None])
    assert csv_bytes(edges[None, -2:]) == b"0.0009775161743164062,1234567890.0039062\n"


def test_import_time_tables_are_exact():
    assert floatfmt._POW10.tolist() == [10**k for k in range(23)]  # int == float is exact
    assert (floatfmt._POW10_HI + floatfmt._POW10_LO == floatfmt._POW10).all()
    # Veltkamp's halves: each holds at most 26 significant bits, so their products are exact
    for half in (floatfmt._POW10_HI, floatfmt._POW10_LO):
        mantissa, _ = np.frexp(half)
        assert (mantissa * 2.0**26 == np.rint(mantissa * 2.0**26)).all()
    assert floatfmt._QUADS.view("S4").tolist() == [b"%04d" % i for i in range(10000)]


def test_ties_fall_back_to_repr():
    a = np.array([1025 * 2.0**-20, 1234567890.00390625, 0.1, 0.3])
    w, _ = floatfmt._workspace(len(a))
    _, _, certified = floatfmt._digits(a, w)
    assert certified.tolist() == [False, False, True, True]


def test_header_and_chunks():
    rng = np.random.default_rng(3)
    matrix = rng.uniform(-1.0, 1.0, (3, 3 * floatfmt._CHUNK + 7))
    assert csv_bytes(matrix, b"x,value\n") == b"x,value\n" + repr_csv(matrix)


BLOCK_SIZES = [floatfmt._CHUNK - 1, floatfmt._CHUNK, floatfmt._CHUNK + 1]
EXPONENT_RANGES = pytest.mark.parametrize("lo, hi", [(-4, 0), (0, 16), (-4, 16)],
                                          ids=["below_1", "at_least_1", "mixed"])


def signed_decades(rng, n, lo, hi):
    """``n`` values of either sign with exponents in [lo, hi), every other one cut to few digits."""
    values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(lo, hi, n)
    scale = 10.0 ** rng.integers(0, 4, len(values[::2]))
    values[::2] = np.rint(values[::2] * scale) / scale
    return np.where(values == 0.0, 10.0**lo, values)


@pytest.mark.parametrize("n", BLOCK_SIZES)
@EXPONENT_RANGES
def test_blocks_below_and_above_1(n, lo, hi):
    # below 1 a block skips the decimal-point shift; one value >= 1 makes it shift
    rng = np.random.default_rng(n + 29 * lo)
    values = signed_decades(rng, n, lo, hi)
    if hi <= 0:
        values = np.clip(values, -np.nextafter(1.0, 0.0), np.nextafter(1.0, 0.0))
    assert_matches_repr(values[None, :])


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_snapshot_table_whose_time_column_alone_reaches_1(n):
    # only the time column reaches 1, so a block shifts only if it holds a time >= 1
    rng = np.random.default_rng(n)
    table = rng.uniform(-0.99, 0.99, (4, n))
    table[:, 0] = [0.25, 1.0, 2.5, 12.125]
    assert_matches_repr(table)


@pytest.mark.parametrize("n", BLOCK_SIZES)
@EXPONENT_RANGES
def test_fallbacks_among_fast_values_leave_no_nul(n, lo, hi):
    # repr's texts are NUL-padded while built; below 1 the blocks skip the
    # decimal-point shift, though they hold fallbacks >= 1 (powers of two,
    # out-of-range, non-finite and tie values)
    edges = [e for e in EDGES if abs(e) < 1] + LARGE_FALLBACKS if hi <= 0 else EDGES
    values = signed_decades(np.random.default_rng(n - lo), n, lo, hi)
    values[:len(edges)] = values[-len(edges):] = edges
    assert b"\0" not in csv_bytes(values[None, :])
    assert_matches_repr(values[None, :])


def test_memory_stays_near_the_output():
    # about 2 bytes per output byte (the blocks and their join), never the whole
    # matrix as one block
    rng = np.random.default_rng(19)
    table = rng.uniform(-1.0, 1.0, (97, 16385))
    tracemalloc.start()
    try:
        size = len(csv_bytes(table))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * size + 8 * 2**20


def test_streamed_file_memory_does_not_grow_with_the_table(tmp_path):
    # the blocks go to the file as they are made, through buffers made once per
    # call: a 97-row table peaks where a 24-row one does, well below its own size
    rng = np.random.default_rng(19)
    peaks = []
    for rows in (97, 24):
        table = rng.uniform(-1.0, 1.0, (rows, 16385))
        tracemalloc.start()
        try:
            scenarios._write_csv(tmp_path / "snapshots.csv", [], table)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (tmp_path / "snapshots.csv").read_bytes() == csv_bytes(table)
    assert max(peaks) - min(peaks) <= 2**20
    assert max(peaks) <= 97 * 16385 * 8 / 2


def test_many_bit_patterns_and_decimals():
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2**64, (64, 2048), dtype=np.uint64, endpoint=False)
    assert_matches_repr(bits.view(np.float64))
    scale = 10.0 ** rng.integers(-5, 17, (64, 2048))
    assert_matches_repr(np.round(rng.uniform(-1, 1, (64, 2048)), 6) * scale)
    assert_matches_repr(rng.uniform(-2, 2, (64, 2048)).astype(np.float32).astype(float))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_random_bit_patterns(words):
    assert_matches_repr(np.array(words, dtype=np.uint64).view(np.float64)[None, :])


@settings(max_examples=100, deadline=None)
@given(mean=st.floats(-2.0, 2.0), amplitude=st.floats(0.0, 1.0),
       frequency=st.integers(1, 6), n=st.integers(1, 300), rows=st.integers(1, 4))
def test_snapshot_like_data(mean, amplitude, frequency, n, rows):
    x = (np.arange(n) + 0.5) / n
    decay = np.exp(-np.arange(rows))[:, None]
    values = mean + amplitude * decay * np.sin(2.0 * np.pi * frequency * x)
    assert_matches_repr(np.column_stack([np.linspace(0.0, 0.02, rows), values]))
