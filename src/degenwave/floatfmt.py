"""CSV text of a float64 matrix, byte for byte what ``repr`` writes, in numpy.

A value x in repr's fixed-notation range [1e-4, 1e16) is scaled to
``S = |x| 10^k`` in [1e16, 1e17) as an exact Dekker two-product (``10^k`` is
exact for k <= 22). Its shortest round-tripping digits are the first of S
rounded at 15, 16 and 17 digits that lies within the scaled half-ulp of S;
the 15-digit rounding, stripped of zeros, is also every shorter answer. As in
Grisu3's certify-or-fallback design (Loitsch, PLDI 2010), ``repr`` writes
every value within ``_EPS`` of a rounding tie or of the half-ulp bound, and
zero, subnormal, non-finite and out-of-range values and powers of two (whose
rounding interval is asymmetric). The tables below are built when this module
is imported; ``scenarios`` imports it only for the first table large enough to
use it, so small runs never build them.

Values are formatted in blocks of ``_CHUNK``, each value in a fixed-width row
of bytes, through arrays made once per call and reused by every block; the
generator ``csv_blocks`` yields each block's bytes, so a caller can stream a
table to a file without ever holding it whole. A row template zeroes the bytes
a value drops, and one ``translate`` deletes them: no kept byte is NUL. Only a
block that holds a certified value of at least 1 moves digits right to make
room for the decimal point.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

_CHUNK = 16384  # values formatted per block
_EPS = 1e-9     # margin, in units of the 17th digit, around ties and the half-ulp
_WIDTH = 28     # bytes per value while it is built; a multiple of 4

# A value is built in a row of ``_WIDTH`` bytes: "-0.000" in columns 0-5, its
# 17 digits in columns 7-23 and a zero after them, its separator in column 25.
_POW10 = np.array([float(10**k) for k in range(23)])  # exact up to 1e22
_SPLIT = _POW10 * 134217729.0  # 2**27 + 1: Veltkamp's split into halves
_POW10_HI = _SPLIT - (_SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_QUADS = np.array([b"%04d" % i for i in range(10000)]).view(np.uint32)  # 4-digit groups
# A row template says which bytes to keep, given the sign, the digit count nd
# and the decimal exponent point (-3..17; the value is 0.d1d2... 10^point).
# _BEFORE says which bytes stay in place, _DOT_COL the column of the decimal
# point; the digits after the point move right.
_POINT, _ND = np.arange(-3, 18)[:, None, None], np.arange(18)[None, :, None]
_COL = np.arange(_WIDTH) - 7  # index into the digits
_DOT = np.where(_POINT > 0, _POINT, 17)[:, 0]
_END = np.where(_POINT > 0, np.maximum(_ND, _POINT + 1) + 1, _ND)
_ROWS = np.zeros((2, 21, 18, _WIDTH), bool)
_ROWS[1, ..., 0] = _ROWS[..., 25] = True
_ROWS[..., 1:6] = np.arange(5) < np.where(_POINT > 0, 0, 2 - _POINT)
_ROWS[..., 7:25] = (_COL[7:25] >= 0) & (_COL[7:25] < _END)
_ROWS = _ROWS.reshape(-1, _WIDTH).view(np.uint8)
_BEFORE = ((_COL < _DOT) | (_COL > 17)).astype(np.uint8)
_DOT_COL = 7 + _DOT.ravel()


def _workspace(n):
    """The arrays of a block of ``n`` values, made once per call: every op of
    ``_digits`` and ``_chunk_bytes`` writes into them through ``out=``. ``out``
    views ``text``, the bytearray that ``translate`` reads."""
    text = bytearray(n * _WIDTH)
    blank = np.frombuffer(b"-0.000".ljust(_WIDTH, b"0"), np.uint8)  # columns 7-23, 25 vary
    w = SimpleNamespace(chars=np.tile(blank, (n, 1)), sel=np.empty((n, _WIDTH), np.uint8),
                        base=np.arange(0, n * _WIDTH, _WIDTH),
                        out=np.frombuffer(text, np.uint8).reshape(n, _WIDTH))
    for dtype, names in ((np.float64, "a b p hi lo bh bl r j t half d15 d16 f"),
                         (np.int64, "k n17 rem low n15 n16 nd idx row dot"),
                         (bool, "fast ok15 ok16 cert bt"), (np.intc, "e"), (np.uint32, "q")):
        vars(w).update((name, np.empty(n, dtype)) for name in names.split())
    return w, text


def _digits(a, w):
    """Write the 17 padded digits of ``a > 0`` to ``w.chars[:, 7:24]``; return point,
    nd, certified, all arrays of the workspace ``w``."""
    f, k, chars, n15, n16, d15, d16 = w.f, w.k, w.chars, w.n15, w.n16, w.d15, w.d16
    np.floor(np.log10(a, out=f), out=f)
    np.copyto(k, np.clip(np.subtract(16.0, f, out=f), 0.0, 20.0, out=f), casting="unsafe")
    b = np.take(_POW10, k, out=w.b, mode="clip")
    p = np.multiply(a, b, out=w.p)
    a_hi = np.multiply(a, 134217729.0, out=w.hi)
    np.subtract(a_hi, np.subtract(a_hi, a, out=f), out=a_hi)
    a_lo = np.subtract(a, a_hi, out=w.lo)
    b_hi = np.take(_POW10_HI, k, out=w.bh, mode="clip")
    b_lo = np.take(_POW10_LO, k, out=w.bl, mode="clip")
    err = np.subtract(np.multiply(a_hi, b_hi, out=w.r), p, out=w.r)  # S == p + err
    for u, v in ((a_hi, b_lo), (a_lo, b_hi), (a_lo, b_lo)):
        err += np.multiply(u, v, out=f)
    half_ulp = np.ldexp(b, np.subtract(np.frexp(a, out=(f, w.e))[1], 54, out=w.e), out=w.half)
    j, n17, low = np.rint(err, out=w.j), w.n17, w.low
    np.copyto(n17, p, casting="unsafe")
    np.copyto(low, j, casting="unsafe")
    n17 += low
    r = np.subtract(err, j, out=err)  # S == n17 + r
    # the one division gives rem = n17 % 100; n17 % 10 is rem - 10 (rem // 10),
    # and rem // 10 == (rem * 103) >> 10 on 0..99
    rem, t = np.floor_divide(n17, 100, out=w.rem), w.t
    np.subtract(n17, np.multiply(rem, 100, out=rem), out=rem)
    for q, rounded, dist in ((100, n15, d15), (10, n16, d16)):
        if q == 10:
            rem -= np.multiply(np.right_shift(np.multiply(rem, 103, out=low), 10, out=low), 10,
                               out=low)
        np.add(rem, r, out=t, dtype=np.float64)  # S - (n17 - rem)
        np.rint(np.divide(t, q, out=j), out=j)
        np.abs(np.subtract(t, np.multiply(j, q, out=dist), out=dist), out=dist)
        np.copyto(rounded, j, casting="unsafe")  # n17 - rem + q j
        np.subtract(np.add(np.multiply(rounded, q, out=rounded), n17, out=rounded), rem,
                    out=rounded)
    ok15, ok16 = np.less(d15, half_ulp, out=w.ok15), np.less(d16, half_ulp, out=w.ok16)
    # n15 if ok15, else n16 if ok16, else n17, as arithmetic selects
    n = np.add(np.multiply(np.subtract(n16, n17, out=n16), ok16, out=n16, dtype=np.int64), n17,
               out=n16)
    n += np.multiply(np.subtract(n15, n, out=n15), ok15, out=n15, dtype=np.int64)
    cert, bt = np.greater_equal(n17, 10**16, out=w.cert), w.bt
    cert &= np.less(n, 10**17, out=bt)
    for d, mid in ((np.abs(r, out=f), 0.5), (d15, half_ulp), (d16, half_ulp)):
        cert &= np.greater(np.abs(np.subtract(d, mid, out=f), out=f), _EPS, out=bt)
    np.less_equal(np.abs(np.subtract(d16, 5.0, out=f), out=f), _EPS, out=bt)
    cert &= np.logical_not(np.logical_and(ok16, bt, out=bt), out=bt)
    groups, high = chars[:, 8:24].view(np.uint32), low
    for i in (3, 2, 1, 0):
        np.floor_divide(n, 10**4, out=high)
        groups[:, i] = np.take(_QUADS, np.subtract(n, np.multiply(high, 10**4, out=n15), out=n15),
                               out=w.q, mode="clip")
        n, high = high, n
    np.add(n, 48, out=chars[:, 7], dtype=np.int64, casting="unsafe")
    # a 16- or 17-digit result ends in a nonzero digit, else a shorter one round-trips
    nd = np.subtract(17, ok16, out=w.nd, dtype=np.int64)
    short = np.flatnonzero(ok15)
    nd[short] = 17 - np.argmax(chars[short, 23:6:-1] != 48, axis=1)
    return np.subtract(17, k, out=k), nd, cert


def _chunk_bytes(x, w):
    """Write the repr text of each value of ``x`` and its separator (``w.chars[:, 25]``)
    to the rows of ``w.out``, padded with NULs."""
    a, fast, bt, chars, sel, out = np.abs(x, out=w.a), w.fast, w.bt, w.chars, w.sel, w.out
    np.logical_and(np.greater_equal(a, 1e-4, out=fast), np.less(a, 1e16, out=bt), out=fast)
    bits = np.bitwise_and(x.view(np.uint64), np.uint64(2**52 - 1), out=w.row.view(np.uint64))
    fast &= np.not_equal(bits, np.uint64(0), out=bt)
    np.copyto(a, 3.0, where=np.logical_not(fast, out=bt))
    point, nd, certified = _digits(a, w)
    fast &= certified
    idx = np.add(point, 3, out=w.idx)  # the row of the shift tables
    row = np.multiply(np.signbit(x, out=bt), 21, out=w.row, dtype=np.int64)
    np.add(np.multiply(np.add(row, idx, out=row), 18, out=row), nd, out=row)
    if np.logical_and(np.greater(point, 0, out=bt), fast, out=bt).any():
        # each byte either stays, becomes the decimal point, or takes the byte before it
        cur, prev = chars.ravel()[1:], chars.ravel()[:-1]
        out[0, 0] = 45  # the sign, the one byte with no byte before it
        flat = out.ravel()[1:]
        np.subtract(cur, prev, out=flat)
        flat *= np.take(_BEFORE, idx, axis=0, out=sel, mode="clip").ravel()[1:]
        flat += prev
        out.ravel()[np.add(np.take(_DOT_COL, idx, out=w.dot, mode="clip"), w.base, out=w.dot)] = 46
        out *= np.take(_ROWS, row, axis=0, out=sel, mode="clip")
    else:
        # no certified value reaches 1: the point would go to column 24, which
        # their rows drop, so every kept byte stays; repr rewrites the others
        np.multiply(chars, np.take(_ROWS, row, axis=0, out=sel, mode="clip"), out=out)
    slow = np.flatnonzero(np.logical_not(fast, out=bt))
    if len(slow):
        # repr's text, padded with NULs up to the separator
        text = np.array([repr(v) for v in x[slow].tolist()], "S25")
        out[slow, :25] = text.view(np.uint8).reshape(len(slow), 25)


def csv_blocks(matrix, head: bytes = b""):
    """Yield ``head``, then the rows of ``matrix`` as comma-separated ``repr`` text,
    each ending in a newline, in blocks of at most ``_CHUNK`` values."""
    flat, cols = np.ascontiguousarray(matrix, dtype=np.float64).ravel(), np.shape(matrix)[1]
    yield head
    w, text = _workspace(min(len(flat), _CHUNK))
    for i in range(0, len(flat), _CHUNK):
        x = flat[i:i + _CHUNK]
        if len(x) < len(w.a):  # the last block: the head of every array
            w = SimpleNamespace(**{name: v[:len(x)] for name, v in vars(w).items()})
        w.chars[:, 25] = 44
        w.chars[(cols - 1 - i) % cols::cols, 25] = 10
        _chunk_bytes(x, w)
        rows = text if len(x) * _WIDTH == len(text) else text[:len(x) * _WIDTH]
        # no kept byte is NUL, so deleting the NULs leaves exactly the kept bytes
        yield rows.translate(None, b"\0")

