"""CSV text of a float64 matrix, byte for byte what ``repr`` writes, in numpy.

A value x in repr's fixed-notation range [1e-4, 1e16) is scaled to
``S = |x| 10^k`` in [1e16, 1e17) as an exact Dekker two-product (``10^k`` is
exact for k <= 22). Its shortest round-tripping digits are the first of S
rounded at 15, 16 and 17 digits that lies within the scaled half-ulp of S;
the 15-digit rounding, stripped of zeros, is also every shorter answer. As in
Grisu3's certify-or-fallback design (Loitsch, PLDI 2010), ``repr`` writes
every value within ``_EPS`` of a rounding tie or of the half-ulp bound, and
zero, subnormal, non-finite and out-of-range values and powers of two (whose
rounding interval is asymmetric). Tables are built on first use, so importing
this module does no numpy work.

Values are formatted in blocks of ``_CHUNK``, each value in a fixed-width row
of bytes. A row template zeroes the bytes a value drops, and one
``bytes.translate`` deletes them: no kept byte is NUL. Only a block that holds
a certified value of at least 1 moves digits right to make room for the
decimal point.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_CHUNK = 16384  # values formatted per block
_EPS = 1e-9     # margin, in units of the 17th digit, around ties and the half-ulp
_WIDTH = 28     # bytes per value while it is built; a multiple of 4


@cache
def _tables():
    """Powers of ten with their Veltkamp halves, 4-digit groups, and row templates.

    A value is built in a row of ``_WIDTH`` bytes: "-0.000" in columns 0-5, its
    17 digits in columns 7-23 and a zero after them, its separator in column 25.
    A row template says which bytes to keep, given the sign, the digit count
    ``nd`` and the decimal exponent ``point`` (-3..17; the value is
    0.d1d2... 10^point). ``before`` and ``at`` say which bytes stay in place
    and where the decimal point goes; the digits after the point move right.
    """
    pow10 = np.array([float(10**k) for k in range(23)])  # exact up to 1e22
    split = pow10 * 134217729.0    # 2**27 + 1
    hi = split - (split - pow10)
    quads = np.array([b"%04d" % i for i in range(10000)]).view(np.uint32)
    point, nd = np.arange(-3, 18)[:, None, None], np.arange(18)[None, :, None]
    col = np.arange(_WIDTH) - 7  # index into the digits
    dot = np.where(point > 0, point, 17)[:, 0]
    end = np.where(point > 0, np.maximum(nd, point + 1) + 1, nd)
    rows = np.zeros((2, 21, 18, _WIDTH), bool)
    rows[1, ..., 0] = rows[..., 25] = True
    rows[..., 1:6] = np.arange(5) < np.where(point > 0, 0, 2 - point)
    rows[..., 7:25] = (col[7:25] >= 0) & (col[7:25] < end)
    before = (col < dot) | (col > 17)
    return (pow10, hi, pow10 - hi, quads, rows.reshape(-1, _WIDTH),
            before.astype(np.uint8), (col == dot).astype(np.uint8))


def _digits(a, chars):
    """Write the 17 padded digits of ``a > 0`` to ``chars[:, 7:24]``; return point, nd, certified."""
    pow10, p_hi, p_lo, quads = _tables()[:4]
    k = np.clip(16 - np.floor(np.log10(a)).astype(np.int64), 0, 20)
    b = pow10.take(k)
    p, c = a * b, a * 134217729.0
    a_hi = c - (c - a)
    a_lo, b_hi, b_lo = a - a_hi, p_hi.take(k), p_lo.take(k)
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo  # S == p + err
    half_ulp = np.ldexp(b, np.frexp(a)[1] - 54)
    j = np.rint(err)
    n17 = p.astype(np.int64) + j.astype(np.int64)
    r = err - j  # S == n17 + r
    rounded, dist = [], []
    for q in (100, 10):
        high = n17 // q
        t = (n17 - high * q) + r  # S - q * high
        j = np.rint(t / q)
        rounded.append((high + j.astype(np.int64)) * q)
        dist.append(np.abs(t - j * q))
    (n15, n16), (d15, d16) = rounded, dist
    ok15, ok16 = d15 < half_ulp, d16 < half_ulp
    n = np.where(ok15, n15, np.where(ok16, n16, n17))
    certified = ((n17 >= 10**16) & (n < 10**17) & (np.abs(np.abs(r) - 0.5) > _EPS)
                 & (np.abs(d15 - half_ulp) > _EPS) & (np.abs(d16 - half_ulp) > _EPS)
                 & ~(ok16 & (np.abs(d16 - 5.0) <= _EPS)))
    groups = chars[:, 8:24].view(np.uint32)
    for i in (3, 2, 1, 0):
        high = n // 10**4
        groups[:, i] = quads.take(n - high * 10**4)
        n = high
    chars[:, 7] = 48 + n
    # a 16- or 17-digit result ends in a nonzero digit, else a shorter one round-trips
    nd = np.where(ok15, 15, np.where(ok16, 16, 17))
    short = np.flatnonzero(ok15)
    nd[short] = 17 - np.argmax(chars[short, 23:6:-1] != 48, axis=1)
    return 17 - k, nd, certified


def _chunk_bytes(x, sep, chars):
    """The repr text of each value of ``x`` and its separator; ``chars`` holds the rows' constants."""
    rows, before, at = _tables()[4:]
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e16) & (x.view(np.uint64) & np.uint64(2**52 - 1) != 0)
    chars[:, 25] = sep
    point, nd, certified = _digits(np.where(fast, a, 3.0), chars)
    fast &= certified
    mask = rows.take((np.signbit(x) * 21 + point + 3) * 18 + nd, axis=0)
    if np.any(fast & (point > 0)):
        # each byte either stays, becomes the decimal point, or takes the byte before it
        cur, prev = chars.ravel()[1:], chars.ravel()[:-1]
        out = np.empty_like(chars)
        out[0, 0] = 45  # the sign, the one byte with no byte before it
        flat = out.ravel()[1:]
        np.subtract(cur, prev, out=flat)
        flat *= before.take(point + 3, axis=0).ravel()[1:]
        flat += prev
        flat += (46 - prev) * at.take(point + 3, axis=0).ravel()[1:]
        out *= mask
    else:
        # no certified value reaches 1: the point would go to column 24, which
        # their rows drop, so every kept byte stays; repr rewrites the others
        out = chars * mask
    slow = np.flatnonzero(~fast)
    if len(slow):
        # repr's text, padded with NULs up to the separator
        text = np.array([repr(v) for v in x[slow].tolist()], "S25")
        out[slow, :25] = text.view(np.uint8).reshape(len(slow), 25)
    # no kept byte is NUL, so deleting the NULs leaves exactly the kept bytes
    return out.tobytes().translate(None, b"\0")


def csv_bytes(matrix, head: bytes = b"") -> bytes:
    """``head``, then the rows of ``matrix`` as comma-separated ``repr`` text, each ending in a newline."""
    m = np.ascontiguousarray(matrix, dtype=np.float64)
    sep = np.full(m.shape, 44, np.uint8)
    sep[:, -1] = 10
    flat, sep = m.ravel(), sep.ravel()
    chars = np.empty((min(len(flat), _CHUNK), _WIDTH), np.uint8)
    chars[:, :6] = np.frombuffer(b"-0.000", np.uint8)
    chars[:, 24] = 48
    return b"".join([head] + [_chunk_bytes(flat[i:i + _CHUNK], sep[i:i + _CHUNK],
                                           chars[:len(flat) - i])
                              for i in range(0, len(flat), _CHUNK)])
