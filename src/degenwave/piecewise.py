"""Continuous piecewise-polynomial models for the flux and diffusion functions.

A :class:`PiecewiseFunction` is a continuous function on a closed interval,
given by polynomial pieces of degree at most three. Coefficients are stored
in the local variable ``t = u - left_breakpoint`` of each piece, lowest
degree first, which keeps evaluation well conditioned and makes continuity
one anchoring rule (the constructor stores the constant term of a piece as
the previous piece's right-end value; builders hand it shapes).

Keeping the model polynomial makes every structural query exact:

* Lipschitz constants come from closed-form extrema of the derivative.
* Affinity of a piece is equivalent to its degree>=2 coefficients vanishing,
  constancy to its degree>=1 coefficients vanishing (up to a scaled
  tolerance), so maximal affine / constant intervals around a point snap to
  piece boundaries instead of being estimated by sampling.
* The total variation of the function between two arguments, needed by the
  monotone numerical flux, splits exactly at derivative roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfRangeError
from .grid import MAX_ABS

MAX_DEGREE = 3
CONTINUITY_RTOL = 1e-12
DEFAULT_TOL = 1e-10  # scaled tolerance of the maximal affine / constant interval queries
_RANGE_SLACK = 1e-9  # relative slack for range checks, absorbs float dust


def _shift_poly(coeffs: tuple[float, ...], delta: float) -> tuple[float, ...]:
    """Re-expand ``p(t)`` as a polynomial in ``s`` where ``t = s + delta``."""
    c = list(coeffs) + [0.0] * (4 - len(coeffs))
    c0, c1, c2, c3 = c
    return (
        c0 + delta * (c1 + delta * (c2 + delta * c3)),
        c1 + delta * (2.0 * c2 + 3.0 * c3 * delta),
        c2 + 3.0 * c3 * delta,
        c3,
    )


def _poly_val(coeffs, t):
    out = 0.0
    for c in reversed(coeffs):
        out = out * t + c
    return out


def _anchored(bp, pieces) -> tuple[tuple[float, ...], ...]:
    """``pieces`` with the constant of each piece after the first replaced by
    the previous anchored piece's value at its right end: the one rule that
    sets every stored constant."""
    out = list(pieces[:1])
    for i in range(1, len(pieces)):
        out.append((_poly_val(out[-1], bp[i] - bp[i - 1]),) + pieces[i][1:])
    return tuple(out)


def _deriv_coeffs(coeffs) -> tuple[float, float, float]:
    c = list(coeffs) + [0.0] * (4 - len(coeffs))
    return (c[1], 2.0 * c[2], 3.0 * c[3])


def _deriv_val(coeffs, t: float) -> float:
    d0, d1, d2 = _deriv_coeffs(coeffs)
    return d0 + t * (d1 + t * d2)


def _deriv_extrema_candidates(coeffs, t_lo: float, t_hi: float) -> list[float]:
    """Local-coordinate points where |f'| can attain its extremum on [t_lo, t_hi]."""
    d0, d1, d2 = _deriv_coeffs(coeffs)
    cands = [t_lo, t_hi]
    if d2 != 0.0:
        vertex = -d1 / (2.0 * d2)
        if t_lo < vertex < t_hi:
            cands.append(vertex)
    return cands


def _deriv_roots(coeffs, width: float) -> list[float]:
    """Roots of f' strictly inside (0, width), in local coordinates."""
    d0, d1, d2 = _deriv_coeffs(coeffs)
    roots: list[float] = []
    scale = max(abs(d0), abs(d1) * width, abs(d2) * width * width, 1e-300)
    if abs(d2) * width * width > 1e-14 * scale:
        disc = d1 * d1 - 4.0 * d2 * d0
        if disc >= 0.0:
            sq = math.sqrt(disc)
            q = -0.5 * (d1 + math.copysign(sq, d1)) if d1 != 0.0 else 0.5 * sq
            if q != 0.0:
                roots.extend((q / d2, d0 / q))
            else:
                roots.append(0.0)
    elif abs(d1) * width > 1e-14 * scale:
        roots.append(-d0 / d1)
    eps = 1e-12 * width
    inside = sorted(r for r in roots if eps < r < width - eps)
    out: list[float] = []
    for r in inside:
        if not out or r - out[-1] > eps:
            out.append(r)
    return out


@dataclass(frozen=True)
class PiecewiseFunction:
    """Continuous piecewise polynomial on ``[breakpoints[0], breakpoints[-1]]``.

    ``pieces[i]`` are the coefficients of the polynomial on
    ``[breakpoints[i], breakpoints[i+1]]`` in the variable
    ``t = u - breakpoints[i]``, lowest degree first, degree <= 3; a -0.0
    coefficient is stored as +0.0, and each constant after the first as the
    previous piece's right-end value (``_anchored``).

    Instances are immutable (and therefore safe to share between threads).
    Construction validates strictly increasing breakpoints in [-MAX_ABS,
    MAX_ABS], continuity of adjacent pieces to ``1e-12`` relative, and, when
    ``monotone_nondecreasing`` is set, nonnegativity of the derivative on
    every piece via closed-form critical points. Coefficients need only be
    finite, so a piece may still overflow at its right end (ValueError).
    """

    breakpoints: tuple[float, ...]
    pieces: tuple[tuple[float, ...], ...]
    monotone_nondecreasing: bool = False
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        bp = tuple(float(x) for x in self.breakpoints)
        if len(bp) < 2:
            raise ValueError("need at least two breakpoints")
        if not all(abs(x) <= MAX_ABS for x in bp):
            raise ValueError("breakpoints must lie in [-2^64, 2^64]")
        if any(b - a <= 0.0 for a, b in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        raw = tuple(tuple(float(c) for c in p) for p in self.pieces)
        if len(raw) != len(bp) - 1:
            raise ValueError("need exactly one piece per breakpoint interval")
        for p in raw:
            if not 1 <= len(p) <= MAX_DEGREE + 1:
                raise ValueError("piece degree must be between 0 and 3")
            if any(not math.isfinite(c) for c in p):
                raise ValueError("piece coefficients must be finite")
        anchored = _anchored(bp, raw)
        for i in range(1, len(raw)):
            left_val, given = anchored[i][0], raw[i][0]
            if not math.isfinite(left_val):  # inf would pass the continuity test below
                raise ValueError(f"piece {i - 1} overflows at its right end: {left_val!r}")
            scale = max(1.0, abs(left_val), abs(given))
            if abs(given - left_val) > CONTINUITY_RTOL * scale:
                raise ValueError(
                    f"pieces {i - 1} and {i} disagree at u={bp[i]!r}: "
                    f"{left_val!r} vs {given!r}"
                )
        # x + 0.0 turns -0.0 into +0.0 and keeps every other x; the +0.0
        # rows that trim or pad the Horner tables below rely on it
        anchored = [tuple(c + 0.0 for c in p) for p in anchored]
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "pieces", tuple(anchored))
        if self.monotone_nondecreasing:
            self._verify_monotone()
        # the one evaluation table, at the true degree D (highest nonzero
        # coefficient of any piece): row 0 holds each piece's left end, rows
        # 1..D+1 its coefficients from c_D down to c_0; the step kernel maps
        # its columns onto merged pieces (solver._kernel_table)
        degree = max((d for p in anchored for d in range(1, len(p)) if p[d] != 0.0), default=0)
        rows = [[p[d] if d < len(p) else 0.0 for p in anchored] for d in range(degree, -1, -1)]
        self._cache["inner"] = np.asarray(bp[1:-1])
        self._cache["table"] = np.array([bp[:-1], *rows])

    def _verify_monotone(self) -> None:
        for i, p in enumerate(self.pieces):
            width = self.breakpoints[i + 1] - self.breakpoints[i]
            vals = [_deriv_val(p, t) for t in _deriv_extrema_candidates(p, 0.0, width)]
            lo = min(vals)
            if lo < -1e-12 * max(1.0, max(abs(v) for v in vals)):
                raise ValueError(
                    f"piece {i} has negative derivative ({lo!r}) but the "
                    "function is flagged monotone_nondecreasing"
                )

    # -- basic queries ----------------------------------------------------

    @property
    def lo(self) -> float:
        return self.breakpoints[0]

    @property
    def hi(self) -> float:
        return self.breakpoints[-1]

    @property
    def value_at_left_end(self) -> float:
        return self.pieces[0][0]

    def covers(self, lo: float, hi: float) -> bool:
        slack = _RANGE_SLACK * (self.hi - self.lo)
        return self.lo - slack <= lo and hi <= self.hi + slack

    def _require_inside(self, lo: float, hi: float) -> None:
        if not self.covers(lo, hi):
            raise OutOfRangeError(
                f"[{lo!r}, {hi!r}] outside covered range [{self.lo!r}, {self.hi!r}]"
            )

    def piece_index(self, u: float) -> int:
        self._require_inside(u, u)
        return int(np.searchsorted(self._cache["inner"], u, side="right"))

    def _eval_unchecked(self, arr: np.ndarray, piece: int | None = None) -> np.ndarray:
        """Vector evaluation without range checks (caller guarantees coverage).

        One gather fetches every argument's left end and coefficients, then
        Horner runs in place in the piece-local variable. Above a piece's top
        nonzero coefficient the table holds only +0.0, and ``±0 + c == c``
        for every stored ``c`` (none is -0.0), so trimming or padding with
        zero rows does not change a bit. When every argument lies in piece
        ``piece``, its column alone is read: no lookup and no gather, and
        the same operations on the same values.
        """
        if piece is None:
            idx = np.searchsorted(self._cache["inner"], arr, side="right")
            left, acc, *rest = np.take(self._cache["table"], idx, axis=1)
        else:
            left, lead, *rest = self._cache["table"][:, piece]
            acc = np.full(arr.shape, lead)
        if rest:  # a constant needs no offset
            t = arr - left
        for c in rest:
            acc *= t
            acc += c
        return acc

    def eval(self, u):
        """Evaluate at a scalar or ndarray of arguments inside the range."""
        arr = np.asarray(u, dtype=float)
        umin = float(arr.min())
        umax = float(arr.max())
        self._require_inside(umin, umax)
        lo, hi = np.searchsorted(self._cache["inner"], (umin, umax), side="right")
        out = self._eval_unchecked(arr, int(lo) if lo == hi else None)
        if np.ndim(u) == 0:
            return float(out)
        return out

    __call__ = eval

    def deriv(self, u: float) -> float:
        """Derivative at a scalar argument (right derivative at breakpoints)."""
        i = self.piece_index(u)
        return _deriv_val(self.pieces[i], u - self.breakpoints[i])


# -- named builders ---------------------------------------------------------


def from_breakpoints(breakpoints, pieces, monotone: bool = False) -> PiecewiseFunction:
    """Build from per-piece shape coefficients, continuous by construction.

    The constant term of every piece after the first is ignored: ``_anchored``
    sets it to the previous piece's right-end value, as the constructor does.
    """
    bp = tuple(float(x) for x in breakpoints)
    shapes = [tuple(float(c) for c in p) for p in pieces]
    if len(shapes) != len(bp) - 1:
        raise ValueError("need exactly one piece per breakpoint interval")
    return PiecewiseFunction(bp, _anchored(bp, shapes), monotone)


def from_global_coeffs(breakpoints, global_pieces, monotone: bool = False) -> PiecewiseFunction:
    """Build from pieces given as polynomials in u itself (not piece-local)."""
    bp = tuple(float(x) for x in breakpoints)
    local = []
    for i, p in enumerate(global_pieces):
        src = tuple(float(c) for c in p)
        # a shift does not change the degree, so keep the source length
        local.append(_shift_poly(src, bp[i])[: max(len(src), 1)])
    return PiecewiseFunction(bp, tuple(local), monotone)


def linear(slope: float, intercept: float = 0.0, lo: float = -2.0, hi: float = 2.0) -> PiecewiseFunction:
    return PiecewiseFunction((lo, hi), ((intercept + slope * lo, slope),),
                             monotone_nondecreasing=slope >= 0.0)


def identity(lo: float = -2.0, hi: float = 2.0) -> PiecewiseFunction:
    return linear(1.0, 0.0, lo, hi)


def constant(value: float, lo: float = -2.0, hi: float = 2.0) -> PiecewiseFunction:
    return PiecewiseFunction((lo, hi), ((value,),), monotone_nondecreasing=True)


def burgers(lo: float = -2.0, hi: float = 2.0) -> PiecewiseFunction:
    """The quadratic flux u^2/2."""
    return PiecewiseFunction((lo, hi), ((0.5 * lo * lo, lo, 0.5),))


# -- structural queries -------------------------------------------------------


def lipschitz_on(f: PiecewiseFunction, lo: float, hi: float) -> float:
    """Exact max of |f'| over [lo, hi], from per-piece critical points."""
    if lo > hi:
        raise ValueError("lo must not exceed hi")
    f._require_inside(lo, hi)
    best = 0.0
    for i, p in enumerate(f.pieces):
        a = max(f.breakpoints[i], lo)
        b = min(f.breakpoints[i + 1], hi)
        if b < a:
            continue
        t_lo = a - f.breakpoints[i]
        t_hi = b - f.breakpoints[i]
        for t in _deriv_extrema_candidates(p, t_lo, t_hi):
            best = max(best, abs(_deriv_val(p, t)))
    return best


def _clipped_segments(f: PiecewiseFunction, lo: float, hi: float):
    """(left, right, piece_index) for each piece intersected with [lo, hi]."""
    segs = []
    for i in range(len(f.pieces)):
        a = max(f.breakpoints[i], lo)
        b = min(f.breakpoints[i + 1], hi)
        if b > a:
            segs.append((a, b, i))
    return segs


def _piece_is_affine(f: PiecewiseFunction, i: int, span: float) -> bool:
    c = list(f.pieces[i]) + [0.0] * (4 - len(f.pieces[i]))
    return abs(c[2]) * span * span <= DEFAULT_TOL and abs(c[3]) * span ** 3 <= DEFAULT_TOL


def _piece_is_constant(f: PiecewiseFunction, i: int, span: float) -> bool:
    c = list(f.pieces[i]) + [0.0] * (4 - len(f.pieces[i]))
    return abs(c[1]) * span <= DEFAULT_TOL and _piece_is_affine(f, i, span)


def _maximal_interval(f, center, lo, hi, seg_ok, compatible):
    if not lo <= center <= hi:
        raise ValueError("center must lie in [lo, hi]")
    f._require_inside(lo, hi)
    if hi == lo:
        return (center, center)
    segs = _clipped_segments(f, lo, hi)
    touching = [k for k, (a, b, _) in enumerate(segs) if a <= center <= b]
    if not touching or not all(seg_ok(segs[k][2]) for k in touching):
        return (center, center)
    ref = segs[touching[0]][2]
    if not all(compatible(segs[k][2], ref) for k in touching):
        return (center, center)
    left = touching[0]
    while left > 0 and seg_ok(segs[left - 1][2]) and compatible(segs[left - 1][2], ref):
        left -= 1
    right = touching[-1]
    while right + 1 < len(segs) and seg_ok(segs[right + 1][2]) and compatible(segs[right + 1][2], ref):
        right += 1
    a, b = segs[left][0], segs[right][1]
    if not (a < center < b):
        return (center, center)
    return (a, b)


def maximal_affine_interval(f: PiecewiseFunction, center: float, lo: float,
                            hi: float) -> tuple[float, float]:
    """Largest [a, b] inside [lo, hi] with a < center < b on which f is affine.

    Returns ``(center, center)`` when no neighborhood of ``center`` is affine
    (including when ``center`` sits at a slope kink or at an end of [lo, hi]).
    Endpoints snap to piece breakpoints, where affinity of a polynomial piece
    can change.
    """
    span = hi - lo

    def seg_ok(i):
        return _piece_is_affine(f, i, span)

    def mid_slope(i):
        mid = 0.5 * (max(f.breakpoints[i], lo) + min(f.breakpoints[i + 1], hi))
        return _deriv_val(f.pieces[i], mid - f.breakpoints[i])

    def compatible(i, ref):
        return abs(mid_slope(i) - mid_slope(ref)) * span <= DEFAULT_TOL

    return _maximal_interval(f, center, lo, hi, seg_ok, compatible)


def maximal_constant_interval(f: PiecewiseFunction, center: float, lo: float,
                              hi: float) -> tuple[float, float]:
    """Largest [a, b] inside [lo, hi] with a < center < b on which f is constant."""
    span = hi - lo

    def seg_ok(i):
        return _piece_is_constant(f, i, span)

    def compatible(i, ref):
        return abs(f.pieces[i][0] - f.pieces[ref][0]) <= DEFAULT_TOL * max(1.0, abs(f.pieces[ref][0]))

    return _maximal_interval(f, center, lo, hi, seg_ok, compatible)


# -- monotone decomposition (used by the upwind flux) -------------------------


def refine_at_derivative_roots(f: PiecewiseFunction) -> list[tuple[float, float, tuple[float, ...]]]:
    """Split pieces at interior derivative roots.

    Returns a list of (left, right, local_coeffs) where f' has a single sign
    on each (left, right) and local_coeffs expand f around ``left``.
    """
    out = []
    for i, p in enumerate(f.pieces):
        xl = f.breakpoints[i]
        xr = f.breakpoints[i + 1]
        width = xr - xl
        cuts = [0.0] + _deriv_roots(p, width) + [width]
        for tA, tB in zip(cuts, cuts[1:]):
            # keep original breakpoints bit-exact so the split functions
            # cover exactly the same range as f
            right = xr if tB == width else xl + tB
            out.append((xl if tA == 0.0 else xl + tA, right, _shift_poly(p, tA)))
    return out


def monotone_split(f: PiecewiseFunction) -> tuple[PiecewiseFunction, PiecewiseFunction]:
    """Split f into f_up + f_down with f_up' = max(f', 0), f_down' = min(f', 0).

    ``f_up(lo) = f(lo)`` and ``f_down(lo) = 0``, so ``f_up + f_down = f``
    exactly up to rounding. Both parts are piecewise polynomials on a refined
    breakpoint set on which f' has a single sign per piece.
    """
    refined = refine_at_derivative_roots(f)
    bps = [refined[0][0]] + [seg[1] for seg in refined]
    up, down = [], []
    for (a, b, loc) in refined:
        mid_slope = _deriv_val(loc, 0.5 * (b - a))
        up.append(loc if mid_slope > 0.0 else (0.0,))
        down.append(loc if mid_slope < 0.0 else (0.0,))
    up[0] = (f.value_at_left_end,) + up[0][1:]
    down[0] = (0.0,) + down[0][1:]
    return from_breakpoints(bps, up), from_breakpoints(bps, down)
