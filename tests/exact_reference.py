"""Exact reference step: the scheme's update in rational arithmetic.

Every float is a rational, so the stored pieces of ``phi_up`` and
``phi_down`` (``monotone_split(phi)``) and of ``g``, and the float ``dt``
and ``dx``, define one exact Engquist-Osher and three-point update:

    H(u)_j = u_j - dt/dx (F_{j+1/2} - F_{j-1/2}) + dt/dx^2 (G_{j+1} - 2 G_j + G_{j-1})

with ``F_{j+1/2} = phi_up(u_j) + phi_down(u_{j+1})`` and ``G_j = g(u_j)`` on
the circle. ``fractions.Fraction`` evaluates it without rounding, so it tests
the scheme that the stored model and step define, not the float kernel's bits.
Each function takes the piece that ``searchsorted(inner breakpoints, u,
"right")`` picks, as the kernel does. ``step_error_bound`` bounds how far
the float kernel may lie from the exact step.
"""

from bisect import bisect_right
from fractions import Fraction

from degenwave import monotone_split


UNIT_ROUNDOFF = Fraction(1, 2 ** 53)


def gamma(k: int) -> Fraction:
    """Higham's ``gamma_k = k u / (1 - k u)``: a product of k factors
    ``(1 + delta)``, each ``|delta| <= u``, lies within ``1 +- gamma_k``."""
    return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)


def _horner(coeffs, t: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * t + c
    return out


def exact_eval(f, u: Fraction, absolute: bool = False) -> Fraction:
    """``f`` at ``u`` from its stored piece: Horner in ``u - left`` without
    rounding. With ``absolute``, the sum of ``|c_i| |u - left|^i`` instead."""
    i = bisect_right(f.breakpoints[1:-1], u)
    t = u - Fraction(f.breakpoints[i])
    coeffs = [Fraction(c) for c in f.pieces[i]]
    if absolute:
        t, coeffs = abs(t), [abs(c) for c in coeffs]
    return _horner(coeffs, t)


def jumps(f) -> list[Fraction]:
    """The exact jump of the stored ``f`` at each inner breakpoint: the piece's
    value at its left end minus the value of the piece before at that point.
    All are 0 when the stored pieces join exactly."""
    b = [Fraction(x) for x in f.breakpoints]
    return [Fraction(f.pieces[i][0]) - _horner([Fraction(c) for c in f.pieces[i - 1]],
                                                 b[i] - b[i - 1])
            for i in range(1, len(b) - 1)]


def exact_step(phi, g, values, dx: float, dt: float) -> list[Fraction]:
    """One exact update of the periodic row ``values`` (floats or Fractions)."""
    up, down = monotone_split(phi)
    u = [Fraction(v) for v in values]
    n = len(u)
    flux = [exact_eval(up, u[j]) + exact_eval(down, u[(j + 1) % n]) for j in range(n)]
    G = [exact_eval(g, v) for v in u]
    r1 = Fraction(dt) / Fraction(dx)
    r2 = r1 / Fraction(dx)
    return [u[j] - r1 * (flux[j] - flux[j - 1]) + r2 * (G[(j + 1) % n] - 2 * G[j] + G[j - 1])
            for j in range(n)]


def step_error_bound(phi, g, values, dx: float, dt: float) -> list[Fraction]:
    """A bound on ``|fl(H(u)_j) - H(u)_j|`` for every cell of the float kernel
    ``solver._apply_step``, derived from its operations (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., 2002, sections 3.1 and 5.1).

    Each value is a sum of terms, each times a product of ``(1 + delta)``
    factors, one per rounding it passes through. With D the largest stored
    degree of ``phi_up``, ``phi_down`` and ``g``:

    - Horner in the rounded piece-local variable ``fl(u - left)`` gives the
      term ``c_i t^i`` at most 2D + D roundings (Higham's (5.3), and i <= D
      for the power of the rounded ``t``);
    - a flux term then passes the interface sum, the flux difference,
      ``fl(dt/dx)``, its product, ``u - ...`` and the final sum: 6 more;
    - a ``G`` term passes at most the two sums of the Laplacian (the doubling
      ``G_j + G_j`` is exact), ``fl(dt / fl(dx*dx))``, its product and the
      final sum: 6 more;
    - ``u_j`` passes two.

    So ``|fl(H)_j - H_j| <= gamma(3D + 6) S_j``, with ``S_j`` the same update
    taken over the absolute values of every term:
    ``|u_j| + dt/dx (|F|_{j+1/2} + |F|_{j-1/2}) + dt/dx^2 (|G|_{j+1} + 2|G|_j + |G|_{j-1})``.
    """
    up, down = monotone_split(phi)
    degree = max(len(p) for f in (up, down, g) for p in f.pieces) - 1
    u = [Fraction(v) for v in values]
    n = len(u)
    flux = [exact_eval(up, u[j], True) + exact_eval(down, u[(j + 1) % n], True)
            for j in range(n)]
    G = [exact_eval(g, v, True) for v in u]
    r1 = Fraction(dt) / Fraction(dx)
    r2 = r1 / Fraction(dx)
    return [gamma(3 * degree + 6) * (abs(u[j]) + r1 * (flux[j] + flux[j - 1])
                                     + r2 * (G[(j + 1) % n] + 2 * G[j] + G[j - 1]))
            for j in range(n)]
