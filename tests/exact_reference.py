"""Exact reference step: the scheme's update in rational arithmetic.

Every float is a rational, so the stored pieces of ``phi_up`` and
``phi_down`` (``monotone_split(phi)``) and of ``g``, and the float ``dt``
and ``dx``, define one exact Engquist-Osher and three-point update:

    H(u)_j = u_j - dt/dx (F_{j+1/2} - F_{j-1/2}) + dt/dx^2 (G_{j+1} - 2 G_j + G_{j-1})

with ``F_{j+1/2} = phi_up(u_j) + phi_down(u_{j+1})`` and ``G_j = g(u_j)`` on
the circle. ``fractions.Fraction`` evaluates it without rounding, so it tests
the scheme that the stored model and step define, not the float kernel's bits.
Each function takes the piece that ``searchsorted(inner breakpoints, u,
"right")`` picks, as the kernel does.
"""

from bisect import bisect_right
from fractions import Fraction

from degenwave import monotone_split


def exact_eval(f, u: Fraction) -> Fraction:
    """``f`` at ``u`` from its stored piece: Horner in ``u - left`` without rounding."""
    i = bisect_right(f.breakpoints[1:-1], u)
    t = u - Fraction(f.breakpoints[i])
    out = Fraction(0)
    for c in reversed(f.pieces[i]):
        out = out * t + Fraction(c)
    return out


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
