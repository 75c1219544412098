"""Reference step kernel: the per-row update the fused kernel must reproduce.

This is the original formulation, one ``searchsorted`` per model function and
``np.roll`` for the periodic neighbours. It lives with the tests only, as the
oracle for bit-identity checks of ``degenwave.solver._apply_step``. The scalar
Engquist-Osher flux below is the oracle for the monotone split the kernel uses.
"""

import math

import numpy as np

from degenwave.piecewise import refine_at_derivative_roots


def total_variation_between(f, a, b):
    """Exact integral of |f'| over [min(a,b), max(a,b)]."""
    lo, hi = (a, b) if a <= b else (b, a)
    f._require_inside(lo, hi)
    pts = [lo]
    for (l, r, _) in refine_at_derivative_roots(f):
        if lo < l < hi:
            pts.append(l)
        if lo < r < hi:
            pts.append(r)
    pts.append(hi)
    pts = sorted(set(pts))
    return math.fsum(abs(f.eval(q) - f.eval(p)) for p, q in zip(pts, pts[1:]))


def eo_flux(phi, u_left, u_right):
    """Engquist-Osher numerical flux.

    Equals the average of the endpoint fluxes minus half the signed integral
    of |phi'| between the arguments; the integral is exact because the
    variation of a polynomial piece splits at the closed-form roots of its
    derivative. Consistency eo_flux(u, u) = phi(u) holds exactly.
    """
    tv = total_variation_between(phi, u_left, u_right)
    sgn = 1.0 if u_right >= u_left else -1.0
    return 0.5 * (phi.eval(u_left) + phi.eval(u_right)) - 0.5 * sgn * tv


def eval_reference(f, arr):
    """Vector evaluation of a PiecewiseFunction, as the original kernel did it.

    It reads only ``f.pieces`` and ``f.breakpoints``: one Horner scheme at the
    stored degree, without a gather for a single piece.
    """
    deg = max(len(p) for p in f.pieces) - 1
    if len(f.pieces) == 1:
        t = arr - f.breakpoints[0]
        c = f.pieces[0]
        out = np.full_like(t, c[0]) if deg == 0 else c[0] + t * c[1]
        if deg >= 2:
            out = c[0] + t * (c[1] + t * (c[2] if deg == 2 else c[2] + t * c[3]))
        return out
    cols = [np.array([p[d] if d < len(p) else 0.0 for p in f.pieces]) for d in range(deg + 1)]
    idx = np.searchsorted(np.asarray(f.breakpoints[1:-1]), arr, side="right")
    t = arr - np.take(np.asarray(f.breakpoints[:-1]), idx)
    acc = np.take(cols[deg], idx)
    for d in range(deg - 1, -1, -1):
        acc = acc * t + np.take(cols[d], idx)
    return acc


def apply_step_reference(phi_up, phi_down, g, values, dx, dt):
    """One explicit Engquist-Osher / three-point-diffusion update of one row."""
    up = eval_reference(phi_up, values)
    down = eval_reference(phi_down, values)
    flux = up + np.roll(down, -1)          # interface j+1/2 lives at index j
    diff = eval_reference(g, values)
    lap = np.roll(diff, -1) - 2.0 * diff + np.roll(diff, 1)
    return values - (dt / dx) * (flux - np.roll(flux, 1)) + (dt / (dx * dx)) * lap
