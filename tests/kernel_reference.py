"""Reference step kernel: the per-row update the fused kernel must reproduce.

This is the original formulation, one ``searchsorted`` per model function and
``np.roll`` for the periodic neighbours. It lives with the tests only, as the
oracle for bit-identity checks of ``degenwave.solver._apply_step``.
"""

import numpy as np


def eval_reference(f, arr):
    """Vector evaluation of a PiecewiseFunction, as the original kernel did it."""
    cache = f._cache
    if len(f.pieces) == 1:
        t = arr - f.breakpoints[0]
        c = f.pieces[0]
        deg = cache["degree"]
        out = np.full_like(t, c[0]) if deg == 0 else c[0] + t * c[1]
        if deg >= 2:
            out = c[0] + t * (c[1] + t * (c[2] if deg == 2 else c[2] + t * c[3]))
        return out
    idx = np.searchsorted(cache["bp_inner"], arr, side="right")
    t = arr - np.take(cache["lefts"], idx)
    deg = cache["degree"]
    acc = np.take(cache[f"c{deg}"], idx)
    for d in range(deg - 1, -1, -1):
        acc = acc * t + np.take(cache[f"c{d}"], idx)
    return acc


def apply_step_reference(phi_up, phi_down, g, values, dx, dt):
    """One explicit Engquist-Osher / three-point-diffusion update of one row."""
    up = eval_reference(phi_up, values)
    down = eval_reference(phi_down, values)
    flux = up + np.roll(down, -1)          # interface j+1/2 lives at index j
    diff = eval_reference(g, values)
    lap = np.roll(diff, -1) - 2.0 * diff + np.roll(diff, 1)
    return values - (dt / dx) * (flux - np.roll(flux, 1)) + (dt / (dx * dx)) * lap
