"""Seeded random models shared by the property and acceptance suites."""

import numpy as np

from degenwave import Field, from_breakpoints


def random_breakpoints(rng, lo=-2.0, hi=2.0, max_interior=3):
    pts = [lo]
    for x in np.sort(rng.uniform(lo + 0.2, hi - 0.2, size=int(rng.integers(0, max_interior + 1)))):
        if x - pts[-1] > 0.2:
            pts.append(float(x))
    pts.append(hi)
    return pts


def random_flux(rng, lo=-2.0, hi=2.0):
    """Random continuous piecewise polynomial of degree <= 3."""
    bps = random_breakpoints(rng, lo, hi)
    pieces = []
    for _ in range(len(bps) - 1):
        style = int(rng.integers(0, 4))
        if style == 0:
            pieces.append([0.0, float(rng.uniform(-1.5, 1.5))])
        elif style == 1:
            pieces.append([0.0])
        elif style == 2:
            pieces.append([0.0, float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))])
        else:
            pieces.append([0.0, float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)),
                           float(rng.uniform(-0.5, 0.5))])
    return from_breakpoints(bps, pieces)


def random_monotone_diffusion(rng, lo=-2.0, hi=2.0):
    """Random nondecreasing model with genuinely flat (degenerate) pieces.

    Nonflat pieces integrate the nonnegative derivative a*(t-r)^2 + b, so
    monotonicity holds by construction, not by rejection sampling.
    """
    bps = random_breakpoints(rng, lo, hi)
    pieces = []
    for _ in range(len(bps) - 1):
        if rng.random() < 0.45:
            pieces.append([0.0])
        else:
            a = float(rng.uniform(0.0, 0.8))
            b = float(rng.uniform(0.0, 0.5))
            r = float(rng.uniform(0.0, 0.5))
            pieces.append([0.0, a * r * r + b, -a * r, a / 3.0])
    return from_breakpoints(bps, pieces, monotone=True)


def random_field(rng, grid, lo=-0.9, hi=0.9):
    """Smooth-ish random periodic data with values inside [lo, hi]."""
    x = grid.cell_centers()
    vals = np.full_like(x, float(rng.uniform(lo + 0.3 * (hi - lo), hi - 0.3 * (hi - lo))))
    for k in range(1, 4):
        vals += rng.uniform(-0.25, 0.25) * np.sin(2 * np.pi * k * x + rng.uniform(0, 2 * np.pi))
    return Field(grid, np.clip(vals, lo, hi))


def random_flat_diffusion(rng, lo=-2.0, hi=2.0):
    """A nondecreasing model that holds one constant on ``[lo, top]``, and
    ``top``: one to four flat pieces, some stored with +0.0 coefficients of
    higher degree, and in half the draws a rising last piece above
    ``top < hi``, so the model's own table has degree 1."""
    top = hi if rng.random() < 0.5 else float(rng.uniform(lo + 1.5, hi - 0.5))
    bps = random_breakpoints(rng, lo, top)
    pieces = [[0.0] * int(rng.integers(1, 4)) for _ in bps[1:]]
    pieces[0][0] = float(rng.choice([0.0, rng.uniform(-1.0, 1.0)]))
    if top < hi:
        bps.append(hi)
        pieces.append([0.0, float(rng.uniform(0.01, 0.5))])
    return from_breakpoints(bps, pieces, monotone=True), top
