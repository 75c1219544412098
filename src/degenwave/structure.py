"""Structural analysis of a model pair (flux, diffusion) around the data mean.

Long-time behavior is controlled by the largest interval around the initial
mean on which the flux is affine, and the largest sub-interval on which the
diffusion is additionally constant. On that inner interval the equation
degenerates to pure transport at the flux slope, which is the speed of the
limiting traveling wave.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as gridmod
from .errors import BandError, CoverageError, MeanOutOfBandError
from .grid import Field
from .piecewise import PiecewiseFunction, maximal_affine_interval, maximal_constant_interval

DEGENERATE_SPEED_H = 1e-6


@dataclass(frozen=True)
class StructureReport:
    """Mean, sup bound, structural intervals, and traveling-wave speed.

    Invariant: -sup_norm <= affine_lo <= plateau_lo <= mean <= plateau_hi
    <= affine_hi <= sup_norm. When no affine neighborhood of the mean
    exists the intervals collapse to the mean and ``degenerate_speed`` is
    set; ``speed`` is then only a nominal secant slope.
    """

    mean: float
    sup_norm: float
    affine_lo: float
    affine_hi: float
    plateau_lo: float
    plateau_hi: float
    speed: float
    degenerate_speed: bool

    def to_dict(self) -> dict:
        return {
            "I": self.mean,
            "M": self.sup_norm,
            "a": self.affine_lo,
            "b": self.affine_hi,
            "a_prime": self.plateau_lo,
            "b_prime": self.plateau_hi,
            "c": self.speed,
            "degenerate_speed": self.degenerate_speed,
        }


def require_coverage(phi: PiecewiseFunction, g: PiecewiseFunction, u0: Field) -> float:
    """The sup norm M of ``u0``; CoverageError unless ``phi`` and ``g`` cover [-M, M].

    Solutions stay inside [min u0, max u0], but the structural intervals are
    defined relative to this symmetric window.
    """
    sup = float(np.max(np.abs(u0.values)))
    for name, f in (("phi", phi), ("g", g)):
        if not f.covers(-sup, sup):
            raise CoverageError(
                name, f"{name} covers [{f.lo!r}, {f.hi!r}] but the data needs [-{sup!r}, {sup!r}]"
            )
    return sup


def analyze(phi: PiecewiseFunction, g: PiecewiseFunction, u0: Field) -> StructureReport:
    """Compute the structure report for initial data ``u0``.

    Both model functions must cover [-M, M] where M is the sup norm of the
    data (``require_coverage``). The diffusion must be flagged
    monotone_nondecreasing.
    """
    if not g.monotone_nondecreasing:
        raise ValueError("diffusion function must be flagged monotone_nondecreasing")
    sup = require_coverage(phi, g, u0)
    # the fsum mean of flat data can round one ulp past its sup norm
    center = min(max(gridmod.mean(u0), -sup), sup)
    a, b = maximal_affine_interval(phi, center, -sup, sup)
    if a < b:
        # slope of the piece containing the mean; exact for affine pieces
        speed = phi.deriv(center)
        degenerate = False
        a2, b2 = maximal_constant_interval(g, center, a, b)
    else:
        # any speed works for a constant limit; report a nominal secant slope
        h = DEGENERATE_SPEED_H * max(1.0, sup)
        lo = max(phi.lo, center - h)
        hi = min(phi.hi, center + h)
        speed = (phi.eval(hi) - phi.eval(lo)) / (hi - lo) if hi > lo else 0.0
        degenerate = True
        a2 = b2 = center
    return StructureReport(center, sup, a, b, a2, b2, speed, degenerate)


def cutoff(u: Field, a: float, b: float) -> Field:
    """Clamp the field into [a, b] cell by cell."""
    if a > b:
        raise BandError(f"empty band: a={a!r} > b={b!r}")
    return Field(u.grid, np.clip(u.values, a, b))


def band_project_mean(u: Field, v: Field, a: float, b: float) -> Field:
    """Move ``v`` inside the band toward one end so its mean matches ``u``'s.

    ``v`` must already take values in [a, b] (tolerance 1e-12) and the mean
    of ``u`` must lie in [a, b]. The result ``w`` stays in the band, has
    mean(w) = mean(u) within the slack, and satisfies
    ``l1(u, w) <= 2 * l1(u, v)``: blending with the constant ``a`` (or ``b``)
    costs at most the mean discrepancy again, which is itself bounded by
    the distance between ``u`` and ``v``.
    """
    if a > b:
        raise BandError(f"empty band: a={a!r} > b={b!r}")
    gridmod._require_same_grid(u, v)
    slack = 1e-12 * max(1.0, abs(a), abs(b))
    vmin = float(v.values.min())
    vmax = float(v.values.max())
    if vmin < a - slack or vmax > b + slack:
        raise BandError(
            f"v takes values in [{vmin!r}, {vmax!r}] outside the band [{a!r}, {b!r}]"
        )
    target = gridmod.mean(u)
    if not a - slack <= target <= b + slack:
        raise MeanOutOfBandError(f"mean(u)={target!r} outside the band [{a!r}, {b!r}]")
    # a target within the slack outside the band moves to its end, so neither
    # divisor below is 0 when its branch runs
    target = min(max(target, a), b)
    current = gridmod.mean(v)
    if current == target:
        return v.copy()
    if current > target:
        s = (current - target) / (current - a)
        w = s * a + (1.0 - s) * v.values
    else:
        s = (target - current) / (b - current)
        w = s * b + (1.0 - s) * v.values
    return Field(u.grid, w)
