"""Reference residuals: the full-matrix formulas the blocked quadrature must reproduce.

This is the original formulation, which rebuilds every factor for each
(bump, k) pair over the whole snapshot matrix. It lives with the tests only,
as the oracle for byte-identity checks of ``degenwave.entropy_residual`` and
``degenwave.weak_form_residual``.
"""

import math

import numpy as np

from degenwave.diagnostics import (
    ENTROPY_COMPARISON_CONSTANT,
    CheckReport,
    TestBump,
    _time_weights,
    default_bumps,
    default_k_values,
    snapshot_spacing,
)
from degenwave.piecewise import PiecewiseFunction
from degenwave.solver import RunResult


def snapshot_matrix(run_result: RunResult) -> np.ndarray:
    """Snapshot values stacked row-wise (one row per snapshot time)."""
    return run_result.values


def _quadrature(run_result: RunResult, rows: np.ndarray) -> float:
    """Trapezoid in time of midpoint-in-space sums of a (times x cells) array."""
    dx = run_result.initial.grid.dx
    spatial = rows.sum(axis=1) * dx
    w = _time_weights(run_result.times)
    return math.fsum((w * spatial).tolist())


def weak_form_residual(run_result: RunResult, phi: PiecewiseFunction,
                       g: PiecewiseFunction, bump: TestBump) -> float:
    """Quadrature of u f_t + phi(u) f_x + g(u) f_xx; zero for exact weak solutions."""
    bump.require_supported_inside(run_result.times[-1])
    U = snapshot_matrix(run_result)
    times = run_result.times[:, None]
    centers = run_result.initial.grid.cell_centers()[None, :]
    rows = (U * bump.d_dt(times, centers)
            + phi.eval(U) * bump.d_dx(times, centers)
            + g.eval(U) * bump.d_dxx(times, centers))
    return _quadrature(run_result, rows)


def entropy_residual(run_result: RunResult, phi: PiecewiseFunction,
                     g: PiecewiseFunction, k_values=None, test_fns=None) -> CheckReport:
    """Entropy-inequality quadrature over all (constant, bump) pairs.

    For each entropy constant k and test bump f the residual

        integral of |u-k| f_t + sign(u-k)(phi(u)-phi(k)) f_x + |g(u)-g(k)| f_xx

    must be nonnegative for an exact entropy solution. The discrete solution
    only satisfies it up to a quadrature and scheme error budget

        C * (dx + snapshot_spacing) * ||f||_C2 * (1 + |k|),

    so the report normalizes each violation by that budget: observed is the
    largest normalized violation and the threshold is 1.
    """
    if k_values is None:
        k_values = default_k_values(run_result.initial)
    if test_fns is None:
        test_fns = default_bumps(run_result.params.t_end)
    t_last = run_result.times[-1]
    for b in test_fns:
        b.require_supported_inside(t_last)
    U = snapshot_matrix(run_result)
    times = run_result.times[:, None]
    centers = run_result.initial.grid.cell_centers()[None, :]
    phi_u = phi.eval(U)
    g_u = g.eval(U)
    dx = run_result.initial.grid.dx
    budget_scale = ENTROPY_COMPARISON_CONSTANT * (dx + snapshot_spacing(run_result))
    rows_extra = []
    worst = -math.inf
    for bi, b in enumerate(test_fns):
        ft = b.d_dt(times, centers)
        fx = b.d_dx(times, centers)
        fxx = b.d_dxx(times, centers)
        c2 = b.c2_norm()
        for k in k_values:
            k = float(k)
            sgn = np.sign(U - k)
            rows = (np.abs(U - k) * ft
                    + sgn * (phi_u - phi.eval(k)) * fx
                    + np.abs(g_u - g.eval(k)) * fxx)
            value = _quadrature(run_result, rows)
            budget = budget_scale * c2 * (1.0 + abs(k))
            worst = max(worst, -value / budget)
            rows_extra.append({"k": k, "bump": bi, "residual": value, "budget": budget})
    return CheckReport("entropy_residual", observed=max(worst, 0.0), threshold=1.0,
                       extra={"pairs": rows_extra})
