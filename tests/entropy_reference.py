"""Reference residuals: the full-matrix formulas the blocked quadrature must reproduce.

This is the original formulation, which rebuilds every factor for each
(bump, k) pair over the whole snapshot matrix. It lives with the tests only,
as the oracle for byte-identity checks of ``degenwave.entropy_residual`` and
``degenwave.weak_form_residual``. It evaluates the bump's factors with its
own per-order ``standard_bump``, not through ``TestBump``'s methods, which the
quadrature under test uses.
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
from degenwave.errors import UnsupportedTestFnError
from degenwave.piecewise import PiecewiseFunction
from degenwave.solver import RunResult


def standard_bump(s: np.ndarray, order: int) -> np.ndarray:
    """The standard bump exp(1 - 1/(1 - s^2)) on (-1, 1), or its derivative of ``order``."""
    out = np.zeros_like(s)
    m = np.abs(s) < 1.0
    sm = s[m]
    w = 1.0 - sm ** 2
    b = np.fromiter(map(math.exp, (1.0 - 1.0 / w).tolist()), float, w.size)
    if order == 1:
        b = b * (-2.0 * sm / w ** 2)
    elif order == 2:
        b = b * (4.0 * sm ** 2 / w ** 4 - 2.0 / w ** 2 - 8.0 * sm ** 2 / w ** 3)
    out[m] = b
    return out


def space_factor(f: TestBump, x: np.ndarray, deriv: int) -> np.ndarray:
    """The periodic spatial factor of ``f``, or its derivative of order ``deriv``."""
    k = int(math.ceil(f.sigma_x)) + 1
    acc = np.zeros_like(x)
    for m in range(-k, k + 1):
        acc = acc + standard_bump((x - f.x_center + m) / f.sigma_x, deriv)
    return acc / f.sigma_x ** deriv


def time_factor(f: TestBump, t: np.ndarray, deriv: int) -> np.ndarray:
    """The time factor of ``f``, or its derivative of order ``deriv``."""
    return standard_bump((t - f.t_center) / f.sigma_t, deriv) / f.sigma_t ** deriv


def derivative(f: TestBump, t, x, t_deriv: int, x_deriv: int) -> np.ndarray:
    """The derivative of ``f`` of order ``t_deriv`` in time and ``x_deriv`` in space."""
    return time_factor(f, t, t_deriv) * space_factor(f, x, x_deriv)


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
    rows = (U * derivative(bump, times, centers, 1, 0)
            + phi.eval(U) * derivative(bump, times, centers, 0, 1)
            + g.eval(U) * derivative(bump, times, centers, 0, 2))
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
    largest normalized violation, +0.0 at least, and the threshold is 1. A
    bump whose C2 bound, or a pair whose budget, is not finite gives no
    verdict: UnsupportedTestFnError.
    """
    if k_values is None:
        k_values = default_k_values(run_result.initial)
    if test_fns is None:
        test_fns = default_bumps(run_result.params.t_end)
    dx = run_result.initial.grid.dx
    budget_scale = ENTROPY_COMPARISON_CONSTANT * (dx + snapshot_spacing(run_result))
    c2s = [b.c2_norm() for b in test_fns]
    for bi, c2 in enumerate(c2s):
        for k in k_values:
            if not math.isfinite(budget_scale * c2 * (1.0 + abs(float(k)))):
                raise UnsupportedTestFnError(
                    f"the entropy budget of bump {bi} at k = {float(k)!r} is not finite")
    t_last = run_result.times[-1]
    for b in test_fns:
        b.require_supported_inside(t_last)
    U = snapshot_matrix(run_result)
    times = run_result.times[:, None]
    centers = run_result.initial.grid.cell_centers()[None, :]
    phi_u = phi.eval(U)
    g_u = g.eval(U)
    rows_extra = []
    worst = -math.inf
    for bi, (b, c2) in enumerate(zip(test_fns, c2s)):
        ft = derivative(b, times, centers, 1, 0)
        fx = derivative(b, times, centers, 0, 1)
        fxx = derivative(b, times, centers, 0, 2)
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
    return CheckReport("entropy_residual", observed=max(0.0, worst), threshold=1.0,
                       extra={"pairs": rows_extra})
