"""Acceptance gate: one test per criterion, each at its stated tolerance.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
the captured output of a failing test). Criterion 4 asserts Oleinik's decay
bounds, ``||u(t) - mean||_1 <= 1/(4 kappa t)`` and the one-sided slope
``u_x <= 1/(kappa t)``, at every snapshot; an exact Lax-Oleinik oracle for
its data backs that choice: the exact solution itself sits at 0.01211 at
t=20, above any absolute level such as 0.01, and the scheme converges to it.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import randmodels as rm
from degenwave import (
    Field,
    Grid,
    SchemeParams,
    analyze,
    band_project_mean,
    burgers,
    constant,
    cutoff,
    cutoff_convergence,
    entropy_residual,
    extract_profile,
    from_breakpoints,
    identity,
    l1_distance,
    l1_to_constant,
    linear,
    max_stable_dt,
    mean,
    parse_config,
    positive_part_distance,
    run,
    run_many,
    run_suite,
    shift,
    squeeze_bounds,
    squeeze_companions,
    step,
    t_nonexpansive_from_runs,
    total_variation,
)


def report(num, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {num} ({label}): {status} {detail}")


def sine_field(grid, base, amp, freq=1, phase=0.0):
    return Field(grid, base + amp * np.sin(2 * np.pi * freq * grid.cell_centers() + phase))


def test_criterion_1_discrete_contraction_suite():
    """200 random model pairs: order, ordered/absolute distances, mean drift."""
    rng = np.random.default_rng(20240201)
    grid = Grid(64)
    dx = grid.dx
    worst_order = 0.0
    worst_pp = 0.0
    worst_l1 = 0.0
    worst_mean = 0.0
    for trial in range(200):
        phi = rm.random_flux(rng)
        g = rm.random_monotone_diffusion(rng)
        u = rm.random_field(rng, grid)
        if trial % 2 == 0:
            v = rm.random_field(rng, grid)
        else:
            v = Field(grid, u.values + rng.uniform(0.0, 0.4, grid.n_cells))
        ordered = bool(np.all(u.values <= v.values))
        lo = min(u.values.min(), v.values.min())
        hi = max(u.values.max(), v.values.max())
        dt = 0.9 * min(max_stable_dt(phi, g, float(lo), float(hi), dx), 0.05)
        mu0, mv0 = mean(u), mean(v)
        for _ in range(50):
            pp_uv = positive_part_distance(u, v)
            pp_vu = positive_part_distance(v, u)
            l1 = l1_distance(u, v)
            u = step(phi, g, u, dt)
            v = step(phi, g, v, dt)
            if ordered:
                worst_order = max(worst_order, float(np.max(u.values - v.values)))
            worst_pp = max(worst_pp, positive_part_distance(u, v) - pp_uv,
                           positive_part_distance(v, u) - pp_vu)
            worst_l1 = max(worst_l1, l1_distance(u, v) - l1)
        worst_mean = max(worst_mean, abs(mean(u) - mu0), abs(mean(v) - mv0))
    ok = worst_order <= 1e-10 and worst_pp <= 1e-10 and worst_l1 <= 1e-10 \
        and worst_mean <= 1e-10
    report(1, "discrete contraction suite", ok,
           f"order={worst_order:.2e} pp={worst_pp:.2e} l1={worst_l1:.2e} "
           f"mean={worst_mean:.2e}")
    assert worst_order <= 1e-10
    assert worst_pp <= 1e-10
    assert worst_l1 <= 1e-10
    assert worst_mean <= 1e-10


def test_criterion_2_exact_transport_oracle():
    """Affine flux at unit CFL: exact rotation, zero residuals, exact speed."""
    n = 200
    grid = Grid(n)
    u0 = sine_field(grid, 0.5, 0.25)
    phi = linear(2.0, 0.3, -2, 2)
    g = constant(0.25, -2, 2)
    params = SchemeParams(t_end=3.0, cfl_safety=1.0,
                          snapshot_times=tuple(np.linspace(0.0, 3.0, 13)))
    res = run(phi, g, u0, params)
    speed_exact = res.structure.speed == 2.0
    cells = int(round(res.structure.speed * res.times[-1] * n))
    gap = float(np.max(np.abs(res.final.values - shift(u0, cells).values)))
    rep = extract_profile(res, t_lo=0.0)
    worst_resid = max(v for _, v in rep.series)
    ok = speed_exact and gap <= 1e-12 and worst_resid <= 1e-12
    report(2, "exact transport oracle", ok,
           f"c={res.structure.speed!r} cell_gap={gap:.2e} resid={worst_resid:.2e}")
    assert speed_exact
    assert gap <= 1e-12
    assert worst_resid <= 1e-12


def test_criterion_3_heat_decay_oracle():
    """Pure diffusion with identity g matches Fourier decay within 10%."""
    started = time.perf_counter()
    grid = Grid(256)
    u0 = sine_field(grid, 0.5, 0.1)
    times = (0.01, 0.02, 0.03, 0.04, 0.05)
    res = run(constant(0.0, -1, 1), identity(-1, 1), u0,
              SchemeParams(t_end=0.05, snapshot_times=(0.0,) + times))
    elapsed = time.perf_counter() - started
    worst_rel = 0.0
    for t, row in zip(res.times[1:], res.values[1:]):
        want = (2.0 / math.pi) * 0.1 * math.exp(-4.0 * math.pi ** 2 * t)
        worst_rel = max(worst_rel, abs(l1_to_constant(Field(grid, row), 0.5) - want) / want)
    ok = worst_rel <= 0.10 and elapsed < 20.0
    report(3, "heat decay oracle", ok,
           f"worst_rel={worst_rel:.2%} runtime={elapsed:.1f}s")
    assert worst_rel <= 0.10
    assert elapsed < 20.0


def test_criterion_4_burgers_decay():
    """Genuinely nonlinear flux decays at the Oleinik rate; affine flux does not."""
    n = 400
    grid = Grid(n)
    u0 = sine_field(grid, 0.5, 0.25)
    phi, g = burgers(-1, 1), constant(0.0, -1, 1)
    kappa = 1.0  # min phi'' for phi = u^2/2
    res = run(phi, g, u0, SchemeParams(t_end=20.0,
                                       snapshot_times=tuple(np.linspace(0, 20, 41))))
    target = res.structure.mean
    series = [(t, l1_to_constant(Field(grid, row), target))
              for t, row in zip(res.times, res.values)]
    tail = [(t, v) for t, v in series if t >= 1.0]
    worst_increase = max(b - a for (_, a), (_, b) in zip(tail, tail[1:]))
    final_t, final = series[-1]
    # Oleinik's one-sided estimate u_x <= 1/(kappa t) holds for the entropy
    # solution and, discretely, for monotone Engquist-Osher type schemes
    # (Brenier & Osher 1988). Among zero-mean functions on a period-1 circle
    # with that one-sided slope the sawtooth has the largest L1 norm, so
    # ||u - mean||_1 <= 1/(4 kappa t). Both are checked at every snapshot, as ratios to the
    # bound. An absolute level such as 0.01 at t=20 is no bound at all: the
    # exact solution sits at 0.01211 there (see the oracle test below).
    l1_ratio = max(4.0 * kappa * t * v for t, v in series if t > 0.0)
    slope_ratio = max(kappa * t * float(np.max(np.roll(row, -1) - row))
                      / grid.dx for t, row in zip(res.times, res.values) if t > 0.0)
    bound = 1.0 / (4.0 * kappa * final_t)
    # negative control: pure transport at unit CFL keeps the distance
    control = run(linear(2.0, 0.0, -1, 1), g, u0,
                  SchemeParams(t_end=20.0, cfl_safety=1.0,
                               snapshot_times=(0.0, 20.0)))
    floor = series[0][1] - 2.0 * grid.dx * total_variation(u0)
    control_t, control_u = control.times[-1], control.final
    control_final = l1_to_constant(control_u, target)
    control_bound = 1.0 / (4.0 * kappa * control_t)
    monotone_ok = worst_increase <= 1e-12 and final < tail[0][1]
    control_ok = control_final >= floor
    control_breaks = control_final > control_bound
    decay_ok = l1_ratio <= 1.0 and slope_ratio <= 1.0
    report(4, "Burgers decay",
           decay_ok and monotone_ok and control_ok and control_breaks,
           f"final={final:.5f} (Oleinik bound {bound:.5f}) "
           f"max 4t*L1={l1_ratio:.3f} max t*slope={slope_ratio:.3f} "
           f"monotone={monotone_ok} control={control_final:.5f}"
           f">={floor:.5f} and >{control_bound:.5f}")
    assert monotone_ok
    assert control_ok
    assert control_breaks
    assert l1_ratio <= 1.0
    assert slope_ratio <= 1.0


def hopf_lax_cell_averages(grid, base, amp, t, samples=1000):
    """Exact entropy solution of u_t + (u^2/2)_x = 0 at time t > 0, as cell averages.

    The initial data is ``base + amp sin(2 pi x)`` with primitive U0. The
    Hopf-Lax value function ``w(x) = min_y U0(y) + (x - y)^2 / (2t)`` has
    ``w_x = u`` (Lax-Oleinik), so a cell average is the difference of w
    across the cell's edges over dx. A minimizer is the foot of a backward
    characteristic, ``x = y + t u0(y)``, so it lies in
    ``x - t [base + amp, base - amp]``: a grid search over that window
    brackets it, and golden-section search on the bracket finishes it.
    """
    edges = np.arange(grid.n_cells + 1) * grid.dx

    def cost(x, y):
        primitive = base * y + amp * (1.0 - np.cos(2.0 * np.pi * y)) / (2.0 * np.pi)
        return primitive + (x - y) ** 2 / (2.0 * t)

    feet = edges[:, None] - t * np.linspace(base - amp, base + amp, samples)
    best = feet[np.arange(edges.size), np.argmin(cost(edges[:, None], feet), axis=1)]
    h = 2.0 * amp * t / (samples - 1)
    lo, hi = best - h, best + h
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(60):
        a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        left = cost(edges, a) < cost(edges, b)
        lo, hi = np.where(left, lo, a), np.where(left, b, hi)
    return Field(grid, np.diff(cost(edges, 0.5 * (lo + hi))) / grid.dx)


def test_criterion_4_exact_lax_oleinik_oracle():
    """Exact solution for criterion 4's data: its decay level, and convergence to it."""
    grid = Grid(400)
    exact_5 = l1_to_constant(hopf_lax_cell_averages(grid, 0.5, 0.25, 5.0), 0.5)
    exact_20 = l1_to_constant(hopf_lax_cell_averages(grid, 0.5, 0.25, 20.0), 0.5)
    phi, g = burgers(-1, 1), constant(0.0, -1, 1)
    errors = []
    for n in (100, 200, 400):
        grid = Grid(n)
        res = run(phi, g, sine_field(grid, 0.5, 0.25), SchemeParams(t_end=20.0))
        t, u = res.times[-1], res.final
        errors.append(l1_distance(u, hopf_lax_cell_averages(grid, 0.5, 0.25, t)))
    ratios = [b / a for a, b in zip(errors, errors[1:])]
    pinned_ok = abs(exact_5 - 0.04430) <= 5e-6 and abs(exact_20 - 0.01211) <= 5e-6
    # at least Kuznetsov's O(sqrt(dx)) rate per doubling of n
    rate_ok = all(r <= 1.0 / math.sqrt(2.0) for r in ratios)
    report(4, "exact Lax-Oleinik oracle", pinned_ok and exact_20 > 0.01 and rate_ok,
           f"exact L1 to mean t=5: {exact_5:.5f} t=20: {exact_20:.5f}; "
           "scheme L1 error n=100,200,400: "
           + ", ".join(f"{e:.5f}" for e in errors)
           + " ratios " + ", ".join(f"{r:.3f}" for r in ratios))
    assert pinned_ok
    # the exact solution lies above 0.01 at t=20, so no convergent scheme
    # meets an absolute bound of 0.01 there
    assert exact_20 > 0.01
    assert rate_ok


def test_criterion_5_cutoff_convergence_and_squeeze():
    """Mixed regime: clamp gap decays, shifted companions dominate exceedance."""
    n = 400
    grid = Grid(n)
    u0 = sine_field(grid, 0.625, 0.325)  # range [0.3, 0.95]
    phi = from_breakpoints([-2.0, 0.0, 2.0], [[2.0, -1.0], [0.0, 2.0]])
    g = from_breakpoints([-2.0, 0.8, 2.0], [[0.0], [0.0, 0.02]], monotone=True)
    st = analyze(phi, g, u0)
    structure_ok = (st.affine_lo == 0.0 and st.affine_hi == st.sup_norm
                    and (st.plateau_lo, st.plateau_hi) == (0.0, 0.8)
                    and st.speed == 2.0)
    # the companions, u0 shifted to the ends of the affine interval, share the run's step
    (su, upper), (sl, lower) = squeeze_companions(u0, st)
    res, up, lo = run_many(phi, g, [u0, upper, lower],
                           SchemeParams(t_end=4.0, snapshot_times=tuple(np.linspace(0, 4, 17))))
    cut = cutoff_convergence(res)
    sq = squeeze_bounds(res, (su, up), (sl, lo))
    # E(t), the L1 distance to the states with range in the plateau, never rises:
    # that set is invariant (max principle) and the clamp is its nearest point
    # in L1, so one step cannot move E up (L1 contraction)
    gap = [e for _, e in cut.series]
    rise = max(e1 - e0 for e0, e1 in zip(gap, gap[1:]))
    ok = structure_ok and cut.passed and sq.passed and sq.observed <= 1e-10 and rise <= 1e-10
    report(5, "cutoff convergence + squeeze", ok,
           f"cut final={cut.observed:.2e} thr={cut.threshold:.2e} largest rise={rise:.2e} "
           f"domination={sq.observed:.2e}")
    assert structure_ok
    assert cut.passed
    assert rise <= 1e-10
    assert sq.observed <= 1e-10


def stefan_lambda(a, b, h):
    """The root of ``(a - b) lam = h exp(-lam^2) / (sqrt(pi) (1 + erf lam))``, by bisection:
    the left side rises from 0 and the right side falls, so the root is unique."""
    lo, hi = 0.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (a - b) * mid * math.sqrt(math.pi) * (1.0 + math.erf(mid)) < h * math.exp(-mid * mid):
            lo = mid
        else:
            hi = mid
    return lo


def stefan_cell_averages(grid, a, b, h, kt, left, right):
    """Cell averages of Neumann's one-phase Stefan solution for ``u_t = (k (u - a)^+)_xx``
    from ``a + h`` on ``(left, right)`` and ``b < a`` elsewhere, at ``k t = kt``.

    Each front moves into the frozen data ``b`` from its end of the block and
    lies at distance ``2 lam sqrt(kt)`` from it; behind it, at distance ``y``
    from that end (negative inside the block), ``u = a + h + beta (1 + erf(y /
    (2 sqrt(kt))))`` with ``beta = -h / (1 + erf lam)`` (Carslaw & Jaeger
    §11.2). The two fronts do not interact while ``sqrt(kt)`` is small
    against the block and the gap. Cells left of the block's centre see the
    left front, the others the right front."""
    lam, width = stefan_lambda(a, b, h), 2.0 * math.sqrt(kt)
    beta = -h / (1.0 + math.erf(lam))

    def antiderivative(xi):  # of a + h + beta (1 + erf xi) in xi
        return (a + h) * xi + beta * (xi * math.erfc(-xi)
                                      + math.exp(-xi * xi) / math.sqrt(math.pi))

    def integral(y0, y1):  # of u over y in [y0, y1]
        liquid = min(max(width * lam, y0), y1)
        return b * (y1 - liquid) + width * (antiderivative(liquid / width)
                                            - antiderivative(y0 / width))

    edges = np.arange(grid.n_cells + 1) * grid.dx
    return Field(grid, np.array([
        (integral(left - x1, left - x0) if x1 <= 0.5 * (left + right)
         else integral(x0 - right, x1 - right)) / (x1 - x0)
        for x0, x1 in zip(edges[:-1], edges[1:])]))


@pytest.mark.parametrize("c", [0.0, 2.0])
def test_criterion_5_exact_stefan_oracle(c):
    """The degenerate regime: phi = c u and g = k (u - a)^+, a block above a in
    frozen data below it, against Neumann's Stefan solution moved by c t."""
    a, b, h, k, t = 0.8, 0.4, 0.2, 0.005, 0.1
    lam = stefan_lambda(a, b, h)
    phi = constant(0.0, 0.0, 2.0) if c == 0.0 else linear(c, 0.0, 0.0, 2.0)
    g = from_breakpoints([0.0, a, 2.0], [[0.0], [0.0, k]], monotone=True)
    errors = []
    for n in (200, 400, 800, 1600):
        grid = Grid(n)
        centers = grid.cell_centers()
        u0 = Field(grid, np.where((centers > 0.25) & (centers < 0.75), a + h, b))
        res = run(phi, g, u0, SchemeParams(t_end=t))
        ct = c * res.times[-1]
        exact = stefan_cell_averages(grid, a, b, h, k * res.times[-1], 0.25 + ct, 0.75 + ct)
        errors.append(l1_distance(res.final, exact))
    ratios = [e1 / e0 for e0, e1 in zip(errors, errors[1:])]
    front = 2.0 * lam * math.sqrt(k * t)
    pinned_ok = abs(lam - 0.2168789) <= 1e-7 and abs(front - 0.0096991) <= 1e-7
    # at least criterion 4's O(sqrt(dx)) rate per doubling of n
    rate_ok = all(r <= 1.0 / math.sqrt(2.0) for r in ratios)
    report(5, f"exact Stefan oracle, c={c:g}", pinned_ok and rate_ok,
           f"lambda={lam:.7f} front={front:.7f}; scheme L1 error n=200..1600: "
           + ", ".join(f"{e:.3g}" for e in errors)
           + " ratios " + ", ".join(f"{r:.3f}" for r in ratios))
    assert pinned_ok
    assert rate_ok


def barenblatt_cell_averages(grid, m, C, tau, center):
    """Cell averages of the Barenblatt solution of ``u_t = (u^m)_xx`` for m = 2 or 3
    at time ``tau`` after a point mass at ``center``, with its support edge and its
    maximum: ``u = tau^-al (C - q y^2)_+^(1/(m-1))``, where ``al = 1/(m+1)``,
    ``q = (m-1)/(2m(m+1)) tau^-2al`` and y is the distance from ``center``
    (Barenblatt 1952; Vazquez, The Porous Medium Equation, 2007). The support
    edge is ``r = sqrt(C/q)``, ``sqrt(12 C) tau^(1/3)`` for m = 2. Each average
    comes from an exact antiderivative: a cubic for m = 2, a circle's segment
    area for m = 3."""
    al = 1.0 / (m + 1)
    q = (m - 1) / (2.0 * m * (m + 1)) * tau ** (-2.0 * al)
    amp, r = tau ** -al, math.sqrt(C / q)

    def antiderivative(y):
        y = min(max(y, -r), r)
        if m == 2:
            return amp * (C * y - q * y ** 3 / 3.0)
        return amp * math.sqrt(q) * 0.5 * (y * math.sqrt(r * r - y * y) + r * r * math.asin(y / r))

    edges = np.arange(grid.n_cells + 1) * grid.dx
    averages = [(antiderivative(x1 - center) - antiderivative(x0 - center)) / (x1 - x0)
                for x0, x1 in zip(edges[:-1], edges[1:])]
    return Field(grid, np.array(averages)), r, amp * C ** (1.0 / (m - 1))


def test_criterion_10_exact_barenblatt_oracle():
    """Nonlinear degenerate diffusion: g = u^2 (g' vanishes at 0) and phi = c u,
    from the Barenblatt profile at tau = 1e-3, against the profile at the run's
    final tau, moved by c t; the profile of m = 3 is a negative control."""
    C, tau0, t_end = 0.05, 1e-3, 0.019
    g = from_breakpoints([-2.0, 0.0, 2.0], [[0.0], [0.0, 0.0, 1.0]], monotone=True)
    r_end, top_end = barenblatt_cell_averages(Grid(4), 2, C, tau0 + t_end, 0.5)[1:]
    pinned_ok = abs(r_end - 0.2102579) <= 1e-7 and abs(top_end - 0.1842016) <= 1e-7
    assert pinned_ok
    for c, bound in ((0.0, 0.35), (0.5, 1.0 / math.sqrt(2.0))):
        phi = constant(0.0, -2.0, 2.0) if c == 0.0 else linear(c, 0.0, -2.0, 2.0)
        errors, wrong, spill = [], [], []
        for n in (100, 200, 400):
            grid = Grid(n)
            res = run(phi, g, barenblatt_cell_averages(grid, 2, C, tau0, 0.5)[0],
                      SchemeParams(t_end=t_end))
            t, center = res.times[-1], 0.5 + c * res.times[-1]
            exact, edge, _ = barenblatt_cell_averages(grid, 2, C, tau0 + t, center)
            errors.append(l1_distance(res.final, exact))
            wrong.append(l1_distance(res.final,
                                     barenblatt_cell_averages(grid, 3, C, tau0 + t, center)[0]))
            # finite speed of propagation: nothing beyond r + 3 dx from the centre.
            # Downstream of a convected front, upwind transport spreads values over
            # O(sqrt(c t dx)), so there only the upstream side is held to it.
            y = grid.cell_centers() - center
            beyond = (np.abs(y) if c == 0.0 else -y) > edge + 3.0 * grid.dx
            spill.append(float(res.final.values[beyond].max()))
        ratios = [e1 / e0 for e0, e1 in zip(errors, errors[1:])]
        wrong_ratios = [e1 / e0 for e0, e1 in zip(wrong, wrong[1:])]
        rate_ok = all(r <= bound for r in ratios)
        report(10, f"exact Barenblatt oracle, c={c:g}", pinned_ok and rate_ok,
               f"r={r_end:.7f} max={top_end:.7f}; scheme L1 error n=100..400: "
               + ", ".join(f"{e:.3g}" for e in errors)
               + " ratios " + ", ".join(f"{r:.3f}" for r in ratios)
               + " (m=3 profile: " + ", ".join(f"{r:.3f}" for r in wrong_ratios) + ")"
               + f" largest value past r + 3 dx: {max(spill):.2e}")
        assert rate_ok
        assert max(spill) <= 1e-12
        # the wrong exponent does not converge, so it fails the same rate bound
        assert not all(r <= bound for r in wrong_ratios)


def test_criterion_6_band_projection_suite():
    """500 random triples: mean kept, band kept, factor-two distance bound."""
    rng = np.random.default_rng(77)
    failures = 0
    worst_mean = 0.0
    worst_band = 0.0
    for _ in range(500):
        grid = Grid(int(rng.integers(8, 96)))
        a = float(rng.uniform(-1.0, 0.2))
        b = a + float(rng.uniform(0.05, 1.2))
        u = rm.random_field(rng, grid, a - 0.5, b + 0.5)
        u = Field(grid, u.values - mean(u) + float(rng.uniform(a, b)))
        if rng.random() < 0.5:
            v = cutoff(u, a, b)
        else:
            v = rm.random_field(rng, grid, a, b)
        w = band_project_mean(u, v, a, b)
        worst_mean = max(worst_mean, abs(mean(w) - mean(u)))
        worst_band = max(worst_band, float(np.max(w.values - b)),
                         float(np.max(a - w.values)))
        # 1e-12 absolute is float-summation dust, not slack in the factor
        if l1_distance(u, w) > 2.0 * l1_distance(u, v) + 1e-12:
            failures += 1
    ok = failures == 0 and worst_mean <= 1e-12 and worst_band <= 1e-12
    report(6, "band projection suite", ok,
           f"failures={failures} mean={worst_mean:.2e} band={worst_band:.2e}")
    assert failures == 0
    assert worst_mean <= 1e-12
    assert worst_band <= 1e-12


def test_criterion_7_entropy_residual_refinement():
    """Entropy quadrature passes and its error budget halves per refinement."""
    phi, g = burgers(-1, 1), constant(0.0, -1, 1)
    t_end = 1.5
    # one ladder-wide set of entropy constants: data range [0.25, 0.75] plus
    # the 10% margin, so only the resolution term varies between levels
    k_values = np.linspace(0.2, 0.8, 9)
    reports = {}
    for n in (100, 200, 400):
        grid = Grid(n)
        u0 = sine_field(grid, 0.5, 0.25)
        times = tuple(j * grid.dx for j in range(int(round(t_end * n)) + 1))
        res = run(phi, g, u0, SchemeParams(t_end=t_end, snapshot_times=times))
        reports[n] = entropy_residual(res, k_values=k_values)
    all_pass = all(rep.passed for rep in reports.values())
    tighten = True
    for coarse, fine in ((100, 200), (200, 400)):
        for pc, pf in zip(reports[coarse].extra["pairs"],
                          reports[fine].extra["pairs"]):
            if pf["budget"] > 0.5 * pc["budget"] * (1.0 + 1e-9):
                tighten = False
    worst = max(rep.observed for rep in reports.values())
    ok = all_pass and tighten
    report(7, "entropy residual refinement", ok,
           f"worst_normalized_violation={worst:.2e} budgets_halve={tighten}")
    assert all_pass
    assert tighten


def test_criterion_8_profile_map_nonexpansive():
    """50 random pairs over three regimes: profile gap <= initial L1 gap."""
    rng = np.random.default_rng(31415)
    failures = []
    # regime 1: decay (strictly convex flux, no diffusion), 17 pairs
    phi_d, g_d = burgers(-1, 1), constant(0.0, -1, 1)
    params_d = SchemeParams(t_end=3.0, snapshot_times=(0.0, 1.5, 3.0))
    grid = Grid(96)
    for _ in range(17):
        u1 = rm.random_field(rng, grid, -0.6, 0.6)
        u2 = rm.random_field(rng, grid, -0.6, 0.6)
        rep = t_nonexpansive_from_runs(*run_many(phi_d, g_d, [u1, u2], params_d))
        if not rep.passed:
            failures.append(("decay", rep))
    # regime 2: pure transport at unit CFL, 17 pairs (shifted data share bands)
    phi_t, g_t = linear(2.0, 0.1, -2, 2), constant(0.3, -2, 2)
    params_t = SchemeParams(t_end=1.0, cfl_safety=1.0,
                            snapshot_times=(0.0, 0.5, 1.0))
    for k in range(17):
        u1 = rm.random_field(rng, grid)
        if k % 2 == 0:
            u2 = shift(u1, int(rng.integers(1, 96)))
        else:
            u2 = rm.random_field(rng, grid)
        rep = t_nonexpansive_from_runs(*run_many(phi_t, g_t, [u1, u2], params_t))
        if not rep.passed:
            failures.append(("transport", rep))
    # regime 3: mixed kink/plateau models, 16 pairs
    phi_m = from_breakpoints([-2.0, 0.0, 2.0], [[2.0, -1.0], [0.0, 2.0]])
    g_m = from_breakpoints([-2.0, 0.8, 2.0], [[0.0], [0.0, 0.02]], monotone=True)
    params_m = SchemeParams(t_end=1.5, snapshot_times=(0.0, 0.75, 1.5))
    for _ in range(16):
        u1 = sine_field(grid, float(rng.uniform(0.45, 0.65)),
                        float(rng.uniform(0.1, 0.3)), phase=float(rng.uniform(0, 6)))
        u2 = sine_field(grid, float(rng.uniform(0.45, 0.65)),
                        float(rng.uniform(0.1, 0.3)), phase=float(rng.uniform(0, 6)))
        rep = t_nonexpansive_from_runs(*run_many(phi_m, g_m, [u1, u2], params_m))
        if not rep.passed:
            failures.append(("mixed", rep))
    # equality case: constant vertical shift under the decay regime
    u1 = sine_field(Grid(128), 0.4, 0.2)
    u2 = Field(Grid(128), u1.values + 0.1)
    eq = t_nonexpansive_from_runs(*run_many(phi_d, g_d, [u1, u2],
                                            SchemeParams(t_end=2.0, snapshot_times=(0.0, 2.0))))
    eq_gap = abs(eq.observed - eq.extra["initial_distance"])
    ok = not failures and eq_gap <= 1e-12
    report(8, "profile map non-expansive", ok,
           f"failures={len(failures)} equality_gap={eq_gap:.2e}")
    assert not failures
    assert eq_gap <= 1e-12


def test_criterion_9_determinism(tmp_path):
    """Same configs and seed twice: byte-identical checks.json and summary.json.

    Uses the shipped quick bundle, which exercises every check type and every
    output writer (series CSVs, profile CSV, pair artifacts).
    """
    bundle = Path(__file__).resolve().parent.parent / "configs" / "quick_suite.json"
    cfgs = parse_config(bundle.read_bytes())
    run_suite(cfgs, tmp_path / "one")
    run_suite(cfgs, tmp_path / "two")
    identical = []
    files = ["summary.json"] + [f"{c.name}/checks.json" for c in cfgs]
    for rel in files:
        a = (tmp_path / "one" / rel).read_bytes()
        b = (tmp_path / "two" / rel).read_bytes()
        identical.append(a == b)
    ok = all(identical)
    report(9, "byte-identical determinism", ok,
           f"{sum(identical)}/{len(identical)} files identical")
    assert all(identical)
