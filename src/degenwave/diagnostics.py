"""Named checks turning the solver output into pass/fail theory conformance.

Every check returns a :class:`CheckReport` whose ``passed`` flag is, by
construction, equivalent to ``observed <= threshold``. Checks never mutate
their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import grid as gridmod
from .errors import UnsupportedTestFnError
from .grid import Field, constant_field, l1_distance, shift
from .solver import RunResult
from .structure import StructureReport

# Sup norms of the standard bump exp(1 - 1/(1 - s^2)) and its derivatives,
# slightly rounded up so they stay valid upper bounds.
BUMP_SUP = 1.0
BUMP_SUP_D1 = 2.1703570858
BUMP_SUP_D2 = 21.0658821190

DISTANCE_MONOTONE_TOL = 1e-10
CONSERVATION_TOL = 1e-10
DOMINATION_TOL = 1e-10
ENTROPY_COMPARISON_CONSTANT = 10.0
ENTROPY_K_COUNT = 9  # entropy constants of default_k_values
_BLOCK_CELLS = 1 << 14  # snapshot cells per stacked row block: 128 KiB of float64


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named check; passed is observed <= threshold always."""

    name: str
    observed: float
    threshold: float
    series: tuple[tuple[float, float], ...] | None = None
    extra: dict | None = None

    @property
    def passed(self) -> bool:
        return self.observed <= self.threshold

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "passed": self.passed,
            "observed": self.observed,
            "threshold": self.threshold,
        }
        if self.extra is not None:
            d["extra"] = self.extra
        return d


def _bump(s: np.ndarray, top: int) -> list[np.ndarray]:
    """The standard bump exp(1 - 1/(1 - s^2)) on (-1, 1) and its derivatives up to
    order ``top`` (at most 2), all from one ``exp`` pass. ``math.exp`` keeps the
    bytes off numpy's SIMD dispatch, by which ``np.exp`` rounds per CPU."""
    m = np.abs(s) < 1.0
    sm = s[m]
    w = 1.0 - sm ** 2
    b = np.fromiter(map(math.exp, (1.0 - 1.0 / w).tolist()), float, w.size)
    parts = [b]
    if top >= 1:
        parts.append(b * (-2.0 * sm / w ** 2))
    if top >= 2:
        parts.append(b * (4.0 * sm ** 2 / w ** 4 - 2.0 / w ** 2 - 8.0 * sm ** 2 / w ** 3))
    outs = []
    for part in parts:
        out = np.zeros_like(s)
        out[m] = part
        outs.append(out)
    return outs


@dataclass(frozen=True)
class TestBump:
    """Smooth nonnegative space-time test function, periodic in space.

    ``f(t, x) = B((t - t_center)/sigma_t) * sum_m B((x - x_center + m)/sigma_x)``
    with B the standard bump on (-1, 1) and 0 < sigma_x <= 1/2. All derivatives
    are analytic; the C2 norm has a closed-form upper bound from the bump constants.
    """

    t_center: float
    x_center: float
    sigma_t: float
    sigma_x: float

    def __post_init__(self):
        if self.sigma_t <= 0.0 or self.sigma_x <= 0.0:
            raise ValueError("bump widths must be positive")
        if self.sigma_x > 0.5:
            raise ValueError("the bump width sigma_x must be at most half the period")

    def _space(self, x: np.ndarray, top: int) -> list[np.ndarray]:
        """The spatial factor and its derivatives up to order ``top``: one
        ``_bump`` pass per periodic shift. For ``x`` and ``x_center`` on [0, 1), a
        width of at most half the period leaves no other shift within reach."""
        accs = [np.zeros_like(x) for _ in range(top + 1)]
        for m in (-1, 0, 1):
            parts = _bump((x - self.x_center + m) / self.sigma_x, top)
            accs = [acc + part for acc, part in zip(accs, parts)]
        return [acc / self.sigma_x ** deriv for deriv, acc in enumerate(accs)]

    def _time(self, t: np.ndarray, top: int) -> list[np.ndarray]:
        """The time factor and its derivatives up to order ``top``, from one ``_bump`` pass."""
        parts = _bump((t - self.t_center) / self.sigma_t, top)
        return [part / self.sigma_t ** deriv for deriv, part in enumerate(parts)]

    def _product(self, t, x, t_deriv: int, x_deriv: int):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        return self._time(t, t_deriv)[t_deriv] * self._space(x, x_deriv)[x_deriv]

    def value(self, t, x):
        return self._product(t, x, 0, 0)

    def d_dt(self, t, x):
        return self._product(t, x, 1, 0)

    def d_dx(self, t, x):
        return self._product(t, x, 0, 1)

    def d_dxx(self, t, x):
        return self._product(t, x, 0, 2)

    def c2_norm(self) -> float:
        """Upper bound for the sup of f and its derivatives up to order two.

        Raises UnsupportedTestFnError, naming the narrower width, when the
        bound is not finite."""
        st, sx = self.sigma_t, self.sigma_x
        name, width = min(("sigma_t", st), ("sigma_x", sx), key=lambda p: p[1])
        bound = math.inf
        if width * width > 0.0:  # else a term below divides by zero
            bound = max(
                BUMP_SUP,
                BUMP_SUP_D1 / st,
                BUMP_SUP_D1 / sx,
                BUMP_SUP_D2 / (st * st),
                BUMP_SUP_D1 * BUMP_SUP_D1 / (st * sx),
                BUMP_SUP_D2 / (sx * sx),
            )
        if not math.isfinite(bound):
            raise UnsupportedTestFnError(
                f"bump width {name} = {width!r} is too narrow: its C2 bound is not finite")
        return bound

    def require_supported_inside(self, t_end: float) -> None:
        if self.t_center - self.sigma_t <= 0.0:
            raise UnsupportedTestFnError(
                "bump support touches t=0 (the initial layer is excluded)"
            )
        if self.t_center + self.sigma_t >= t_end:
            raise UnsupportedTestFnError("bump support reaches past the run horizon")


def default_bumps(t_end: float) -> list[TestBump]:
    """Six bumps tiling the interior of (0, t_end) x circle."""
    sigma_t = 0.25 * t_end
    sigma_x = 0.3
    return [
        TestBump(f * t_end, x0, sigma_t, sigma_x)
        for f in (0.35, 0.65)
        for x0 in (1.0 / 6.0, 0.5, 5.0 / 6.0)
    ]


def default_k_values(u0: Field) -> np.ndarray:
    """``ENTROPY_K_COUNT`` equispaced entropy constants over the data range plus 10% margin."""
    lo, hi = float(u0.values.min()), float(u0.values.max())
    margin = 0.1 * max(hi - lo, 1.0 if hi == lo else 0.0)
    return np.linspace(lo - margin, hi + margin, ENTROPY_K_COUNT)


def _time_weights(times: np.ndarray) -> np.ndarray:
    w = np.zeros_like(times)
    dt = np.diff(times)
    w[:-1] += 0.5 * dt
    w[1:] += 0.5 * dt
    return w


def snapshot_spacing(run_result: RunResult) -> float:
    """Coarsest gap in the requested snapshot schedule (with 0 and t_end added)."""
    params = run_result.params
    pts = sorted({0.0, params.t_end, *params.snapshot_times})
    if len(pts) < 2:
        return 0.0
    return max(b - a for a, b in zip(pts, pts[1:]))


def _bump_integrals(run_result: RunResult, bumps, entries) -> list[list[float]]:
    """Quadrature of A f_t + S f_x + G f_xx for every (bump, entry) pair.

    With ``phi, g`` the run's model, an entry k integrates A, S, G = |u-k|,
    sign(u-k)(phi(u)-phi(k)), |g(u)-g(k)|; the entry None integrates
    A, S, G = u, phi(u), g(u). The quadrature is the trapezoid rule in time,
    summed by ``grid.integral``, of midpoint (numpy pairwise) sums in space.

    Rows go in blocks of ``_BLOCK_CELLS`` cells, one row at least; A, S and
    G are built once per block and entry, and a bump skips the rows outside
    its time support (all +0.0 there), so every value equals the
    full-matrix formula's bitwise. Each block's arrays are written into
    buffers made once per call, and a bump's ``f_xx`` block only when a
    pair uses G.

    When ``g(U)`` is one finite value ``g(k)`` over a block, G is +0.0 in
    every cell and ``G f_xx`` a zero, wherever ``f_xx`` is finite; then the
    rows skip G. Adding a zero changes only the sign of a zero, so a row
    sum can differ only when it is 0, and such a sum is recomputed with the
    +0.0 term added.
    """
    times = run_result.times
    for b in bumps:
        b.require_supported_inside(times[-1])
    if not bumps:
        return []
    centers = run_result.grid.cell_centers()
    dx = run_result.grid.dx
    phi, g = run_result.phi, run_result.g
    consts = [None if k is None else (k, phi.eval(k), g.eval(k)) for k in entries]
    factors = []
    for b in bumps:
        # the rows where the time factor is live; every other row sums to +0.0
        live = np.flatnonzero(np.abs((times - b.t_center) / b.sigma_t) < 1.0)
        lo, hi = (int(live[0]), int(live[-1]) + 1) if live.size else (0, 0)
        factors.append((lo, hi, *b._time(times, 1), *b._space(centers, 2)))
    # f_xx = t0 * s2, and the bump's time factor t0 lies in [0, 1]: finite where s2 is
    finite_fxx = all(np.isfinite(f[-1]).all() for f in factors)
    spatial = [[np.zeros(len(times)) for _ in entries] for _ in bumps]
    block = max(1, _BLOCK_CELLS // len(centers))
    # one block's arrays, and each bump's f_t, f_x and f_xx over the block
    shape = (min(block, len(times)), len(centers))
    d_buf, A_buf, S_buf, G_buf, rows_buf, term_buf = (np.empty(shape) for _ in range(6))
    f_bufs = [tuple(np.empty(shape) for _ in range(3)) for _ in bumps]
    for r0 in range(0, len(times), block):
        r1 = min(r0 + block, len(times))
        live_blocks = []
        for bi, ((lo, hi, t0, t1, s0, s1, s2), bufs) in enumerate(zip(factors, f_bufs)):
            a, z = max(lo, r0), min(hi, r1)
            if a < z:
                ft, fx, fxx = (buf[:z - a] for buf in bufs)
                np.multiply(t1[a:z, None], s0, out=ft)
                np.multiply(t0[a:z, None], s1, out=fx)
                live_blocks.append((bi, slice(a - r0, z - r0), slice(a, z), t0[a:z], s2,
                                    ft, fx, fxx))
        if not live_blocks:
            continue
        h = r1 - r0
        U = run_result.values[r0:r1]
        phi_u, g_u = phi.eval(U), g.eval(U)
        g_lo, g_hi = g_u.min(), g_u.max()   # NaN if any g(U) is
        flat = [const is not None and finite_fxx and g_lo == g_hi == const[2]
                and math.isfinite(const[2]) for const in consts]
        if not all(flat):
            for *_, t0, s2, _, _, fxx in live_blocks:
                np.multiply(t0[:, None], s2, out=fxx)
        for ki, const in enumerate(consts):
            if const is None:
                A, S, G = U, phi_u, g_u
            else:
                k, phi_k, g_k = const
                dk = np.subtract(U, k, out=d_buf[:h])
                A = np.abs(dk, out=A_buf[:h])
                S = np.multiply(np.sign(dk, out=dk), np.subtract(phi_u, phi_k, out=S_buf[:h]),
                                out=S_buf[:h])
                G = None if flat[ki] else \
                    np.abs(np.subtract(g_u, g_k, out=G_buf[:h]), out=G_buf[:h])
            for bi, local, rows_at, t0, s2, ft, fx, fxx in live_blocks:
                rows = np.multiply(A[local], ft, out=rows_buf[:len(ft)])
                rows += np.multiply(S[local], fx, out=term_buf[:len(ft)])
                if G is not None:
                    rows += np.multiply(G[local], fxx, out=term_buf[:len(ft)])
                sums = rows.sum(axis=1)
                if G is None:
                    zero = sums == 0.0
                    if zero.any():  # the rows of f_xx = t0 * s2 that the sums need
                        sums[zero] = (rows[zero] + 0.0 * (t0[zero, None] * s2)).sum(axis=1)
                spatial[bi][ki][rows_at] = sums * dx
    w = _time_weights(times)
    return [[gridmod.integral(w * s, 1.0) for s in row] for row in spatial]


def _row_integrals(run_result: RunResult, fn, first: int = 0) -> list[float]:
    """``grid.integral`` of ``fn(U, r0)`` over each row, for the rows
    ``first, first+1, ...`` of the run's values taken ``_BLOCK_CELLS`` cells
    at a time (``U`` holds rows r0, r0+1, ... of that tail).

    With ``fn`` elementwise, each value equals the grid function that sums
    the same map over one field (``mean``, ``l1_distance``, ...) bitwise.
    """
    values, dx = run_result.values[first:], run_result.grid.dx
    s, n = values.shape
    block = max(1, _BLOCK_CELLS // n)
    out = []
    for r0 in range(0, s, block):
        out.extend(gridmod.integral(fn(values[r0:r0 + block], r0), dx))
    return out


def weak_form_residual(run_result: RunResult, bump: TestBump) -> float:
    """Quadrature of u f_t + phi(u) f_x + g(u) f_xx; zero for exact weak solutions."""
    return _bump_integrals(run_result, [bump], [None])[0][0]


def entropy_residual(run_result: RunResult, k_values=None, test_fns=None) -> CheckReport:
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
    ks = [float(k) for k in k_values]
    budget_scale = ENTROPY_COMPARISON_CONSTANT * (run_result.grid.dx
                                                  + snapshot_spacing(run_result))
    budgets = [[budget_scale * c2 * (1.0 + abs(k)) for k in ks]
               for c2 in [b.c2_norm() for b in test_fns]]
    for bi, row in enumerate(budgets):
        for k, budget in zip(ks, row):
            if not math.isfinite(budget):  # every violation would read 0: no verdict
                raise UnsupportedTestFnError(
                    f"the entropy budget of bump {bi} at k = {k!r} is not finite")
    # terms that model coefficients drive can overflow; such a residual reads NaN below
    with np.errstate(over="ignore", invalid="ignore"):
        values = _bump_integrals(run_result, test_fns, ks)
    rows_extra = []
    worst = -math.inf
    for bi, row in enumerate(budgets):
        for k, value, budget in zip(ks, values[bi], row):
            violation = -value / budget
            worst = max(worst, math.inf if math.isnan(violation) else violation)  # NaN fails
            rows_extra.append({"k": k, "bump": bi, "residual": value, "budget": budget})
    return CheckReport("entropy_residual", observed=max(0.0, worst), threshold=1.0,
                       extra={"pairs": rows_extra})


def _matched_times(run_a: RunResult, run_b: RunResult) -> np.ndarray:
    ta = run_a.times
    tb = run_b.times
    if len(ta) != len(tb) or np.max(np.abs(ta - tb)) > 1e-9 * max(1.0, float(ta[-1])):
        raise ValueError("runs do not share a snapshot schedule")
    gridmod._require_same_grid(run_a.initial, run_b.initial)
    return ta


def contraction_monitor(run_a: RunResult, run_b: RunResult) -> CheckReport:
    """Ordered and absolute L1 distances must never increase along the run."""
    times = _matched_times(run_a, run_b)
    B = run_b.values
    pp_ab = _row_integrals(run_a, lambda U, r0: np.maximum(U - B[r0:r0 + len(U)], 0.0))
    pp_ba = _row_integrals(run_a, lambda U, r0: np.maximum(B[r0:r0 + len(U)] - U, 0.0))
    l1 = _row_integrals(run_a, lambda U, r0: np.abs(U - B[r0:r0 + len(U)]))
    worst = 0.0
    for series in (pp_ab, pp_ba, l1):
        for prev, nxt in zip(series, series[1:]):
            worst = max(worst, nxt - prev)
    return CheckReport(
        "contraction", observed=worst, threshold=DISTANCE_MONOTONE_TOL,
        series=tuple(zip(times.tolist(), l1)),
        extra={"positive_part_final": pp_ab[-1], "l1_final": l1[-1]},
    )


def conservation_monitor(run_result: RunResult) -> CheckReport:
    """Spatial mean of every snapshot must match the initial mean."""
    means = _row_integrals(run_result, lambda U, r0: U)
    reference = means[0]  # the initial mean
    series = [(t, abs(m - reference)) for t, m in zip(run_result.times.tolist(), means)]
    observed = max(v for _, v in series)
    return CheckReport("conservation", observed=observed,
                       threshold=CONSERVATION_TOL, series=tuple(series))


def decay_metric(run_result: RunResult, threshold: float | None = None) -> CheckReport:
    """L1 distance to the constant mean; passes when the final value is small."""
    target = run_result.structure.mean
    dists = _row_integrals(run_result, lambda U, r0: np.abs(U - target))
    series = tuple(zip(run_result.times.tolist(), dists))
    if threshold is None:
        threshold = 0.01 * series[0][1]
    return CheckReport("decay", observed=series[-1][1], threshold=float(threshold),
                       series=series)


def cutoff_convergence(run_result: RunResult, threshold: float | None = None) -> CheckReport:
    """L1 gap between the solution and its clamp into the plateau band."""
    st = run_result.structure
    lo, hi = st.plateau_lo, st.plateau_hi
    series = tuple(zip(run_result.times.tolist(), _row_integrals(
        run_result, lambda U, r0: np.abs(U - np.clip(U, lo, hi)))))
    if threshold is None:
        threshold = 0.02 * (series[0][1] + run_result.grid.dx)
    return CheckReport("cutoff_convergence", observed=series[-1][1],
                       threshold=float(threshold), series=series,
                       extra={"band_lo": lo, "band_hi": hi})


def squeeze_companions(u0: Field, structure: StructureReport | None,
                       shift_upper: float | None = None,
                       shift_lower: float | None = None) -> tuple[tuple[float, Field], ...]:
    """``(shift, data)`` of the upper and the lower companion of ``squeeze_bounds``.

    The data are ``u0 + shift``, a ValueError (``Field``) where they leave
    [-MAX_ABS, MAX_ABS]. A shift left None is the distance from the mean to
    that end of ``structure``'s affine interval; ``structure`` (the analysis
    of ``u0``) is read only then.
    """
    su = (structure.affine_hi - structure.mean) if shift_upper is None else float(shift_upper)
    sl = (structure.affine_lo - structure.mean) if shift_lower is None else float(shift_lower)
    if su < 0.0 or sl > 0.0:
        raise ValueError("shift_upper must be >= 0 and shift_lower <= 0")
    return (su, Field(u0.grid, u0.values + su)), (sl, Field(u0.grid, u0.values + sl))


def squeeze_bounds(base: RunResult, upper: tuple[float, RunResult],
                   lower: tuple[float, RunResult]) -> CheckReport:
    """Exceedance above/below the affine band is dominated by shifted comparison runs.

    ``upper`` and ``lower`` are ``(shift, run)`` of the companions from
    ``squeeze_companions``, stepped at the time step of ``base`` so the
    discrete comparison principle applies exactly; the reported violation is
    how far the integrated exceedance of ``base`` over ``mean + shift`` rises
    above the companion's. The companions are never analyzed, so the model
    needs to cover their data ranges only.
    """
    (su, upper_run), (sl, lower_run) = upper, lower
    if not upper_run.dt == base.dt == lower_run.dt:
        raise ValueError("the companion runs do not share the time step of the base run")
    _matched_times(base, upper_run)
    _matched_times(base, lower_run)
    st = base.structure
    level_hi, level_lo = st.mean + su, st.mean + sl
    above = lambda U, r0: np.maximum(U - level_hi, 0.0)
    below = lambda U, r0: np.maximum(level_lo - U, 0.0)
    exceed_up, dominate_up, exceed_lo, dominate_lo = (
        _row_integrals(r, fn)
        for r, fn in ((base, above), (upper_run, above), (base, below), (lower_run, below)))
    series = [(t, max(eu - du, el - dl, 0.0)) for t, eu, du, el, dl
              in zip(base.times.tolist(), exceed_up, dominate_up, exceed_lo, dominate_lo)]
    observed = max(v for _, v in series)
    return CheckReport(
        "squeeze_bounds", observed=observed, threshold=DOMINATION_TOL,
        series=tuple(series),
        extra={"upper_level": level_hi, "lower_level": level_lo,
               "shared_dt": base.dt,
               "exceed_upper": exceed_up, "dominate_upper": dominate_up,
               "exceed_lower": exceed_lo, "dominate_lower": dominate_lo},
    )


def traveling_profile(run_result: RunResult) -> Field:
    """The traveling-wave profile of a run: the final snapshot shifted back by
    the integer cell shift nearest to speed * t_final * n_cells, or the
    constant mean for a degenerate speed."""
    st = run_result.structure
    grid = run_result.grid
    if st.degenerate_speed:
        return constant_field(grid, st.mean)
    t_final = run_result.times[-1]
    return shift(run_result.final, -int(round(st.speed * t_final * grid.n_cells)))


def extract_profile(run_result: RunResult, t_lo: float | None = None,
                    threshold: float | None = None) -> CheckReport:
    """L1 gap between each tail snapshot and the translated ``traveling_profile``.

    The series holds, for each snapshot at time t, the L1 distance to the
    profile shifted forward by the integer cell shift nearest to
    speed * t * n_cells; observed is its largest entry. For a nondegenerate
    speed the final entry vanishes by construction, so the check looks at
    the whole tail. The tail covers the snapshots at or after ``t_lo``
    (default ``t_end / 2``), and always the final one; a ``t_lo`` past
    ``t_end`` is a ValueError.
    """
    t_end = run_result.params.t_end
    t_lo = 0.5 * t_end if t_lo is None else t_lo
    if t_lo > t_end:
        raise ValueError(f"t_lo={t_lo!r} lies past the run horizon t_end={t_end!r}")
    # the final snapshot may land a rounding step before t_end; it still counts
    first = int(np.searchsorted(run_result.times[:-1], t_lo))
    times = run_result.times[first:].tolist()
    st = run_result.structure
    u0 = run_result.initial
    n = u0.grid.n_cells
    if threshold is None:
        threshold = (0.02 * gridmod.l1_to_constant(u0, st.mean)
                     + 2.0 * u0.grid.dx * gridmod.total_variation(u0))
    profile = traveling_profile(run_result)
    # a constant profile is its own shift, whatever its nominal speed
    speed = 0.0 if st.degenerate_speed else st.speed
    shifts = [int(round(speed * t * n)) for t in times]
    dists = _row_integrals(run_result, lambda U, r0: np.abs(U - np.stack(
        [np.roll(profile.values, s) for s in shifts[r0:r0 + len(U)]])), first)
    history = tuple(zip(times, dists))
    observed = max(v for _, v in history)
    threshold = float(threshold)
    return CheckReport("profile", observed=observed, threshold=threshold, series=history,
                       extra={"speed_used": st.speed, "converged": observed <= threshold})


def t_nonexpansive_from_runs(run_a: RunResult, run_b: RunResult) -> CheckReport:
    """Profile distance must not exceed the initial L1 distance d0 by more than
    ``0.05 * d0 + 4 * dx``.

    When both runs share a nondegenerate affine interval (hence one speed)
    the profiles compare directly in L1; otherwise the profiles separate and
    the distance reduces to the gap between the means.
    """
    sa = run_a.structure
    sb = run_b.structure
    scale = max(1.0, abs(sa.affine_lo), abs(sa.affine_hi),
                abs(sb.affine_lo), abs(sb.affine_hi))
    same_band = (not sa.degenerate_speed and not sb.degenerate_speed
                 and abs(sa.affine_lo - sb.affine_lo) <= 1e-9 * scale
                 and abs(sa.affine_hi - sb.affine_hi) <= 1e-9 * scale)
    if same_band:
        observed = l1_distance(traveling_profile(run_a), traveling_profile(run_b))
        branch = "profile_l1"
    else:
        # different speeds: the profile ranges cannot overlap, so the gap
        # between the (conserved) means is the exact profile distance
        observed, branch = abs(sa.mean - sb.mean), "mean_gap"
    initial_distance = l1_distance(run_a.initial, run_b.initial)
    tolerance = 0.05 * initial_distance + 4.0 * run_a.initial.grid.dx
    threshold = initial_distance + tolerance
    return CheckReport(
        "t_nonexpansive", observed=observed, threshold=threshold,
        extra={"initial_distance": initial_distance, "branch": branch},
    )
