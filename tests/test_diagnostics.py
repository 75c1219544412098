import contextlib
import functools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import randmodels as rm
from degenwave import (
    Field,
    Grid,
    GridMismatchError,
    OutOfRangeError,
    SchemeParams,
    TestBump,
    UnsupportedTestFnError,
    analyze,
    burgers,
    conservation_monitor,
    constant,
    constant_field,
    contraction_monitor,
    cutoff,
    cutoff_convergence,
    decay_metric,
    entropy_residual,
    extract_profile,
    from_breakpoints,
    identity,
    l1_distance,
    l1_to_constant,
    linear,
    max_stable_dt,
    mean,
    monotone_split,
    positive_part_distance,
    run,
    run_many,
    shift,
    squeeze_bounds,
    squeeze_companions,
    step,
    t_nonexpansive_from_runs,
    total_variation,
    traveling_profile,
    weak_form_residual,
)
from degenwave import diagnostics
from degenwave.diagnostics import snapshot_spacing
from degenwave.grid import MAX_ABS
from degenwave.solver import RunResult, _apply_step, _kernel_table, _Workspace
from entropy_reference import _quadrature
from exact_reference import exact_step, jumps


def sine_field(grid, base, amp, freq=1, phase=0.0):
    return Field(grid, base + amp * np.sin(2 * np.pi * freq * grid.cell_centers() + phase))


def dx_schedule(n, t_end):
    return tuple(j / n for j in range(int(round(t_end * n)) + 1))


def burgers_run(n=128, t_end=1.5, base=0.5, amp=0.25):
    grid = Grid(n)
    u0 = sine_field(grid, base, amp)
    phi, g = burgers(-1, 1), constant(0.0, -1, 1)
    res = run(phi, g, u0, SchemeParams(t_end=t_end, snapshot_times=dx_schedule(n, t_end)))
    return phi, g, res


def squeeze(res, shift_upper=None, shift_lower=None):
    """``squeeze_bounds`` of ``res``'s data and its companions, stepped by one ``run_many``."""
    (su, upper), (sl, lower) = squeeze_companions(res.initial, res.structure,
                                                  shift_upper, shift_lower)
    base, up, lo = run_many(res.phi, res.g, [res.initial, upper, lower], res.params)
    return squeeze_bounds(base, (su, up), (sl, lo))


def transport_run(n=64, t_end=0.5, slope=2.0):
    grid = Grid(n)
    u0 = sine_field(grid, 0.5, 0.25)
    phi = linear(slope, 0.0, -2, 2)
    g = constant(0.3, -2, 2)
    res = run(phi, g, u0, SchemeParams(t_end=t_end, cfl_safety=1.0,
                                       snapshot_times=tuple(np.linspace(0, t_end, 9))))
    return phi, g, res


class TestBumpFamily:
    def test_derivatives_match_finite_differences(self):
        b = TestBump(t_center=0.5, x_center=0.3, sigma_t=0.3, sigma_x=0.25)
        ts = np.array([0.3, 0.5, 0.6])
        xs = np.array([0.15, 0.3, 0.42, 0.9])
        h = 1e-6
        for t in ts:
            ft = (b.value(t + h, xs) - b.value(t - h, xs)) / (2 * h)
            assert b.d_dt(t, xs) == pytest.approx(ft, abs=1e-4)
            fx = (b.value(t, xs + h) - b.value(t, xs - h)) / (2 * h)
            assert b.d_dx(t, xs) == pytest.approx(fx, abs=1e-4)
            fxx = (b.value(t, xs + h) - 2 * b.value(t, xs) + b.value(t, xs - h)) / h ** 2
            assert b.d_dxx(t, xs) == pytest.approx(fxx, abs=1e-2)

    def test_nonnegative_and_periodic(self):
        b = TestBump(0.5, 0.9, 0.3, 0.4)
        xs = np.linspace(0, 1, 301)
        vals = b.value(0.5, xs)
        assert np.all(vals >= 0.0)
        assert b.value(0.45, 0.0) == pytest.approx(b.value(0.45, 1.0), abs=1e-15)

    def test_c2_norm_bounds_sampled_derivatives(self):
        b = TestBump(0.5, 0.3, 0.35, 0.22)
        bound = b.c2_norm()
        ts = np.linspace(0.16, 0.84, 120)
        xs = np.linspace(0, 1, 400)
        for t in ts:
            assert np.max(np.abs(b.value(t, xs))) <= bound + 1e-12
            assert np.max(np.abs(b.d_dt(t, xs))) <= bound + 1e-12
            assert np.max(np.abs(b.d_dx(t, xs))) <= bound + 1e-12
            assert np.max(np.abs(b.d_dxx(t, xs))) <= bound + 1e-12

    def test_support_validation(self):
        with pytest.raises(UnsupportedTestFnError):
            TestBump(0.1, 0.5, 0.2, 0.3).require_supported_inside(1.0)
        with pytest.raises(UnsupportedTestFnError):
            TestBump(0.9, 0.5, 0.2, 0.3).require_supported_inside(1.0)
        TestBump(0.5, 0.5, 0.2, 0.3).require_supported_inside(1.0)


class TestEntropyResidual:
    def test_constant_run_is_quadrature_noise(self):
        grid = Grid(128)
        phi, g = burgers(-1, 1), constant(0.0, -1, 1)
        res = run(phi, g, constant_field(grid, 0.4),
                  SchemeParams(t_end=1.0, snapshot_times=dx_schedule(128, 1.0)))
        rep = entropy_residual(res)
        assert rep.passed
        assert max(abs(p["residual"]) for p in rep.extra["pairs"]) <= 1e-4

    def test_outside_constant_reduces_to_weak_form(self):
        phi, g, res = burgers_run(n=100, t_end=1.0)
        bump = TestBump(0.5, 0.4, 0.3, 0.3)
        times = res.times[:, None]
        centers = res.initial.grid.cell_centers()[None, :]
        for k, sgn in ((0.9, -1.0), (-0.9, 1.0)):
            rep = entropy_residual(res, k_values=[k], test_fns=[bump])
            residual = rep.extra["pairs"][0]["residual"]
            weak = weak_form_residual(res, bump)
            # quadrature of the pure-constant bracket k f_t + phi(k) f_x + g(k) f_xx
            bracket = _quadrature(res, (k * bump.d_dt(times, centers)
                                        + phi.eval(k) * bump.d_dx(times, centers)
                                        + g.eval(k) * bump.d_dxx(times, centers)))
            assert residual == pytest.approx(sgn * (weak - bracket), abs=1e-10)

    def test_burgers_shock_passes_and_produces_entropy(self):
        phi, g, res = burgers_run(n=200)
        rep = entropy_residual(res)
        assert rep.passed
        best = max(
            entropy_residual(res, k_values=[0.5],
                             test_fns=[TestBump(1.0, x0, 0.35, 0.25)]
                             ).extra["pairs"][0]["residual"]
            for x0 in (0.0, 0.25, 0.5, 0.75)
        )
        assert best > 1e-3

    def test_budget_halves_under_refinement(self):
        budgets = {}
        for n in (64, 128):
            phi, g, res = burgers_run(n=n, t_end=1.0)
            rep = entropy_residual(res)
            assert rep.passed
            budgets[n] = rep.extra["pairs"][0]["budget"]
        assert budgets[128] <= 0.5 * budgets[64] * (1.0 + 1e-9)

    def test_default_constants_of_data_spanning_the_float_range(self):
        # data spanning the value range: max - min = 2^65 and its margin stay
        # finite, and the constants equal the halved range's, doubled, bit for bit
        with pytest.raises(ValueError):
            Field(Grid(8), np.array([1e308, -1e308] * 4))
        u0 = Field(Grid(8), np.array([MAX_ABS, -MAX_ABS] * 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ks = diagnostics.default_k_values(u0)
        assert (np.diff(ks) > 0).all() and (ks[0], ks[-1]) == (-1.2 * MAX_ABS, 1.2 * MAX_ABS)
        half = 0.5 * MAX_ABS
        assert ks.tobytes() == (2.0 * np.linspace(-1.2 * half, 1.2 * half, 9)).tobytes()

    def test_default_constants_are_the_unscaled_formula_bitwise(self):
        rng = np.random.default_rng(5)
        for a, b in [(0.3, 0.3), (-2.0, 5.0), *rng.uniform(-1e3, 1e3, (40, 2)).tolist()]:
            u0 = Field(Grid(4), np.array([a, b, a, b]))
            lo, hi = min(a, b), max(a, b)
            margin = 0.1 * max(hi - lo, 1.0 if hi == lo else 0.0)
            want = np.linspace(lo - margin, hi + margin, diagnostics.ENTROPY_K_COUNT)
            assert diagnostics.default_k_values(u0).tobytes() == want.tobytes()

    def test_rejects_bump_touching_initial_time(self):
        phi, g, res = burgers_run(n=64, t_end=1.0)
        with pytest.raises(UnsupportedTestFnError):
            entropy_residual(res, test_fns=[TestBump(0.05, 0.5, 0.1, 0.2)])


class TestMonitors:
    def test_contraction_identical_runs(self):
        phi, g, res = burgers_run(n=64, t_end=0.5)
        rep = contraction_monitor(res, res)
        assert rep.passed
        assert all(v == 0.0 for _, v in rep.series)

    def test_contraction_ordered_pair_stays_ordered(self):
        grid = Grid(64)
        phi, g = burgers(-1, 1), constant(0.0, -1, 1)
        params = SchemeParams(t_end=0.5, snapshot_times=tuple(np.linspace(0, 0.5, 26)))
        lo_run, hi_run = run_many(phi, g, [sine_field(grid, 0.4, 0.2),
                                           sine_field(grid, 0.55, 0.2)], params)
        rep = contraction_monitor(lo_run, hi_run)
        assert rep.passed
        for a, b in zip(lo_run.values, hi_run.values):
            assert positive_part_distance(Field(grid, a), Field(grid, b)) <= 1e-15

    def test_contraction_shifted_burgers_pair(self):
        grid = Grid(96)
        phi, g = burgers(-1, 1), constant(0.0, -1, 1)
        params = SchemeParams(t_end=1.0, snapshot_times=tuple(np.linspace(0, 1, 21)))
        ra, rb = run_many(phi, g, [sine_field(grid, 0.5, 0.25),
                                   sine_field(grid, 0.5, 0.25, phase=1.0)], params)
        assert contraction_monitor(ra, rb).passed

    def test_conservation(self):
        phi, g, res = burgers_run(n=128, t_end=1.0)
        rep = conservation_monitor(res)
        assert rep.passed
        assert rep.observed <= 1e-12

    def test_conservation_of_rows_whose_cell_sums_overflow(self):
        # 8 cells near 1e308 would sum past the float range: such data are out
        # of range. At the range's edge a block mixing large rows with ordinary
        # ones integrates each row as mean does, bit for bit
        grid = Grid(8)
        with pytest.raises(ValueError):
            sine_field(grid, 1e308, 1e300)
        wide = constant(0.0, -MAX_ABS, MAX_ABS)
        u0 = sine_field(grid, 0.5 * MAX_ABS, 0.25 * MAX_ABS)
        res = run(wide, wide, u0, SchemeParams(t_end=0.1, snapshot_times=(0.0, 0.05, 0.1)))
        rep = conservation_monitor(res)
        assert rep.passed and rep.observed == 0.0
        rows = np.vstack((res.values, res.values[:1] / MAX_ABS, -res.values[1:]))
        mixed = RunResult(np.column_stack((np.arange(len(rows)), rows)), grid, wide, wide,
                          0, 0.05, res.params)
        got = diagnostics._row_integrals(mixed, lambda U, r0: U)
        assert [v.hex() for v in got] == [mean(Field(grid, r)).hex() for r in rows]

    def test_mismatched_schedules_rejected(self):
        phi, g, res1 = burgers_run(n=64, t_end=0.5)
        _, _, res2 = burgers_run(n=64, t_end=1.0)
        with pytest.raises(ValueError):
            contraction_monitor(res1, res2)


class TestDecay:
    def test_constant_data_is_identically_zero(self):
        grid = Grid(32)
        res = run(burgers(-1, 1), constant(0.0, -1, 1), constant_field(grid, 0.5),
                  SchemeParams(t_end=0.5, snapshot_times=(0.0, 0.25, 0.5)))
        rep = decay_metric(res)
        assert rep.passed
        assert all(v == 0.0 for _, v in rep.series)

    def test_heat_diffusion_meets_default_threshold(self):
        grid = Grid(64)
        u0 = sine_field(grid, 0.5, 0.1)
        res = run(constant(0.0, -1, 1), identity(-1, 1), u0,
                  SchemeParams(t_end=0.2, snapshot_times=(0.0, 0.1, 0.2)))
        rep = decay_metric(res)
        assert rep.passed

    def test_pure_transport_does_not_decay(self):
        phi, g, res = transport_run(n=64, t_end=1.0)
        rep = decay_metric(res)
        assert not rep.passed
        u0 = res.initial
        floor = rep.series[0][1] - 2.0 * u0.grid.dx * total_variation(u0)
        assert rep.observed >= floor


class TestCutoffConvergence:
    def mixed_models(self, s=0.02):
        phi = from_breakpoints([-2, 0, 2], [[2.0, -1.0], [0.0, 2.0]])
        g = from_breakpoints([-2, 0.8, 2], [[0.0], [0.0, s]], monotone=True)
        return phi, g

    def test_data_inside_band_identically_zero(self):
        phi, g = self.mixed_models()
        grid = Grid(64)
        u0 = sine_field(grid, 0.5, 0.2)  # range [0.3, 0.7] inside [0, 0.8]
        res = run(phi, g, u0, SchemeParams(t_end=0.5,
                                           snapshot_times=(0.0, 0.25, 0.5)))
        rep = cutoff_convergence(res)
        assert rep.passed
        assert all(v == 0.0 for _, v in rep.series)

    def test_mixed_scenario_series_decays(self):
        phi, g = self.mixed_models()
        grid = Grid(96)
        u0 = sine_field(grid, 0.625, 0.325)
        res = run(phi, g, u0, SchemeParams(t_end=4.0,
                                           snapshot_times=tuple(np.linspace(0, 4, 9))))
        rep = cutoff_convergence(res)
        assert rep.extra["band_lo"] == 0.0 and rep.extra["band_hi"] == 0.8
        assert rep.passed

    @staticmethod
    @functools.lru_cache(maxsize=1)
    def plateau_cases():
        """``(rough, phi, g, u0, step limit)`` on n = 64 for 100 seeded random
        models, each with smooth and with rough data, kept where ``analyze`` gives
        a plateau that is a segment the data reach out of, and the limit is finite."""
        rng, grid, cases = np.random.default_rng(7), Grid(64), []
        for _ in range(100):
            phi, g = rm.random_flux(rng), rm.random_monotone_diffusion(rng)
            for rough in (False, True):
                u0 = Field(grid, rng.uniform(-1.9, 1.9, grid.n_cells) if rough
                           else rm.random_field(rng, grid, -1.9, 1.9).values)
                st = analyze(phi, g, u0)
                lo, hi = float(u0.values.min()), float(u0.values.max())
                limit = max_stable_dt(phi, g, lo, hi, grid.dx)
                if st.plateau_lo < st.plateau_hi and (lo < st.plateau_lo or hi > st.plateau_hi) \
                        and math.isfinite(limit):
                    cases.append((rough, phi, g, u0, limit))
        return cases

    @staticmethod
    def largest_rise(phi, g, u0, dt, steps=200):
        """The largest rise of the series E of ``cutoff_convergence`` from one step
        to the next, over ``steps`` steps of ``dt``."""
        res = run(phi, g, u0, SchemeParams(t_end=steps * dt, snapshot_times=tuple(
            k * dt for k in range(steps + 1))), _dt=dt)
        assert res.step_count == steps and len(res.times) == steps + 1
        gap = [e for _, e in cutoff_convergence(res).series]
        return max(e1 - e0 for e0, e1 in zip(gap, gap[1:]))

    @pytest.mark.parametrize("factor", [0.5, 1.0 - 1e-12])
    def test_gap_never_rises_at_a_stable_step(self, factor):
        # E(t) = ||u - clamp(u, a', b')||_1 is nonincreasing: the states with range
        # in the plateau are invariant (max principle), the clamp is their nearest
        # point in L1, and one step contracts L1
        cases = self.plateau_cases()
        assert len(cases) >= 20 and {rough for rough, *_ in cases} == {False, True}
        rises = [self.largest_rise(phi, g, u0, factor * limit)
                 for _, phi, g, u0, limit in cases]
        assert max(rises) <= 1e-10

    @staticmethod
    def exact_gap_rises(phi, g, u0, limit, steps=200, every=10):
        """Whether one exact step (``exact_step``, in rationals) raises the gap
        E = ||u - clamp(u, a', b')||_1, from each float state every ``every``
        steps of a run at (1 - 1e-12) x ``limit``, compared without rounding."""
        dt = (1.0 - 1e-12) * limit
        res = run(phi, g, u0, SchemeParams(t_end=steps * dt, snapshot_times=tuple(
            k * dt for k in range(0, steps, every))), _dt=dt)
        lo, hi = (Fraction(x) for x in (res.structure.plateau_lo, res.structure.plateau_hi))

        def gap(row):
            return sum(abs(v - min(max(v, lo), hi)) for v in map(Fraction, row))

        return [gap(exact_step(phi, g, row, u0.grid.dx, dt)) > gap(row)
                for row in res.values[:-1]]

    def joined_cases(self):
        """The plateau cases whose stored ``phi_up``, ``phi_down`` and ``g`` join
        exactly at every inner breakpoint, and ``mixed_band``'s model and data."""
        phi, g = self.mixed_models()
        u0 = sine_field(Grid(64), 0.625, 0.325)
        lo, hi = float(u0.values.min()), float(u0.values.max())
        mixed = (phi, g, u0, max_stable_dt(phi, g, lo, hi, u0.grid.dx))
        return [mixed] + [(phi, g, u0, limit) for _, phi, g, u0, limit in self.plateau_cases()
                          if not any(any(jumps(f)) for f in (*monotone_split(phi), g))]

    def test_exact_gap_never_rises_on_joined_models(self):
        # the exact scheme of a model whose stored pieces join is monotone at a
        # stable step, so E does not rise, not even by the float kernel's roundoff
        cases = self.joined_cases()
        assert len(cases) == 3
        for phi, g, u0, limit in cases:
            assert not any(self.exact_gap_rises(phi, g, u0, limit))
        # the counterexample below is left out for its stored jump
        phi = self.plateau_cases()[27][1]
        assert [float(j) for j in jumps(monotone_split(phi)[1])] == [-8.840611172246329e-17]

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the stored phi_down steps down by 8.8e-17 at its breakpoint, "
                              "so the exact scheme it defines is not monotone there")
    def test_exact_gap_never_rises_on_a_model_with_a_stored_jump(self):
        # PiecewiseFunction anchors each piece to the float-rounded end of the piece
        # before, and the jump that monotone_split(phi)'s phi_down keeps lets E rise
        _, phi, g, u0, limit = self.plateau_cases()[27]
        assert not any(self.exact_gap_rises(phi, g, u0, limit))

    def test_gap_rises_above_the_step_limit(self):
        # negative control: at 1.1 x the limit the scheme is not monotone, and on
        # rough data E rises; a run whose data leave the model is left out
        rises = []
        for rough, phi, g, u0, limit in self.plateau_cases():
            if rough:
                with contextlib.suppress(ValueError, RuntimeError):
                    rises.append(self.largest_rise(phi, g, u0, 1.1 * limit))
        assert max(rises) > 1e-10

    def test_degenerate_band_reduces_to_decay(self):
        phi, g, res = burgers_run(n=64, t_end=0.5)
        rep = cutoff_convergence(res)
        dec = decay_metric(res)
        for (t1, v1), (t2, v2) in zip(rep.series, dec.series):
            assert t1 == t2 and v1 == pytest.approx(v2, abs=1e-15)


def kernel_step(phi, g, values, dx, dt):
    """One ``_apply_step`` of ``values``, without ``step``'s guard on ``dt``."""
    ws = _Workspace(_kernel_table(phi, g), values, dx, dt)
    _apply_step(ws, *ws.bufs)
    return ws.bufs[1][1:-1]


class TestCellEntropy:
    """The discrete cell entropy inequality of a monotone conservative step H
    with H(k) = k (Crandall & Majda, Math. Comp. 34, 1980):
    ``|H(u)_j - k| <= H(u v k)_j - H(u ^ k)_j`` for every constant k."""

    @staticmethod
    def worst_violation(u0, stepper):
        """The largest ``|H(u) - k| - (H(u v k) - H(u ^ k))`` over the cells and
        9 constants k inside the data range, so that ``step`` admits both
        companions (their range lies in that of ``u0``)."""
        v = u0.values
        h, worst = stepper(v), -math.inf
        for k in np.linspace(v.min(), v.max(), 11)[1:-1]:
            gap = np.abs(h - k) - (stepper(np.maximum(v, k)) - stepper(np.minimum(v, k)))
            worst = max(worst, float(gap.max()))
        return worst

    @pytest.mark.parametrize("factor", [0.5, 1.0 - 1e-12])
    def test_holds_at_a_stable_step(self, factor):
        cases = TestCutoffConvergence.plateau_cases()
        assert {rough for rough, *_ in cases} == {False, True}
        for _, phi, g, u0, limit in cases:
            dt = factor * limit
            worst = self.worst_violation(
                u0, lambda v: step(phi, g, Field(u0.grid, v), dt).values)
            assert worst <= 4.0 * np.finfo(float).eps * max(1.0, float(np.abs(u0.values).max()))

    def test_fails_above_the_step_limit(self):
        # negative control: at 1.1 x the limit the update is not monotone, and
        # on rough data the inequality breaks by far more than roundoff
        worst = max(self.worst_violation(
            u0, lambda v: kernel_step(phi, g, v, u0.grid.dx, 1.1 * limit))
            for rough, phi, g, u0, limit in TestCutoffConvergence.plateau_cases() if rough)
        assert worst > 1e-3


class TestSqueezeBounds:
    def test_zero_shifts_trivial_domination(self):
        phi, g, res = burgers_run(n=64, t_end=0.5)
        rep = squeeze(res, shift_upper=0.0, shift_lower=0.0)
        assert rep.passed
        assert rep.observed == 0.0

    def test_mixed_scenario_domination(self):
        phi = from_breakpoints([-2, 0, 2], [[2.0, -1.0], [0.0, 2.0]])
        g = from_breakpoints([-2, 0.8, 2], [[0.0], [0.0, 0.02]], monotone=True)
        grid = Grid(96)
        u0 = sine_field(grid, 0.625, 0.325)
        res = run(phi, g, u0, SchemeParams(t_end=2.0,
                                           snapshot_times=tuple(np.linspace(0, 2, 9))))
        rep = squeeze(res)
        assert rep.passed
        assert rep.observed <= 1e-10

    def test_burgers_upper_comparison_decays_to_band_end(self):
        phi, g, res = burgers_run(n=96, t_end=8.0, base=0.4, amp=0.2)
        rep = squeeze(res, shift_upper=0.25, shift_lower=-0.25)
        assert rep.passed
        # the dominating series itself decays: the shifted companion converges
        # to the band end, squeezing the base run's exceedance with it
        dom = rep.extra["dominate_upper"]
        assert dom[-1] <= 0.2 * dom[0]
        assert rep.extra["exceed_upper"][-1] <= dom[-1] + 1e-10

    def test_companions_need_only_their_data_range(self):
        # phi covers [-1, 1.5]: the upper companion's data [0.549, 1.249] lie inside,
        # the symmetric window [-1.249, 1.249] that analyze would demand does not
        phi = from_breakpoints([-1, 0.9, 1.5], [[0.0, 1.0], [0.9, 3.0]])
        g = constant(0.0, -1, 1.5)
        res = run(phi, g, sine_field(Grid(64), 0.55, 0.35),
                  SchemeParams(t_end=0.5, snapshot_times=tuple(np.linspace(0, 0.5, 6))))
        rep = squeeze(res, shift_lower=-0.3)
        assert rep.passed and rep.observed == 0.0
        assert rep.extra["shared_dt"] < res.dt  # the base was re-run at the shared step
        # the default lower shift moves the lower companion to [-1.249, -0.55], out of
        # range: stepping it fails
        with pytest.raises(OutOfRangeError):
            squeeze(res)

    def test_runs_at_different_steps_raise(self):
        # the upper companion's larger data range needs a smaller step than the base
        phi, g, res = burgers_run(n=64, t_end=0.5)
        (su, upper), (sl, lower) = squeeze_companions(res.initial, None, 0.1, -0.1)
        up, lo = (run(phi, g, u, res.params) for u in (upper, lower))
        assert up.dt < res.dt
        with pytest.raises(ValueError, match="time step"):
            squeeze_bounds(res, (su, up), (sl, lo))


class TestProfiles:
    def test_pure_transport_profile_is_initial_data(self):
        phi, g, res = transport_run(n=64, t_end=0.5)
        rep = extract_profile(res, t_lo=0.0)
        assert rep.extra["speed_used"] == 2.0
        assert np.max(np.abs(traveling_profile(res).values - res.initial.values)) <= 1e-12
        assert max(v for _, v in rep.series) <= 1e-12
        assert rep.passed

    def test_profile_mean_matches_data_mean(self):
        phi, g, res = burgers_run(n=64, t_end=1.0)
        assert abs(mean(traveling_profile(res)) - mean(res.initial)) <= 1e-10

    def test_burgers_profile_converges_to_mean(self):
        phi, g, res = burgers_run(n=96, t_end=16.0)
        assert extract_profile(res, t_lo=12.0).passed
        assert np.max(np.abs(traveling_profile(res).values - 0.5)) <= 0.02

    def test_mixed_profile_range_in_plateau(self):
        phi = from_breakpoints([-2, 0, 2], [[2.0, -1.0], [0.0, 2.0]])
        g = from_breakpoints([-2, 0.8, 2], [[0.0], [0.0, 0.02]], monotone=True)
        grid = Grid(96)
        u0 = sine_field(grid, 0.625, 0.325)
        res = run(phi, g, u0, SchemeParams(t_end=4.0,
                                           snapshot_times=tuple(np.linspace(0, 4, 17))))
        profile = traveling_profile(res)
        assert profile.values.min() >= 0.0 - 0.02
        assert profile.values.max() <= 0.8 + 0.02
        assert abs(mean(profile) - mean(u0)) <= 1e-10

    def test_profile_window_past_t_end_is_rejected(self):
        phi, g, res = burgers_run(n=64, t_end=0.1)
        with pytest.raises(ValueError):
            extract_profile(res, t_lo=100.0, threshold=0.0)

    def test_profile_window_at_t_end_keeps_final_snapshot(self):
        phi, g, res = burgers_run(n=64, t_end=0.1)
        t_end = res.params.t_end
        # a final snapshot that lands one ulp before t_end still counts
        table = res.table.copy()
        table[-1, 0] = np.nextafter(t_end, 0.0)
        early = RunResult(table, res.grid, res.phi, res.g, res.step_count, res.dt, res.params)
        for r in (res, early):
            rep = extract_profile(r, t_lo=t_end, threshold=0.0)
            want = l1_to_constant(r.final, r.structure.mean)
            assert rep.series == ((r.times[-1], want),)
            assert want > 0.0
            assert not rep.passed

    def test_profile_operator_composition(self):
        grid = Grid(64)
        u0 = sine_field(grid, 0.5, 0.25)
        params = SchemeParams(t_end=0.5, cfl_safety=1.0)
        profile = traveling_profile(run(linear(2.0, 0.0, -2, 2), constant(0.3, -2, 2), u0, params))
        assert np.max(np.abs(profile.values - u0.values)) <= 1e-12

    def test_report_passed_matches_converged(self):
        phi, g, res = burgers_run(n=64, t_end=1.0)
        tail = [(t, v) for t, v in extract_profile(res, t_lo=0.0).series if t >= 0.5]
        for threshold in (None, 0.0, 1.0):
            rep = extract_profile(res, threshold=threshold)
            assert rep.name == "profile"
            assert list(rep.extra) == ["speed_used", "converged"]
            assert rep.extra["speed_used"] == res.structure.speed
            assert rep.passed is rep.extra["converged"]
            assert rep.observed == max(v for _, v in rep.series)
            # the default window starts at t_end / 2
            assert list(rep.series) == tail
        assert not extract_profile(res, threshold=0.0).passed
        assert extract_profile(res, threshold=1.0).passed


class TestWholeRunSums:
    """All six whole-run reductions (conservation, decay, profile,
    cutoff_convergence, squeeze_bounds, contraction) sum slices of the run
    tables; every value equals the per-snapshot grid formula's, repr for repr."""

    phi = from_breakpoints([-2, 0, 2], [[2.0, -1.0], [0.0, 2.0]])
    g = from_breakpoints([-2, 0.8, 2], [[0.0], [0.0, 0.002]], monotone=True)

    def fields(self, res):
        return [(t, Field(res.grid, row)) for t, row in zip(res.times.tolist(), res.values)]

    def per_snapshot(self, res):
        st, n = res.structure, res.grid.n_cells
        snaps = self.fields(res)
        profile = traveling_profile(res)
        speed = 0.0 if st.degenerate_speed else st.speed
        lo, hi = st.plateau_lo, st.plateau_hi
        return {
            "conservation": [(t, abs(mean(f) - mean(res.initial))) for t, f in snaps],
            "decay": [(t, l1_to_constant(f, st.mean)) for t, f in snaps],
            "profile": [(t, l1_distance(f, shift(profile, int(round(speed * t * n)))))
                        for t, f in snaps],
            "cutoff_convergence": [(t, l1_distance(f, cutoff(f, lo, hi))) for t, f in snaps],
        }

    def assert_contraction_matches(self, ra, rb):
        pairs = [(t, a, b) for (t, a), (_, b) in zip(self.fields(ra), self.fields(rb))]
        pp_ab = [positive_part_distance(a, b) for _, a, b in pairs]
        pp_ba = [positive_part_distance(b, a) for _, a, b in pairs]
        l1 = [l1_distance(a, b) for _, a, b in pairs]
        worst = max([0.0] + [y - x for d in (pp_ab, pp_ba, l1) for x, y in zip(d, d[1:])])
        rep = contraction_monitor(ra, rb)
        assert repr(rep.series) == repr(tuple((t, d) for (t, _, _), d in zip(pairs, l1)))
        assert repr(rep.observed) == repr(worst)
        assert repr(rep.extra) == repr({"positive_part_final": pp_ab[-1], "l1_final": l1[-1]})
        assert l1[-1] > 0.0

    def assert_squeeze_matches(self, res, su, sl):
        (_, upper), (_, lower) = squeeze_companions(res.initial, None, su, sl)
        for companion, s in ((upper, su), (lower, sl)):
            assert np.array_equal(companion.values, res.initial.values + s)
        base, upper, lower = run_many(res.phi, res.g, [res.initial, upper, lower], res.params)
        rep = squeeze_bounds(base, (su, upper), (sl, lower))
        assert rep.extra["shared_dt"] == base.dt == upper.dt == lower.dt
        st = res.structure
        level_hi, level_lo = st.mean + su, st.mean + sl
        up, down = constant_field(res.grid, level_hi), constant_field(res.grid, level_lo)
        want = {
            "exceed_upper": [positive_part_distance(f, up) for _, f in self.fields(base)],
            "dominate_upper": [positive_part_distance(f, up) for _, f in self.fields(upper)],
            "exceed_lower": [positive_part_distance(down, f) for _, f in self.fields(base)],
            "dominate_lower": [positive_part_distance(down, f) for _, f in self.fields(lower)],
        }
        series = tuple((t, max(eu - du, el - dl, 0.0)) for t, eu, du, el, dl
                       in zip(base.times.tolist(), *want.values()))
        assert repr(rep.series) == repr(series)
        assert repr(rep.observed) == repr(max(v for _, v in series))
        for key, values in want.items():
            assert repr(rep.extra[key]) == repr(values)
        assert (rep.extra["upper_level"], rep.extra["lower_level"]) == (level_hi, level_lo)
        assert any(v > 0.0 for v in want["exceed_upper"] + want["exceed_lower"])
        return rep

    @pytest.mark.parametrize("n, t_end", [(3000, 0.01), (300, 0.05), (64, 0.0)])
    def test_series_match_per_snapshot_formulas(self, n, t_end):
        grid = Grid(n)
        params = SchemeParams(t_end=t_end, snapshot_times=tuple(np.linspace(0, t_end, 50)))
        res, res_b = run_many(self.phi, self.g, [sine_field(grid, 0.625, 0.325),
                                                 sine_field(grid, 0.6, 0.3, phase=1.0)], params)
        assert len(res.times) == (50 if t_end else 1)
        want = self.per_snapshot(res)
        if n == 3000:
            # the rows span several blocks
            assert len(res.times) > 2 * (diagnostics._BLOCK_CELLS // n)
        if t_end:
            # the profile shift differs by row
            assert len({int(round(2.0 * t * n)) for t in res.times}) > 25
        reports = (conservation_monitor(res), decay_metric(res), extract_profile(res, t_lo=0.0),
                   cutoff_convergence(res))
        for rep in reports:
            assert repr(rep.series) == repr(tuple(want[rep.name]))
            expected = max(v for _, v in want[rep.name]) if rep.name in (
                "conservation", "profile") else want[rep.name][-1][1]
            assert repr(rep.observed) == repr(expected)
        assert any(v > 0.0 for _, v in want["profile"]) == bool(t_end)
        assert all(v > 0.0 for _, v in want["cutoff_convergence"])
        self.assert_contraction_matches(res, res_b)
        # random rows, whose distances grow and shrink, make every series count in observed
        rng = np.random.default_rng(n)
        noisy = [RunResult(np.column_stack([res.times, rng.random(res.values.shape)]), grid,
                           res.phi, res.g, res.step_count, res.dt, res.params) for _ in range(2)]
        self.assert_contraction_matches(*noisy)
        rep = self.assert_squeeze_matches(res, 0.1, -0.1)
        assert rep.extra["shared_dt"] == res.dt

    def test_squeeze_base_rerun_at_shared_dt(self):
        # the base data stay on g's flat part, the upper companion does not:
        # its step is smaller, and the base is re-run at it
        res = run(self.phi, self.g, sine_field(Grid(300), 0.5, 0.25),
                  SchemeParams(t_end=0.05, snapshot_times=tuple(np.linspace(0, 0.05, 11))))
        rep = self.assert_squeeze_matches(res, 0.2, -0.1)
        assert rep.extra["shared_dt"] < res.dt

    def test_runs_on_different_grids_raise(self):
        # zero horizons share the one-row schedule, so only the grids differ
        ra, rb = (run(self.phi, self.g, sine_field(Grid(n), 0.5, 0.25), SchemeParams(t_end=0.0))
                  for n in (64, 32))
        for a, b in ((ra, rb), (rb, ra)):
            with pytest.raises(GridMismatchError):
                contraction_monitor(a, b)

    @pytest.mark.parametrize("times_b", [(0.01, 0.02, 0.03), (0.01, 0.03)])
    def test_runs_on_different_schedules_raise(self, times_b):
        # one grid; the schedules differ in length, or in one time only
        u0 = sine_field(Grid(64), 0.5, 0.25)
        ra, rb = (run(self.phi, self.g, u0, SchemeParams(t_end=0.04, snapshot_times=times))
                  for times in ((0.01, 0.02), times_b))
        assert len(ra.times) == 4 and len(rb.times) == len(times_b) + 2
        for a, b in ((ra, rb), (rb, ra)):
            with pytest.raises(ValueError, match="do not share a snapshot schedule"):
                contraction_monitor(a, b)


class TestNonexpansive:
    def test_identical_data(self):
        grid = Grid(64)
        u = sine_field(grid, 0.5, 0.2)
        rep = t_nonexpansive_from_runs(*run_many(burgers(-1, 1), constant(0.0, -1, 1), [u, u],
                                                 SchemeParams(t_end=1.0)))
        assert rep.passed
        assert rep.observed == 0.0

    def test_burgers_constant_shift_equality(self):
        grid = Grid(128)
        u1 = sine_field(grid, 0.4, 0.2)
        u2 = Field(grid, u1.values + 0.1)
        rep = t_nonexpansive_from_runs(*run_many(burgers(-1, 1), constant(0.0, -1, 1), [u1, u2],
                                                 SchemeParams(t_end=2.0)))
        assert rep.passed
        assert rep.extra["branch"] == "mean_gap"
        assert rep.observed == pytest.approx(rep.extra["initial_distance"], abs=1e-12)

    def test_transport_family_never_fails(self):
        rng = np.random.default_rng(0)
        grid = Grid(64)
        phi = linear(2.0, 0.1, -2, 2)
        g = constant(0.3, -2, 2)
        params = SchemeParams(t_end=1.0, cfl_safety=1.0)
        for _ in range(5):
            u1 = rm.random_field(rng, grid)
            u2 = rm.random_field(rng, grid)
            rep = t_nonexpansive_from_runs(*run_many(phi, g, [u1, u2], params))
            assert rep.passed

    def test_transport_shifted_pair_equality_case(self):
        rng = np.random.default_rng(1)
        grid = Grid(96)
        u1 = rm.random_field(rng, grid)
        u2 = Field(grid, np.roll(u1.values, 11))
        rep = t_nonexpansive_from_runs(*run_many(linear(2.0, 0.0, -2, 2), constant(0.0, -2, 2),
                                                 [u1, u2],
                                                 SchemeParams(t_end=1.0, cfl_safety=1.0)))
        assert rep.passed
        assert rep.extra["branch"] == "profile_l1"
        assert rep.observed <= rep.extra["initial_distance"] + 1e-12


class TestQuadratureHelpers:
    def test_weak_residual_constant_run_is_noise(self):
        grid = Grid(128)
        phi, g = burgers(-1, 1), constant(0.0, -1, 1)
        res = run(phi, g, constant_field(grid, 0.4),
                  SchemeParams(t_end=1.0, snapshot_times=dx_schedule(128, 1.0)))
        bump = TestBump(0.5, 0.3, 0.3, 0.3)
        assert abs(weak_form_residual(res, bump)) <= 2e-4

    def test_snapshot_spacing_uses_requested_schedule(self):
        phi, g, res = burgers_run(n=64, t_end=1.0)
        assert snapshot_spacing(res) == pytest.approx(1.0 / 64.0, rel=1e-12)
