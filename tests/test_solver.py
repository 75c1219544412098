import math

import numpy as np
import pytest

import randmodels as rm
from degenwave import (
    CflViolationError,
    Field,
    Grid,
    SchemeParams,
    burgers,
    constant,
    constant_field,
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
    step,
)
from degenwave.grid import MAX_ABS
from kernel_reference import eo_flux


def sine_field(grid, base, amp):
    return Field(grid, base + amp * np.sin(2 * np.pi * grid.cell_centers()))


class TestEoFlux:
    def test_consistency_exact(self):
        phi = burgers(-1, 1)
        for u in (-0.7, 0.0, 0.31, 1.0):
            assert eo_flux(phi, u, u) == phi.eval(u)

    def test_burgers_antisymmetric_pair(self):
        assert eo_flux(burgers(-1, 1), -1.0, 1.0) == 0.0

    def test_monotone_flux_is_pure_upwind(self):
        phi = linear(2.0, 0.0, -1, 1)
        assert eo_flux(phi, 0.3, 0.7) == pytest.approx(phi.eval(0.3), abs=1e-15)

    def test_decreasing_flux_is_downwind(self):
        phi = linear(-2.0, 0.0, -1, 1)
        assert eo_flux(phi, 0.3, 0.7) == pytest.approx(phi.eval(0.7), abs=1e-15)

    def test_scalar_matches_split_decomposition(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            phi = rm.random_flux(rng)
            up, down = monotone_split(phi)
            ul, ur = rng.uniform(phi.lo, phi.hi, size=2)
            direct = eo_flux(phi, float(ul), float(ur))
            decomposed = up.eval(float(ul)) + down.eval(float(ur))
            assert direct == pytest.approx(decomposed, abs=1e-12)


class TestStep:
    def test_constants_are_exact_fixed_points(self):
        phi = burgers(-1, 1)
        g = rm.random_monotone_diffusion(np.random.default_rng(1), -1, 1)
        u = constant_field(Grid(16), 0.37)
        out = step(phi, g, u, 1e-4)
        assert np.array_equal(out.values, u.values)

    def test_unit_cfl_is_exact_shift(self):
        grid = Grid(50)
        phi = identity(-1, 1)
        g = constant(0.0, -1, 1)
        u = sine_field(grid, 0.2, 0.4)
        out = step(phi, g, u, grid.dx)  # unit CFL for slope-one flux
        assert np.max(np.abs(out.values - shift(u, 1).values)) <= 1e-14

    def test_mean_conserved(self):
        rng = np.random.default_rng(2)
        grid = Grid(40)
        phi = rm.random_flux(rng)
        g = rm.random_monotone_diffusion(rng)
        u = rm.random_field(rng, grid)
        dt = 0.5 * max_stable_dt(phi, g, float(u.values.min()), float(u.values.max()), grid.dx)
        assert abs(mean(step(phi, g, u, dt)) - mean(u)) <= 1e-13

    def test_cfl_violation_rejected(self):
        grid = Grid(16)
        phi = linear(2.0, 0.0, -1, 1)
        g = constant(0.0, -1, 1)
        u = sine_field(grid, 0.0, 0.5)
        with pytest.raises(CflViolationError):
            step(phi, g, u, grid.dx)  # needs dt <= dx/2

    def test_dt_one_ulp_above_the_limit_is_rejected(self):
        # the guard is exact: past the float limit the exact update can break order
        grid = Grid(16)
        phi, g = burgers(-1, 1), rm.random_monotone_diffusion(np.random.default_rng(4), -1, 1)
        u = sine_field(grid, 0.1, 0.5)
        limit = max_stable_dt(phi, g, float(u.values.min()), float(u.values.max()), grid.dx)
        assert np.isfinite(step(phi, g, u, limit).values).all()
        with pytest.raises(CflViolationError, match="outside"):
            step(phi, g, u, math.nextafter(limit, math.inf))

    def test_max_stable_dt_rejects_unflagged_diffusion(self):
        # no step keeps the update monotone under a backward diffusion
        with pytest.raises(ValueError, match="monotone_nondecreasing"):
            max_stable_dt(burgers(-1, 1), linear(-1.0, 0.0, -1, 1), -0.5, 0.5, 1.0 / 16)

    def test_unflagged_diffusion_is_rejected_before_any_build(self, monkeypatch):
        # unguarded, this step raises the max of the data from 0.19616 to 0.19692
        import degenwave.solver as solvermod

        def no_workspace(*args):
            raise AssertionError("a workspace was built")

        monkeypatch.setattr(solvermod, "_Workspace", no_workspace)
        u = sine_field(Grid(16), 0.0, 0.2)
        with pytest.raises(ValueError, match="monotone_nondecreasing"):
            step(burgers(-1, 1), linear(-1.0, 0.0, -1, 1), u, 1e-4)

    @pytest.mark.parametrize("dt", [-0.01, -1e-300, math.nan], ids=["negative", "tiny", "nan"])
    def test_negative_or_nan_dt_is_rejected_before_any_build(self, dt, monkeypatch):
        # unguarded, a step of -0.01 runs the update backward and changes the field
        import degenwave.solver as solvermod

        def no_workspace(*args):
            raise AssertionError("a workspace was built")

        monkeypatch.setattr(solvermod, "_Workspace", no_workspace)
        u = sine_field(Grid(16), 0.0, 0.2)
        with pytest.raises(CflViolationError, match="outside"):
            step(burgers(-1, 1), constant(0.0, -1, 1), u, dt)

    def test_comparison_principle_and_contraction(self):
        rng = np.random.default_rng(3)
        grid = Grid(32)
        for _ in range(20):
            phi = rm.random_flux(rng)
            g = rm.random_monotone_diffusion(rng)
            lo = rm.random_field(rng, grid)
            hi = Field(grid, lo.values + rng.uniform(0.0, 0.4, grid.n_cells))
            dt = 0.9 * min(max_stable_dt(phi, g, float(lo.values.min()),
                                         float(hi.values.max()), grid.dx), 1.0)
            pp0 = positive_part_distance(hi, lo)
            l10 = l1_distance(hi, lo)
            lo2 = step(phi, g, lo, dt)
            hi2 = step(phi, g, hi, dt)
            assert np.max(lo2.values - hi2.values) <= 1e-12
            assert positive_part_distance(hi2, lo2) <= pp0 + 1e-12
            assert l1_distance(hi2, lo2) <= l10 + 1e-12

    def test_max_principle(self):
        rng = np.random.default_rng(4)
        grid = Grid(32)
        for _ in range(10):
            phi = rm.random_flux(rng)
            g = rm.random_monotone_diffusion(rng)
            u = rm.random_field(rng, grid)
            u_lo, u_hi = float(u.values.min()), float(u.values.max())
            dt = 0.9 * min(max_stable_dt(phi, g, u_lo, u_hi, grid.dx), 1.0)
            for _ in range(25):
                u = step(phi, g, u, dt)
            assert u.values.min() >= u_lo - 1e-13
            assert u.values.max() <= u_hi + 1e-13


class TestRun:
    def test_zero_horizon_returns_initial(self):
        grid = Grid(16)
        u0 = sine_field(grid, 0.3, 0.2)
        res = run(burgers(-1, 1), constant(0.0, -1, 1), u0, SchemeParams(t_end=0.0))
        assert res.table.shape == (1, 17)
        assert res.times[0] == 0.0
        assert np.array_equal(res.final.values, u0.values)

    def test_snapshot_times_track_requests(self):
        grid = Grid(32)
        u0 = sine_field(grid, 0.4, 0.2)
        requested = (0.0, 0.013, 0.27, 0.5)
        res = run(burgers(-1, 1), constant(0.0, -1, 1), u0,
                  SchemeParams(t_end=0.5, snapshot_times=requested))
        times = res.times
        for want in requested:
            assert np.min(np.abs(times - want)) <= res.dt * (1.0 + 1e-9)
        assert times[0] == 0.0
        assert times[-1] >= 0.5 - 1e-12

    def test_every_snapshot_conserves_mean(self):
        rng = np.random.default_rng(5)
        grid = Grid(48)
        phi = rm.random_flux(rng)
        g = rm.random_monotone_diffusion(rng)
        u0 = rm.random_field(rng, grid)
        res = run(phi, g, u0, SchemeParams(t_end=0.2, snapshot_times=(0.0, 0.1, 0.2)))
        m0 = mean(u0)
        for row in res.values:
            assert abs(mean(Field(grid, row)) - m0) <= 1e-12

    def test_unit_cfl_transport_is_exact_rotation(self):
        grid = Grid(64)
        u0 = sine_field(grid, 0.5, 0.25)
        phi = linear(2.0, 0.0, -1, 1)
        res = run(phi, constant(0.0, -1, 1), u0,
                  SchemeParams(t_end=0.5, cfl_safety=1.0))
        # 64 steps of one cell each: full revolution back to the start
        assert res.step_count == 64
        assert np.max(np.abs(res.final.values - u0.values)) <= 1e-13

    def test_heat_equation_matches_fourier_decay(self):
        grid = Grid(128)
        u0 = sine_field(grid, 0.5, 0.1)
        times = (0.01, 0.02, 0.03)
        res = run(constant(0.0, -1, 1), identity(-1, 1), u0,
                  SchemeParams(t_end=0.03, snapshot_times=(0.0,) + times))
        for t, row in zip(res.times[1:], res.values[1:]):
            want = (2.0 / math.pi) * 0.1 * math.exp(-4.0 * math.pi ** 2 * t)
            assert l1_to_constant(Field(grid, row), 0.5) == pytest.approx(want, rel=0.02)

    def test_step_that_is_not_positive_is_rejected(self):
        # Lphi/dx overflows to inf, so the admissible step underflows to 0.0
        # and the loop would never reach t_end
        grid = Grid(16)
        u0 = sine_field(grid, 0.5, 0.2)
        g = constant(0.0, -1, 1)
        params = SchemeParams(t_end=0.01)
        with pytest.raises(CflViolationError, match="not positive"):
            run(linear(1e308, 0.0, -1, 1), g, u0, params)
        with pytest.raises(CflViolationError, match="not positive"):
            run(burgers(-1, 1), g, u0, params, _dt=0.0)
        # a zero horizon takes no step, so any step is fine there
        assert run(burgers(-1, 1), g, u0, SchemeParams(t_end=0.0), _dt=0.0).step_count == 0

    def test_run_over_the_cell_update_budget_is_rejected(self):
        # 5e7 steps are within MAX_STEPS, but not on 1024 cells
        u0 = sine_field(Grid(1024), 0.5, 0.2)
        with pytest.raises(CflViolationError, match="more than MAX_CELL_STEPS"):
            run(burgers(-1, 1), constant(0.0, -1, 1), u0, SchemeParams(t_end=1.0), _dt=2e-8)

    def test_unflagged_diffusion_is_rejected_before_any_step(self, monkeypatch):
        # a backward diffusion breaks the max principle the fixed step needs
        import degenwave.solver as solvermod

        def no_step(*args):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(solvermod, "_apply_step", no_step)
        u0 = sine_field(Grid(16), 0.0, 0.5)
        g = linear(-1.0, 0.0, -1, 1)
        params = SchemeParams(t_end=0.1)
        with pytest.raises(ValueError, match="monotone_nondecreasing"):
            run(burgers(-1, 1), g, u0, params)
        with pytest.raises(ValueError, match="monotone_nondecreasing"):
            run_many(burgers(-1, 1), g, [u0, u0], params)

    def test_shared_dt_is_admissible_for_every_member(self):
        grid = Grid(16)
        phi, g = linear(2.0, 0.0, -1, 1), constant(0.0, -1, 1)
        members = [sine_field(grid, 0.0, 0.5), sine_field(grid, 0.1, 0.2),
                   sine_field(grid, -0.2, 0.7)]
        params = SchemeParams(t_end=0.1, cfl_safety=0.7)
        runs = run_many(phi, g, members, params)
        for u0, res in zip(members, runs):
            cap = params.cfl_safety * max_stable_dt(
                phi, g, float(u0.values.min()), float(u0.values.max()), grid.dx)
            assert res.dt <= cap
        # the one-step call keeps its guard against an inadmissible step
        with pytest.raises(CflViolationError):
            step(phi, g, members[0], grid.dx)


class TestSchemeParams:
    def test_cfl_bounds(self):
        with pytest.raises(ValueError):
            SchemeParams(t_end=1.0, cfl_safety=1.5)
        with pytest.raises(ValueError):
            SchemeParams(t_end=1.0, cfl_safety=0.0)

    def test_snapshot_times_validated(self):
        with pytest.raises(ValueError):
            SchemeParams(t_end=1.0, snapshot_times=(0.5, 0.2))
        with pytest.raises(ValueError):
            SchemeParams(t_end=1.0, snapshot_times=(0.0, 2.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_snapshot_times_must_be_finite(self, bad):
        # every ordering and range comparison with NaN is False
        with pytest.raises(ValueError, match="finite"):
            SchemeParams(t_end=1.0, snapshot_times=(0.0, bad))

    def test_times_lie_in_the_value_range(self):
        edge = SchemeParams(t_end=MAX_ABS, snapshot_times=(0.0, MAX_ABS))
        assert edge.snapshot_times == (0.0, MAX_ABS)
        beyond = math.nextafter(MAX_ABS, math.inf)
        for bad in (beyond, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=r"t_end must be finite and lie in \[0, 2\^64\]"):
                SchemeParams(t_end=bad)
            with pytest.raises(ValueError, match=r"snapshot_times must be finite and lie in"):
                SchemeParams(t_end=MAX_ABS, snapshot_times=(0.0, bad))
