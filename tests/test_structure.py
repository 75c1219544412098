import numpy as np
import pytest

import randmodels as rm
from degenwave import (
    BandError,
    CoverageError,
    Field,
    Grid,
    MeanOutOfBandError,
    analyze,
    band_project_mean,
    burgers,
    constant,
    constant_field,
    cutoff,
    from_breakpoints,
    l1_distance,
    linear,
    mean,
)


def sine_field(grid, base, amp, freq=1):
    return Field(grid, base + amp * np.sin(2 * np.pi * freq * grid.cell_centers()))


def kink_flux():
    return from_breakpoints([-1.0, 0.0, 1.0], [[1.0, -1.0], [0.0, 2.0]])


def plateau_diffusion():
    return from_breakpoints([-1.0, 0.8, 1.0], [[0.0], [0.0, 0.0, 1.0]], monotone=True)


class TestAnalyze:
    def test_strictly_convex_flux_degenerates(self):
        grid = Grid(64)
        rep = analyze(burgers(-1, 1), constant(0.0, -1, 1), sine_field(grid, 0.5, 0.25))
        assert rep.mean == pytest.approx(0.5, abs=1e-13)
        assert rep.affine_lo == rep.affine_hi == rep.mean
        assert rep.plateau_lo == rep.plateau_hi == rep.mean
        assert rep.degenerate_speed

    def test_globally_affine_flux_pure_transport(self):
        grid = Grid(4)
        u0 = Field(grid, [1.0, 0.5, 0.0, 0.5])  # mean 0.5, sup norm 1
        rep = analyze(linear(2.0, 0.0, -1, 1), constant(0.0, -1, 1), u0)
        assert (rep.affine_lo, rep.affine_hi) == (-1.0, 1.0)
        assert rep.speed == 2.0
        assert (rep.plateau_lo, rep.plateau_hi) == (-1.0, 1.0)
        assert not rep.degenerate_speed

    def test_mixed_interval_composition(self):
        grid = Grid(4)
        u0 = Field(grid, [1.0, 0.5, 0.0, 0.5])
        rep = analyze(kink_flux(), plateau_diffusion(), u0)
        assert (rep.affine_lo, rep.affine_hi) == (0.0, 1.0)
        assert rep.speed == 2.0
        assert (rep.plateau_lo, rep.plateau_hi) == (0.0, 0.8)

    def test_interval_ordering_invariant(self):
        rng = np.random.default_rng(0)
        grid = Grid(32)
        for _ in range(25):
            phi = rm.random_flux(rng)
            g = rm.random_monotone_diffusion(rng)
            u0 = rm.random_field(rng, grid)
            rep = analyze(phi, g, u0)
            assert -rep.sup_norm <= rep.affine_lo <= rep.plateau_lo <= rep.mean
            assert rep.mean <= rep.plateau_hi <= rep.affine_hi <= rep.sup_norm

    def test_scale_consistency(self):
        rng = np.random.default_rng(1)
        grid = Grid(32)
        for _ in range(10):
            phi = rm.random_flux(rng)
            g = rm.random_monotone_diffusion(rng)
            u0 = rm.random_field(rng, grid)
            base = analyze(phi, g, u0)
            # phi + 4.2 and phi + 1.5 u from phi's coefficients; from_breakpoints
            # anchors every constant term after the first piece's
            bps, pieces = phi.breakpoints, [list(p) + [0.0] * (2 - len(p)) for p in phi.pieces]
            shifted = analyze(from_breakpoints(bps, [[c[0] + 4.2, *c[1:]] for c in pieces]), g, u0)
            tilted = analyze(from_breakpoints(
                bps, [[c[0] + 1.5 * bps[0], c[1] + 1.5, *c[2:]] for c in pieces]), g, u0)
            for other, dc in ((shifted, 0.0), (tilted, 1.5)):
                assert (other.affine_lo, other.affine_hi) == (base.affine_lo, base.affine_hi)
                assert (other.plateau_lo, other.plateau_hi) == (base.plateau_lo, base.plateau_hi)
                assert other.mean == base.mean and other.sup_norm == base.sup_norm
                assert other.degenerate_speed == base.degenerate_speed
                # nominal secant speed of degenerate cases may carry float dust
                assert other.speed == pytest.approx(base.speed + dc, abs=1e-9)

    def test_flat_data_mean_rounding_past_sup(self):
        # the fsum mean of n equal cells can round one ulp past their value
        # (n=5, 0.3: mean 0.30000000000000004); the report must still order
        models = [(burgers(-1, 1), constant(0.0, -1, 1)), (kink_flux(), plateau_diffusion())]
        rounded = 0
        for n in range(4, 200):
            grid = Grid(n)
            for value in (0.1, 0.2, 0.3, 0.55, 0.7, 0.9, -0.3, 1 / 3):
                u0 = constant_field(grid, value)
                rounded += abs(mean(u0)) > abs(value)
                for phi, g in models:
                    rep = analyze(phi, g, u0)
                    assert -rep.sup_norm <= rep.affine_lo <= rep.plateau_lo <= rep.mean
                    assert rep.mean <= rep.plateau_hi <= rep.affine_hi <= rep.sup_norm
        assert rounded > 0

    def test_coverage_error(self):
        grid = Grid(8)
        u0 = constant_field(grid, 0.9)  # needs [-0.9, 0.9]
        with pytest.raises(CoverageError):
            analyze(burgers(0.0, 1.0), constant(0.0, -1, 1), u0)

    def test_monotone_flag_required(self):
        grid = Grid(8)
        with pytest.raises(ValueError, match="monotone"):
            analyze(burgers(-1, 1), burgers(-1, 1), constant_field(grid, 0.1))

    def test_json_keys(self):
        grid = Grid(8)
        rep = analyze(burgers(-1, 1), constant(0.0, -1, 1), constant_field(grid, 0.25))
        assert set(rep.to_dict()) == {"I", "M", "a", "b", "a_prime", "b_prime",
                                      "c", "degenerate_speed"}


class TestCutoff:
    def test_inside_band_unchanged(self):
        u = constant_field(Grid(8), 0.5)
        assert np.array_equal(cutoff(u, 0.0, 1.0).values, u.values)

    def test_clamps(self):
        u = Field(Grid(4), [-0.2, 0.5, 1.3, 0.9])
        assert np.array_equal(cutoff(u, 0.0, 1.0).values, [0.0, 0.5, 1.0, 0.9])

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        u = rm.random_field(rng, Grid(32))
        once = cutoff(u, -0.2, 0.4)
        assert np.array_equal(cutoff(once, -0.2, 0.4).values, once.values)

    def test_one_lipschitz_in_l1(self):
        rng = np.random.default_rng(3)
        g = Grid(32)
        for _ in range(25):
            u, v = rm.random_field(rng, g), rm.random_field(rng, g)
            assert l1_distance(cutoff(u, -0.3, 0.5), cutoff(v, -0.3, 0.5)) \
                <= l1_distance(u, v) + 1e-15

    def test_empty_band(self):
        with pytest.raises(BandError):
            cutoff(constant_field(Grid(4), 0.0), 1.0, 0.0)


class TestBandProjectMean:
    def test_worked_example(self):
        grid = Grid(8)
        u = Field(grid, [0.2, 0.8] * 4)        # mean exactly 0.5
        v = constant_field(grid, 0.8)          # mean 0.8 -> s = 0.375
        w = band_project_mean(u, v, 0.0, 1.0)
        assert w.values == pytest.approx(np.full(8, 0.5), abs=1e-14)
        assert mean(w) == pytest.approx(0.5, abs=1e-14)

    def test_equal_means_returns_v(self):
        grid = Grid(8)
        u = Field(grid, [0.2, 0.8] * 4)
        v = Field(grid, [0.3, 0.7] * 4)
        w = band_project_mean(u, v, 0.0, 1.0)
        assert np.array_equal(w.values, v.values)

    def test_random_property(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            grid = Grid(int(rng.integers(8, 48)))
            a = float(rng.uniform(-1.0, 0.2))
            b = a + float(rng.uniform(0.1, 1.0))
            u = rm.random_field(rng, grid, a - 0.4, b + 0.4)
            u = Field(grid, u.values - mean(u) + float(rng.uniform(a, b)))
            v = cutoff(u, a, b)
            w = band_project_mean(u, v, a, b)
            assert abs(mean(w) - mean(u)) <= 1e-12
            assert np.all(w.values >= a - 1e-12) and np.all(w.values <= b + 1e-12)
            assert l1_distance(u, w) <= 2.0 * l1_distance(u, v) + 1e-12

    def test_band_violation_rejected(self):
        grid = Grid(8)
        u = constant_field(grid, 0.5)
        with pytest.raises(BandError):
            band_project_mean(u, constant_field(grid, 1.5), 0.0, 1.0)

    def test_mean_out_of_band_rejected(self):
        grid = Grid(8)
        with pytest.raises(MeanOutOfBandError):
            band_project_mean(constant_field(grid, 2.0), constant_field(grid, 0.5),
                              0.0, 1.0)
