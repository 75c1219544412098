import numpy as np
import pytest

import randmodels as rm
from degenwave import (
    OutOfRangeError,
    PiecewiseFunction,
    SchemaError,
    burgers,
    constant,
    from_breakpoints,
    from_global_coeffs,
    identity,
    linear,
    lipschitz_on,
    maximal_affine_interval,
    maximal_constant_interval,
    monotone_split,
)
from degenwave.scenarios import _build_function
from kernel_reference import total_variation_between


def kink_flux(lo=-1.0, hi=1.0):
    # -u on [lo, 0], 2u on [0, hi]
    return from_breakpoints([lo, 0.0, hi], [[-lo, -1.0], [0.0, 2.0]])


def plateau_diffusion():
    # 0 on [-1, 0.8], (u - 0.8)^2 on [0.8, 1]
    return from_breakpoints([-1.0, 0.8, 1.0], [[0.0], [0.0, 0.0, 1.0]], monotone=True)


class TestEval:
    def test_identity(self):
        assert identity(-1, 1).eval(0.3) == pytest.approx(0.3, abs=1e-15)

    def test_burgers_closed_form(self):
        assert burgers(-1, 1).eval(0.5) == 0.125

    def test_piecewise_linear_left_branch(self):
        assert kink_flux().eval(-0.5) == 0.5

    def test_vectorized_matches_scalar(self):
        f = kink_flux()
        xs = np.linspace(-1, 1, 17)
        vec = f.eval(xs)
        assert vec == pytest.approx([f.eval(float(x)) for x in xs], abs=0)

    def test_breakpoint_sides_agree(self):
        f = kink_flux()
        assert f.eval(0.0) == 0.0
        assert f.eval(np.nextafter(0.0, -1)) == pytest.approx(0.0, abs=1e-15)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            burgers(-1, 1).eval(1.5)
        with pytest.raises(OutOfRangeError):
            burgers(-1, 1).eval(np.array([0.0, -2.0]))

    def test_continuity_at_random_breakpoints(self):
        rng = np.random.default_rng(0)
        eps = 1e-9
        for _ in range(40):
            f = rm.random_flux(rng)
            lip = lipschitz_on(f, f.lo, f.hi)
            for x in f.breakpoints[1:-1]:
                gap = abs(f.eval(x - eps) - f.eval(x + eps))
                assert gap <= 1e-7 * max(1.0, lip)


class TestConstruction:
    def test_rejects_nonincreasing_breakpoints(self):
        with pytest.raises(ValueError, match="increasing"):
            PiecewiseFunction((0.0, 0.0, 1.0), ((0.0,), (0.0,)))

    def test_rejects_discontinuity(self):
        with pytest.raises(ValueError, match="disagree"):
            PiecewiseFunction((0.0, 1.0, 2.0), ((0.0, 1.0), (5.0, 1.0)))

    def test_rejects_degree_four(self):
        with pytest.raises(ValueError, match="degree"):
            PiecewiseFunction((0.0, 1.0), ((0.0, 1.0, 0.0, 0.0, 1.0),))

    def test_monotone_flag_verified(self):
        with pytest.raises(ValueError, match="monotone"):
            PiecewiseFunction((0.0, 1.0), ((0.0, -1.0),), monotone_nondecreasing=True)
        # derivative dips negative strictly inside the piece: t(t-1) on [0, 1]
        with pytest.raises(ValueError, match="monotone"):
            PiecewiseFunction((0.0, 1.0), ((0.0, 0.0, -0.5, 1.0 / 3.0),),
                              monotone_nondecreasing=True)

    def test_value_at_left_end(self):
        assert burgers(-1, 1).value_at_left_end == 0.5

    def test_anchoring_is_exact(self):
        f = from_breakpoints([0.0, 0.3, 1.0], [[0.2, 1.0, -0.5], [9.9, 2.0]])
        left = f.eval(np.nextafter(0.3, 0.0))
        right = f.eval(np.nextafter(0.3, 1.0))
        assert abs(left - right) <= 1e-15


class TestLipschitz:
    def test_burgers(self):
        assert lipschitz_on(burgers(-1, 1), -1, 1) == 1.0

    def test_identity(self):
        assert lipschitz_on(identity(-1, 1), -1, 1) == 1.0

    def test_cubic_endpoint_maximum(self):
        cubic = from_global_coeffs([-1.0, 1.0], [[0.0, 0.0, 0.0, 1.0]])
        assert lipschitz_on(cubic, -1, 1) == pytest.approx(3.0, abs=1e-12)

    def test_interior_extremum_of_derivative(self):
        # f = t^2 - t^3/1.5 on [0,2]: f' = 2t - 2t^2 peaks at t=0.5 with 0.5
        f = PiecewiseFunction((0.0, 2.0), ((0.0, 0.0, 1.0, -2.0 / 3.0),))
        assert lipschitz_on(f, 0.0, 0.8) == pytest.approx(0.5, abs=1e-12)

    def test_subinterval(self):
        assert lipschitz_on(burgers(-1, 1), -0.25, 0.5) == 0.5


class TestMaximalAffine:
    def test_strictly_convex_degenerates(self):
        assert maximal_affine_interval(burgers(-1, 1), 0.0, -1, 1) == (0.0, 0.0)

    def test_kink_with_extension(self):
        # -u / 2u / 2 + 5(u-1): the middle piece is the only affine run around 0.5
        f = from_breakpoints([-1.0, 0.0, 1.0, 2.0], [[1.0, -1.0], [0.0, 2.0], [0.0, 5.0]])
        assert maximal_affine_interval(f, 0.5, -1, 1) == (0.0, 1.0)

    def test_globally_affine_fills_window(self):
        f = linear(3.0, 1.0, -1.0, 1.0)
        assert maximal_affine_interval(f, 0.2, -1, 1) == (-1.0, 1.0)

    def test_center_on_kink_degenerates(self):
        assert maximal_affine_interval(kink_flux(), 0.0, -1, 1) == (0.0, 0.0)

    def test_center_at_window_end_degenerates(self):
        f = linear(1.0, 0.0, -1.0, 1.0)
        assert maximal_affine_interval(f, 1.0, -1, 1) == (1.0, 1.0)

    def test_smooth_join_merges(self):
        f = from_breakpoints([-1.0, 0.0, 1.0], [[0.0, 2.0], [0.0, 2.0]])
        assert maximal_affine_interval(f, 0.0, -1, 1) == (-1.0, 1.0)

    def test_output_contains_center_secant_tight(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            f = rm.random_flux(rng)
            lo, hi = f.lo + 0.1, f.hi - 0.1
            center = float(rng.uniform(lo, hi))
            a, b = maximal_affine_interval(f, center, lo, hi)
            assert lo <= a <= center <= b <= hi
            if a < b:
                xs = np.linspace(a, b, 200)
                fa, fb = f.eval(a), f.eval(b)
                secant = fa + (fb - fa) * (xs - a) / (b - a)
                assert np.max(np.abs(f.eval(xs) - secant)) <= 1e-10 + 1e-12


class TestMaximalConstant:
    def test_strictly_increasing_degenerates(self):
        assert maximal_constant_interval(identity(-1, 1), 0.5, -1, 1) == (0.5, 0.5)

    def test_plateau_detected(self):
        assert maximal_constant_interval(plateau_diffusion(), 0.3, 0.0, 1.0) == (0.0, 0.8)

    def test_globally_constant(self):
        assert maximal_constant_interval(constant(7.0, -1, 1), 0.0, -1, 1) == (-1.0, 1.0)

    def test_constant_subset_of_affine_same_function(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            f = rm.random_monotone_diffusion(rng)
            lo, hi = f.lo + 0.1, f.hi - 0.1
            center = float(rng.uniform(lo, hi))
            a2, b2 = maximal_constant_interval(f, center, lo, hi)
            a, b = maximal_affine_interval(f, center, lo, hi)
            assert a <= a2 <= b2 <= b


class TestMonotone:
    def test_random_pairs_ordered(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = rm.random_monotone_diffusion(rng)
            xs = np.sort(rng.uniform(g.lo, g.hi, size=30))
            vals = g.eval(xs)
            assert np.all(np.diff(vals) >= -1e-12)


class TestSerialization:
    # to_dict writes the explicit function form of a config, and the config
    # parser is its one reader
    def test_round_trip(self):
        f = kink_flux()
        assert _build_function(f.to_dict(), "/phi") == f

    @pytest.mark.parametrize("d", [
        {"breakpoints": [-1, True], "pieces": [["0", 1.0]], "monotone": "false"},
        {"breakpoints": [-1, 1], "pieces": [[0.0, 1.0]], "monotone": "false"},
        {"breakpoints": [-1, True], "pieces": [[0.0, 1.0]]},
        {"breakpoints": [-1, "1"], "pieces": [[0.0, 1.0]]},
        {"breakpoints": [-1, 1], "pieces": [["0", 1.0]]},
        {"breakpoints": [-1, 1], "pieces": [[0.0, False]], "monotone": True},
    ])
    def test_from_dict_rejects_non_numbers_and_non_bool_flag(self, d):
        with pytest.raises(SchemaError):
            _build_function(d, "/phi")


class TestMonotoneSplit:
    def test_parts_sum_to_function(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            f = rm.random_flux(rng)
            up, down = monotone_split(f)
            xs = np.linspace(f.lo, f.hi, 257)
            assert up.eval(xs) + down.eval(xs) == pytest.approx(f.eval(xs), abs=1e-12)
            assert np.all(np.diff(up.eval(xs)) >= -1e-12)
            assert np.all(np.diff(down.eval(xs)) <= 1e-12)

    def test_total_variation_burgers(self):
        assert total_variation_between(burgers(-1, 1), -1.0, 1.0) == 1.0

    def test_total_variation_symmetric(self):
        f = kink_flux()
        assert total_variation_between(f, -0.7, 0.9) == total_variation_between(f, 0.9, -0.7)
