import hashlib
import math

import numpy as np
import pytest

import randmodels as rm
from degenwave import (
    Field,
    Grid,
    OutOfRangeError,
    PiecewiseFunction,
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
    step,
)
from degenwave.grid import MAX_ABS
from degenwave.piecewise import _poly_val, _shift_poly
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

    def test_constant_on_a_range_wider_than_the_floats(self):
        # u - lo would overflow there, so such a range is out of range; at its
        # edges every offset is finite (RuntimeWarnings are errors here)
        with pytest.raises(ValueError, match="breakpoints must lie in"):
            constant(0.25, -1.5e308, 1.5e308)
        f = constant(0.25, -MAX_ABS, MAX_ABS)
        assert f.eval(MAX_ABS) == 0.25
        assert f.eval(np.array([-MAX_ABS, MAX_ABS])).tolist() == [0.25, 0.25]
        assert linear(1.0, 0.0, -MAX_ABS, MAX_ABS).eval(MAX_ABS) == MAX_ABS

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the piece-local t = u - lo rounds to a multiple of 4096 on a "
                              "piece that starts at -2^64, so phi is a staircase there")
    def test_a_range_far_wider_than_the_data_keeps_the_flux(self):
        # inside the value range, slope-1 transport of amplitude-1 data stands
        # still: phi(0.5) is 0.0 and phi(3000) is 4096.0
        phi, g = linear(1.0, 0.0, -MAX_ABS, MAX_ABS), constant(0.0, -MAX_ABS, MAX_ABS)
        grid = Grid(16)
        u = Field(grid, np.sin(2 * np.pi * grid.cell_centers()))
        moved = step(phi, g, u, 0.5 * grid.dx)
        assert phi(0.5) == 0.5
        assert not np.array_equal(moved.values, u.values)

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
    def test_breakpoints_lie_in_the_value_range(self):
        assert PiecewiseFunction((-MAX_ABS, MAX_ABS), ((0.0, 1.0),)).hi == MAX_ABS
        beyond = math.nextafter(MAX_ABS, math.inf)
        for bp in ((-1.0, beyond), (-beyond, 1.0), (math.nan, 1.0), (-1.0, math.inf),
                   (-math.inf, 1.0)):
            with pytest.raises(ValueError, match=r"breakpoints must lie in \[-2\^64, 2\^64\]"):
                PiecewiseFunction(bp, ((0.0, 1.0),))

    def test_rejects_a_piece_that_overflows_at_its_right_end(self):
        # coefficients are not range-checked: 2 + 1e308 * 2 is inf on a small range
        with pytest.raises(ValueError, match="piece 0 overflows at its right end: inf"):
            PiecewiseFunction((-2.0, 0.0, 2.0), ((2.0, 1e308), (0.0, 2.0)))

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


def _stored_models():
    """Every builder over seeded random models, -0.0 and integer coefficients.

    Each random model also goes through the constructor with its constants
    nudged inside ``CONTINUITY_RTOL`` (so the stored anchor replaces them),
    through ``from_global_coeffs`` (the same pieces in u itself), and, for
    the flux and the nondecreasing diffusion, through both parts of
    ``monotone_split``.
    """
    rng = np.random.default_rng(33)
    for _ in range(400):
        flux = rm.random_flux(rng)
        diffusion = rm.random_monotone_diffusion(rng)
        flat, _ = rm.random_flat_diffusion(rng)
        for f in (flux, diffusion, flat):
            yield f
            nudged = [(p[0] * (1.0 + 1e-13),) + p[1:] for p in f.pieces]
            yield PiecewiseFunction(f.breakpoints, nudged, f.monotone_nondecreasing)
            yield from_global_coeffs(f.breakpoints, [_shift_poly(p, -a)[:len(p)]
                                                     for a, p in zip(f.breakpoints, f.pieces)])
        yield from monotone_split(flux)
        yield from monotone_split(diffusion)
    for neg in (
        PiecewiseFunction((0.0, 1.0), ((-0.0,),)),
        PiecewiseFunction((-1.0, 0.0, 1.0), ((-0.0, -0.0), (0.0, -0.0, 1.0))),
        from_breakpoints([-1.0, 0.0, 1.0], [[-0.0, -0.0], [5.0, -0.0, 1.0]]),
        from_breakpoints([-1.0, 0.5, 1.0], [[1.0, -0.0, -0.0], [-0.0, -1.0, -0.0, 2.0]]),
        from_global_coeffs([-1.0, 0.0, 1.0], [[-0.0, -0.0], [-0.0, -0.0, -0.0]]),
    ):
        yield neg
        yield from monotone_split(neg)
    for whole in (
        PiecewiseFunction((0, 1, 3), ((1, 2), (3, -1, 1))),
        from_breakpoints([-2, 0, 1, 2], [[4, -2], [7, 0, 3], [0, 6, -3, 1]]),
        from_global_coeffs([-1, 0, 2], [[0, 0, 1], [0, 0, 1]]),
        burgers(-2, 2),
        linear(3, 1, -1, 1),
        constant(0, -1, 1),
    ):
        yield whole
        yield from monotone_split(whole)


# sha256 of repr((breakpoints, pieces, table)) over every model of
# _stored_models(): moves only with a change meant to move stored pieces
STORED_MODELS_SHA256 = "0a9d8ef67c981d22f9fc4374866f0c0dacd7c5c34031c1ef78ecdbfd50ce6286"


class TestStoredBytes:
    def test_stored_models_are_pinned(self):
        digest = hashlib.sha256()
        for f in _stored_models():
            stored = (f.breakpoints, f.pieces, f._cache["table"].tolist())
            digest.update(repr(stored).encode())
        assert digest.hexdigest() == STORED_MODELS_SHA256

    def test_each_constant_is_the_right_end_of_the_piece_before(self):
        for f in _stored_models():
            bp, pieces = f.breakpoints, f.pieces
            for i in range(1, len(pieces)):
                anchor = _poly_val(pieces[i - 1], bp[i] - bp[i - 1]) + 0.0
                assert repr(pieces[i][0]) == repr(anchor)
