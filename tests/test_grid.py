import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randmodels as rm
from degenwave import (
    Field,
    Grid,
    GridMismatchError,
    SchemeParams,
    TestBump,
    constant,
    constant_field,
    l1_distance,
    linear,
    mean,
    positive_part_distance,
    shift,
    total_variation,
    weak_form_residual,
)
from degenwave.diagnostics import _time_weights
from degenwave.grid import MAX_ABS, exact_row_sums, integral, l1_to_constant
from degenwave.solver import RunResult


def test_grid_rejects_tiny():
    with pytest.raises(ValueError):
        Grid(3)


def test_grid_cell_count_must_be_an_integer():
    grid = Grid(np.int64(8))
    assert type(grid.n_cells) is int and grid == Grid(8)
    assert constant_field(Grid(np.int32(8)), 1.0).values.shape == (8,)
    for bad in (4.5, 8.0, "8"):
        with pytest.raises(TypeError):
            Grid(bad)


def test_field_validates_shape_and_finiteness():
    g = Grid(4)
    with pytest.raises(ValueError):
        Field(g, [1.0, 2.0])
    with pytest.raises(ValueError):
        Field(g, [1.0, 2.0, np.nan, 0.0])


def test_field_values_lie_in_the_value_range():
    g = Grid(4)
    assert Field(g, [MAX_ABS, -MAX_ABS, 0.0, 1.0]).values.tolist() == [MAX_ABS, -MAX_ABS, 0.0, 1.0]
    for bad in (math.nextafter(MAX_ABS, math.inf), -math.nextafter(MAX_ABS, math.inf),
                math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"field values must lie in \[-2\^64, 2\^64\]"):
            Field(g, [0.0, bad, 0.0, 0.0])


class TestDistances:
    def test_l1_zero_for_equal(self):
        g = Grid(16)
        u = constant_field(g, 0.7)
        assert l1_distance(u, u) == 0.0

    def test_l1_unit_measure(self):
        g = Grid(10)
        assert l1_distance(constant_field(g, 1.0), constant_field(g, 0.0)) == 1.0

    def test_l1_half_indicator(self):
        g = Grid(8)
        vals = np.zeros(8)
        vals[:4] = 2.0
        assert l1_distance(Field(g, vals), constant_field(g, 0.0)) == 1.0

    def test_positive_part_ordered_is_zero(self):
        g = Grid(12)
        rng = np.random.default_rng(0)
        u = Field(g, rng.uniform(0, 1, 12))
        v = Field(g, u.values + rng.uniform(0, 1, 12))
        assert positive_part_distance(u, v) == 0.0

    def test_positive_part_constants(self):
        g = Grid(12)
        assert positive_part_distance(constant_field(g, 1.0), constant_field(g, 0.0)) == 1.0

    def test_split_identity(self):
        rng = np.random.default_rng(1)
        g = Grid(32)
        for _ in range(20):
            u = rm.random_field(rng, g)
            v = rm.random_field(rng, g)
            total = positive_part_distance(u, v) + positive_part_distance(v, u)
            assert total == pytest.approx(l1_distance(u, v), abs=1e-15)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(2)
        g = Grid(24)
        for _ in range(30):
            u, v, w = (rm.random_field(rng, g) for _ in range(3))
            assert l1_distance(u, w) <= l1_distance(u, v) + l1_distance(v, w) + 1e-12

    def test_distances_whose_cell_sum_overflows(self):
        # 8 cells of 1e308 would sum past the float range: such data are out
        # of range. At its edges, |u - v| = 2^65 and its sum stay exact
        g = Grid(8)
        with pytest.raises(ValueError):
            constant_field(g, 1e308)
        u, v = constant_field(g, MAX_ABS), constant_field(g, -MAX_ABS)
        assert l1_to_constant(u, -MAX_ABS) == l1_distance(u, v) == 2.0 * MAX_ABS
        assert positive_part_distance(u, v) == 2.0 * MAX_ABS
        assert positive_part_distance(v, u) == 0.0

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            l1_distance(constant_field(Grid(8), 0.0), constant_field(Grid(16), 0.0))


class TestMean:
    def test_constant(self):
        assert mean(constant_field(Grid(7), 3.25)) == 3.25

    def test_sine_cancels(self):
        g = Grid(64)
        u = Field(g, np.sin(2 * np.pi * g.cell_centers()))
        assert abs(mean(u)) <= 1e-13

    def test_small_example(self):
        assert mean(Field(Grid(4), [0.0, 1.0, 2.0, 3.0])) == 1.5


class TestShift:
    def test_zero_and_full_turn(self):
        rng = np.random.default_rng(3)
        u = rm.random_field(rng, Grid(20))
        assert np.array_equal(shift(u, 0).values, u.values)
        assert np.array_equal(shift(u, 20).values, u.values)

    def test_bijection_exact(self):
        rng = np.random.default_rng(4)
        u = rm.random_field(rng, Grid(20))
        assert np.array_equal(shift(shift(u, 7), -7).values, u.values)

    def test_mean_invariant_exact(self):
        rng = np.random.default_rng(5)
        u = rm.random_field(rng, Grid(20))
        assert mean(shift(u, 13)) == mean(u)

    def test_mean_of_a_cell_sum_past_the_float_range(self):
        # data whose cell sum could leave the float range are out of range;
        # at the edge, the mean is the exactly rounded value
        with pytest.raises(ValueError):
            Field(Grid(12), np.full(12, 1e308))
        g = Grid(12)
        values = MAX_ABS / 2 + MAX_ABS / 4 * np.sin(2.0 * np.pi * g.cell_centers())
        exact = math.fsum(values.tolist()) * g.dx
        assert mean(Field(g, values)) == exact == -mean(Field(g, -values))
        assert mean(constant_field(Grid(8), MAX_ABS)) == MAX_ABS

    def test_integral_of_values_whose_sum_overflows(self):
        # data and times in range, but phi's slope of 2e305 drives the weak
        # form's terms: the time sum of the trapezoid overflows between its
        # rising and falling halves, and integral sums it scaled, exactly
        grid = Grid(16)
        x, times = grid.cell_centers(), 200.0 * np.arange(10)
        bump = TestBump(900.0, 0.5, 880.0, 0.3)
        rows = np.array([(1.0 if r < 5 else -0.5) * np.sign(bump._space(x, 1))
                         for r in range(10)])
        phi, g = linear(2e305), constant(0.0)
        res = RunResult(np.column_stack([times, rows]), grid, phi, g, 9, 200.0,
                        SchemeParams(t_end=1800.0, snapshot_times=tuple(times)))
        terms = (rows * bump._time(times, 1)[:, None] * bump._space(x, 0)
                 + phi.eval(rows) * bump._time(times, 0)[:, None] * bump._space(x, 1))
        w_s = (_time_weights(times) * (terms.sum(axis=1) * grid.dx)).tolist()
        with pytest.raises(OverflowError):
            math.fsum(w_s)
        exact = float(sum(map(Fraction, w_s)))
        assert weak_form_residual(res, bump) == integral(np.array(w_s), 1.0) == exact
        assert math.isfinite(exact) and exact > 1e307
        small = np.array(w_s) / 1e300
        assert integral(small, grid.dx) == math.fsum(small.tolist()) * grid.dx
        assert integral(np.stack([small, -small]), grid.dx) == [
            integral(small, grid.dx), integral(-small, grid.dx)]

    def test_distance_invariant_exact(self):
        rng = np.random.default_rng(6)
        g = Grid(28)
        u, v = rm.random_field(rng, g), rm.random_field(rng, g)
        for k in (1, 5, 27):
            assert l1_distance(shift(u, k), shift(v, k)) == l1_distance(u, v)

    def test_semantics(self):
        u = Field(Grid(4), [1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(shift(u, 1).values, [4.0, 1.0, 2.0, 3.0])


def test_total_variation_sawtooth():
    u = Field(Grid(4), [0.0, 1.0, 0.0, 1.0])
    assert total_variation(u) == 4.0


def fsum_rows(matrix):
    """``math.fsum`` of each row as hex, or the type of the first error it raises."""
    try:
        return [math.fsum(row).hex() for row in np.asarray(matrix).tolist()]
    except (OverflowError, ValueError) as exc:
        return type(exc)


def exact_rows(matrix):
    try:
        return [s.hex() for s in exact_row_sums(matrix)]
    except (OverflowError, ValueError) as exc:
        return type(exc)


def assert_matches_fsum(matrix):
    expected = fsum_rows(matrix)
    assert exact_rows(matrix) == expected


class TestExactRowSums:
    def test_cancellation_and_signed_zeros(self):
        x, y = 0.1, 1e16
        assert_matches_fsum([[x, -x, y, -y], [y, x, -y, -x], [1.0, 1e-16, -1.0, 0.0]])
        assert_matches_fsum([[0.0, -0.0], [-0.0, -0.0], [0.0, 0.0], [-0.0, 1.0]])
        assert exact_row_sums([[x, -x]]) == [0.0]

    def test_subnormals(self):
        tiny = [5e-324, -5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308]
        assert_matches_fsum([tiny, [5e-324] * 5, [5e-324, 1.0, 5e-324]])

    def test_range_that_needs_many_passes(self):
        powers = 10.0 ** np.arange(-300, 301, 7)
        signs = np.where(np.arange(powers.size) % 3 == 0, -1.0, 1.0)
        assert_matches_fsum([powers * signs, [1e-300, 1e300, -1e300, 3.0]])
        # one partial sum per pass; only their exact rounding breaks the tie at 1 + 2^-53
        assert exact_row_sums([[1.0, 2.0 ** -53, 2.0 ** -106]]) == [1.0 + 2.0 ** -52]

    def test_rows_of_different_magnitude_in_one_call(self):
        rng = np.random.default_rng(7)
        rows = rng.uniform(-1.0, 1.0, (6, 33)) * np.array([1e-200, 1e-8, 1.0, 3.0, 1e8, 1e200])[:, None]
        assert_matches_fsum(rows)

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 2 ** 14 + 1])
    def test_row_lengths(self, n):
        rng = np.random.default_rng(n)
        assert_matches_fsum(rng.normal(0.0, 1.0, (3, n)) * 10.0 ** rng.integers(-20, 20, (3, n)))

    def test_rows_left_to_fsum(self):
        # all-zero rows go to fsum, which keeps the sign of a sum of -0.0;
        # every other row splits, up to the largest magnitude the split allows
        edge = 2.0 ** 1019  # s = 2^(e+M) = 2^1023 for rows of 3 values
        rows = [[-0.0, -0.0], [0.0, -0.0], [edge, -edge, 0.5], [edge, 1.0], [0.25, 0.5]]
        assert_matches_fsum(rows)
        assert exact_rows([[4 * MAX_ABS, -4 * MAX_ABS, 1.0]]) == fsum_rows([[1.0]])


# every bit pattern of a float below 2^992 in magnitude: finite, and within
# the split's limit 2^(1023-M) for rows of up to 6 values
PATTERNS = st.integers(0, 2 ** 64 - 1).filter(lambda b: (b >> 52) & 0x7FF < 1023 + 992)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda k: st.lists(
    st.lists(PATTERNS, min_size=k, max_size=k), min_size=1, max_size=12)))
def test_exact_row_sums_random_bit_patterns(rows):
    assert_matches_fsum(np.array(rows, dtype=np.uint64).view(np.float64))


@settings(max_examples=100, deadline=None)
@given(mean_=st.floats(-2.0, 2.0), amplitude=st.floats(0.0, 1.0), noise=st.floats(0.0, 1e-3),
       n=st.integers(4, 3000), k=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_exact_row_sums_snapshot_like(mean_, amplitude, noise, n, k, seed):
    rng = np.random.default_rng(seed)
    x = (np.arange(n) + 0.5) / n
    rows = mean_ + amplitude * np.sin(2 * np.pi * (x[None, :] + rng.uniform(0, 1, (k, 1))))
    assert_matches_fsum(rows + noise * rng.standard_normal((k, n)))
