import numpy as np
import pytest

import randmodels as rm
from degenwave import (
    Field,
    Grid,
    GridMismatchError,
    constant_field,
    l1_distance,
    mean,
    positive_part_distance,
    shift,
    total_variation,
)


def test_grid_rejects_tiny():
    with pytest.raises(ValueError):
        Grid(3)


def test_field_validates_shape_and_finiteness():
    g = Grid(4)
    with pytest.raises(ValueError):
        Field(g, [1.0, 2.0])
    with pytest.raises(ValueError):
        Field(g, [1.0, 2.0, np.nan, 0.0])


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


def test_field_json_list_round_trip():
    u = Field(Grid(4), [0.0, 1.5, -0.25, 1.0])
    again = Field(Grid(4), u.to_list())
    assert np.array_equal(again.values, u.values)
    assert all(isinstance(v, float) for v in u.to_list())
