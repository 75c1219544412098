"""Bit-identity of the fused step kernel and the shared-dt rule of run_many."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randmodels as rm
from degenwave import (
    Field,
    Grid,
    GridMismatchError,
    PiecewiseFunction,
    SchemeParams,
    burgers,
    constant,
    from_breakpoints,
    max_stable_dt,
    run,
    run_many,
    shift,
)
from degenwave.solver import _apply_step, _kernel_table, _split
from kernel_reference import apply_step_reference, eval_reference

SEEDS = st.integers(0, 2 ** 32 - 1)


def random_model(seed):
    rng = np.random.default_rng(seed)
    return rng, rm.random_flux(rng), rm.random_monotone_diffusion(rng)


def random_values(rng, phi, g, n):
    """Values in the covered range, some placed exactly on breakpoints."""
    values = rng.uniform(-1.9, 1.9, size=n)
    bps = np.concatenate([f.breakpoints for f in (*_split(phi), g)])
    hits = rng.random(size=n) < 0.2
    values[hits] = rng.choice(bps, size=int(hits.sum()))
    return values


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, n=st.sampled_from([4, 64, 5000]))
def test_fused_kernel_matches_reference_bit_for_bit(seed, n):
    rng, phi, g = random_model(seed)
    values = random_values(rng, phi, g, n)
    dx = 1.0 / n
    dt = float(rng.uniform(0.1, 1.0)) * min(max_stable_dt(phi, g, -2.0, 2.0, dx), 1.0)
    up, down = _split(phi)
    out = _apply_step(_kernel_table(phi, g), values, dx, dt)
    assert out.shape == values.shape
    assert np.array_equal(bits(out), bits(apply_step_reference(up, down, g, values, dx, dt)))


@pytest.mark.parametrize("g", [constant(0.0), constant(-0.25), from_breakpoints(
    (-2.0, 0.5, 2.0), [[0.0], [0.0, 0.3]], monotone=True)])
def test_signed_zero_data_matches_reference(g):
    # -0.0 - (+0.0) keeps the sign; the reference then adds a +0.0 stencil
    values = np.full((2, 16), -0.0)
    values[1, 5:9] = 0.25
    phi = burgers()
    up, down = _split(phi)
    for row in values:
        got = _apply_step(_kernel_table(phi, g), row, 1.0 / 16, 1e-3)
        assert np.array_equal(bits(got), bits(apply_step_reference(up, down, g, row, 1.0 / 16, 1e-3)))


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS)
def test_eval_unchecked_matches_reference_bit_for_bit(seed):
    rng, phi, g = random_model(seed)
    x = rng.uniform(-2.0, 2.0, size=257)
    single = from_breakpoints((-2.0, 2.0), [[float(c) for c in rng.uniform(-1, 1, size=d + 1)]
                                            for d in [int(rng.integers(0, 4))]])
    for f in (phi, g, *_split(phi), single, burgers(), constant(0.3)):
        assert np.array_equal(bits(f._eval_unchecked(x)), bits(eval_reference(f, x)))


@settings(max_examples=15, deadline=None)
@given(seed=SEEDS, n=st.sampled_from([64, 5000]), offset=st.integers(1, 63))
def test_run_many_rows_equal_single_runs(seed, n, offset):
    # a circular shift keeps the data range, so both data get one dt alone too
    rng, phi, g = random_model(seed)
    grid = Grid(n)
    a = rm.random_field(rng, grid)
    b = shift(a, offset)
    cap = max_stable_dt(phi, g, float(a.values.min()), float(a.values.max()), grid.dx)
    t_end = 5.0 * 0.5 * min(cap, 1.0)
    params = SchemeParams(t_end=t_end, snapshot_times=(0.0, 0.5 * t_end, t_end))
    ra, rb = run_many(phi, g, [a, b], params)
    for got, want in ((ra, run(phi, g, a, params)), (rb, run(phi, g, b, params))):
        assert got.dt == want.dt and got.step_count == want.step_count
        assert got.structure == want.structure
        assert [t for t, _ in got.snapshots] == [t for t, _ in want.snapshots]
        for (_, fg), (_, fw) in zip(got.snapshots, want.snapshots):
            assert np.array_equal(bits(fg.values), bits(fw.values))


class TestSharedDtRule:
    def sine(self, grid, mean, amp):
        return Field(grid, mean + amp * np.sin(2 * np.pi * grid.cell_centers()))

    def test_smallest_member_limit_times_cfl(self):
        grid = Grid(32)
        phi, g = burgers(-1, 1), constant(0.0, -1, 1)
        members = [self.sine(grid, 0.3, 0.2), self.sine(grid, 0.5, 0.4),
                   self.sine(grid, -0.1, 0.1)]
        params = SchemeParams(t_end=0.2, cfl_safety=0.6)
        limits = [max_stable_dt(phi, g, float(u.values.min()), float(u.values.max()),
                                grid.dx) for u in members]
        runs = run_many(phi, g, members, params)
        assert all(r.dt == 0.6 * min(limits) for r in runs)
        assert len({r.step_count for r in runs}) == 1

    def test_infinite_member_limit_is_ignored(self):
        # phi is flat below 0, so data there has no step limit; the shared
        # step comes from the other member, not from t_end
        phi = PiecewiseFunction((-1.0, 0.0, 1.0), ((0.0,), (0.0, 0.0, 1.0)))
        g = constant(0.0, -1, 1)
        grid = Grid(32)
        flat, moving = self.sine(grid, -0.5, 0.2), self.sine(grid, 0.5, 0.2)
        params = SchemeParams(t_end=0.3)
        assert math.isinf(max_stable_dt(phi, g, -0.7, -0.3, grid.dx))
        cap = max_stable_dt(phi, g, float(moving.values.min()), float(moving.values.max()),
                            grid.dx)
        runs = run_many(phi, g, [flat, moving], params)
        assert all(r.dt == 0.5 * cap for r in runs)

    def test_all_infinite_falls_back_to_t_end(self):
        grid = Grid(16)
        phi, g = constant(0.2, -1, 1), constant(0.0, -1, 1)
        runs = run_many(phi, g, [self.sine(grid, 0.1, 0.3), self.sine(grid, -0.2, 0.1)],
                        SchemeParams(t_end=0.7))
        assert [(r.dt, r.step_count) for r in runs] == [(0.7, 1), (0.7, 1)]

    def test_members_must_share_a_grid(self):
        phi, g = burgers(-1, 1), constant(0.0, -1, 1)
        with pytest.raises(GridMismatchError):
            run_many(phi, g, [self.sine(Grid(16), 0.1, 0.2), self.sine(Grid(32), 0.1, 0.2)],
                     SchemeParams(t_end=0.1))
