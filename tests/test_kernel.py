"""Bit-identity of the stacked step kernel and the shared-dt rule of run_many."""

import json
import math
from pathlib import Path

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


def linear_model(rng, g_degree):
    """Piecewise-linear flux that rises on one piece and falls on another, and
    a monotone g of trimmed degree ``g_degree`` (0: flat pieces only, 1: linear)."""
    bps = rm.random_breakpoints(rng)
    if len(bps) == 2:
        bps.insert(1, float(rng.uniform(-1.5, 1.5)))
    k = len(bps) - 1
    signs = rng.choice([-1.0, 0.0, 1.0], size=k)
    signs[rng.choice(k, size=2, replace=False)] = (1.0, -1.0)
    phi = from_breakpoints(bps, [[0.0, s] for s in signs * rng.uniform(0.1, 1.5, size=k)])
    gbps = rm.random_breakpoints(rng)
    slopes = rng.choice([0.0, 1.0], size=len(gbps) - 1) * rng.uniform(0.01, 0.5)
    if g_degree:
        slopes[rng.integers(len(slopes))] = 0.2
    else:
        slopes[:] = 0.0
    g = from_breakpoints(gbps, [[float(rng.uniform(-1, 1)), s] for s in slopes], monotone=True)
    return phi, g


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, n=st.sampled_from([4, 64, 5000]), g_degree=st.sampled_from([0, 1]))
def test_all_linear_table_matches_reference_bit_for_bit(seed, n, g_degree):
    # phi_up and phi_down are stored as cubics and trim to degree 1, so the
    # table holds one Horner pair (D = 1); a flat g is padded up from degree 0
    rng = np.random.default_rng(seed)
    phi, g = linear_model(rng, g_degree)
    up, down = _split(phi)
    assert up._cache["degree"] == down._cache["degree"] == 3
    inner, coeffs = _kernel_table(phi, g)
    assert coeffs.shape[0] == 3                      # left ends, c1, c0
    assert coeffs[1, 0].any() and coeffs[1, 1].any()
    assert coeffs[1, 2].any() == bool(g_degree)
    values = random_values(rng, phi, g, n)
    dx = 1.0 / n
    dt = float(rng.uniform(0.1, 1.0)) * min(max_stable_dt(phi, g, -2.0, 2.0, dx), 1.0)
    out = _apply_step((inner, coeffs), values, dx, dt)
    assert np.array_equal(bits(out), bits(apply_step_reference(up, down, g, values, dx, dt)))


def test_band_squeeze_table_is_linear():
    # the mixed_band model: flux kink at 0, g flat below 0.8; three merged pieces
    bundle = Path(__file__).resolve().parent.parent / "configs" / "acceptance_suite.json"
    (spec,) = [s for s in json.loads(bundle.read_text()) if s["name"] == "mixed_band"]
    phi, g = (PiecewiseFunction.from_dict(spec[k]) for k in ("phi", "g"))
    inner, table = _kernel_table(phi, g)
    assert inner.tolist() == [0.0, 0.8]
    assert table.shape == (3, 3, 3) and table.flags.c_contiguous


def test_zero_coefficients_are_stored_as_plus_zero():
    f = PiecewiseFunction((-2.0, 0.0, 2.0), ((-0.0, -0.0, 1.0), (4.0, -0.0, -0.0)))
    assert all(math.copysign(1.0, c) == 1.0 for p in f.pieces for c in p)
    assert not np.signbit(f._cache["C"]).any()


# a flux flat on the left and quadratic on the right, so D = 2 and the
# fluxes of the alternating row cancel to +0.0 there
FLAT_LEFT = PiecewiseFunction((-2.0, 0.0, 2.0), ((0.0,), (0.0, 0.0, 1.0)))


@pytest.mark.parametrize("phi, g", [
    (burgers(), constant(0.0)),
    (burgers(), constant(-0.25)),
    (burgers(), from_breakpoints((-2.0, 0.5, 2.0), [[0.0], [0.0, 0.3]], monotone=True)),
    (burgers(0.0, 2.0), constant(-0.0, 0.0, 2.0)),
    (PiecewiseFunction((-2.0, 0.0, 2.0), ((-0.0, -1.0), (-2.0, 0.5))), constant(0.1)),
    (FLAT_LEFT, PiecewiseFunction((-2.0, 0.0, 2.0), ((-0.0, -0.0), (0.0, 0.3)), True)),
], ids=["g0", "g1", "g2", "g_const_minus_zero", "phi_minus_zero_first_piece",
        "g_minus_zero_piece"])
def test_signed_zero_data_matches_reference(phi, g):
    # -0.0 data on the breakpoint 0.0 gives t = -0.0 - 0.0 = -0.0; a -0.0 cell
    # with zero fluxes stays -0.0 only if its Laplacian is -0.0 too (g -0.0 at
    # both neighbours, +0.0 at the cell), which the last model's third row builds
    side = -0.25 if max(phi.lo, g.lo) < 0.0 else 0.25
    values = np.full((3, 16), -0.0)
    values[1, 5:9] = 0.25
    values[2, ::2] = side
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
