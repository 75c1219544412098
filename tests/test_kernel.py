"""Bit-identity of the stacked step kernel and the shared-dt rule of run_many."""

import json
import math
from pathlib import Path
from unittest import mock

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
    linear,
    max_stable_dt,
    monotone_split,
    run,
    run_many,
    shift,
)
from degenwave.piecewise import _RANGE_SLACK
from degenwave import solver as solvermod
from degenwave.solver import _apply_step, _kernel_table, _Workspace
from kernel_reference import apply_step_reference, eval_reference

SEEDS = st.integers(0, 2 ** 32 - 1)


def random_model(seed):
    rng = np.random.default_rng(seed)
    return rng, rm.random_flux(rng), rm.random_monotone_diffusion(rng)


def random_values(rng, phi, g, n):
    """Values in the covered range, some placed exactly on breakpoints."""
    values = rng.uniform(-1.9, 1.9, size=n)
    bps = np.concatenate([f.breakpoints for f in (*monotone_split(phi), g)])
    hits = rng.random(size=n) < 0.2
    values[hits] = rng.choice(bps, size=int(hits.sum()))
    return values


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def one_step(table, values, dx, dt):
    """``_apply_step`` on ``values``: pad them, build the workspace, step once."""
    ws = _Workspace(table, values, dx, dt)
    _apply_step(ws, *ws.bufs)
    return ws.bufs[1][1:-1]


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, n=st.sampled_from([4, 64, 5000]))
def test_fused_kernel_matches_reference_bit_for_bit(seed, n):
    rng, phi, g = random_model(seed)
    values = random_values(rng, phi, g, n)
    dx = 1.0 / n
    dt = float(rng.uniform(0.1, 1.0)) * min(max_stable_dt(phi, g, -2.0, 2.0, dx), 1.0)
    up, down = monotone_split(phi)
    out = one_step(_kernel_table(phi, g), values, dx, dt)
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
    # phi_up and phi_down are stored as cubics and their own tables trim to
    # degree 1, so the kernel table holds one Horner pair (D = 1); a flat g is
    # padded up from degree 0
    rng = np.random.default_rng(seed)
    phi, g = linear_model(rng, g_degree)
    up, down = monotone_split(phi)
    assert max(map(len, up.pieces)) == max(map(len, down.pieces)) == 4
    assert up._cache["table"].shape[0] == down._cache["table"].shape[0] == 3
    assert g._cache["table"].shape[0] == 2 + g_degree
    inner, coeffs = _kernel_table(phi, g)
    assert coeffs.shape[0] == 3                      # left ends, c1, c0
    assert coeffs[1, 0].any() and coeffs[1, 1].any()
    assert coeffs[1, 2].any() == bool(g_degree)
    values = random_values(rng, phi, g, n)
    dx = 1.0 / n
    dt = float(rng.uniform(0.1, 1.0)) * min(max_stable_dt(phi, g, -2.0, 2.0, dx), 1.0)
    out = one_step((inner, coeffs), values, dx, dt)
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
    table = f._cache["table"]
    assert table.shape == (4, 2)                     # left ends, then c2, c1, c0
    assert not np.signbit(table[1:]).any()


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
    up, down = monotone_split(phi)
    for row in values:
        got = one_step(_kernel_table(phi, g), row, 1.0 / 16, 1e-3)
        assert np.array_equal(bits(got), bits(apply_step_reference(up, down, g, row, 1.0 / 16, 1e-3)))


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS)
def test_eval_unchecked_matches_reference_bit_for_bit(seed):
    rng, phi, g = random_model(seed)
    x = rng.uniform(-2.0, 2.0, size=257)
    # a (rows, n) block as entropy_residual passes it, breakpoints included,
    # and a 0-d argument as eval passes a scalar
    block = random_values(rng, phi, g, 4 * 64).reshape(4, 64)
    point = np.asarray(rng.choice(block.ravel()))
    single = from_breakpoints((-2.0, 2.0), [[float(c) for c in rng.uniform(-1, 1, size=d + 1)]
                                            for d in [int(rng.integers(0, 4))]])
    for f in (phi, g, *monotone_split(phi), single, burgers(), constant(0.3)):
        for arg in (x, block, point):
            got, want = f._eval_unchecked(arg), eval_reference(f, arg)
            assert np.shape(got) == np.shape(want) == arg.shape
            assert np.array_equal(bits(got), bits(want))


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS)
def test_piece_index_matches_clamped_search(seed):
    # the former formula: search all breakpoints, step back one, clamp
    rng, phi, g = random_model(seed)
    for f in (phi, g, *monotone_split(phi), burgers(), constant(0.3)):
        bp = np.asarray(f.breakpoints)
        slack = _RANGE_SLACK * (f.hi - f.lo)
        points = [*f.breakpoints, f.lo - slack, f.lo + slack, f.hi - slack, f.hi + slack,
                  *rng.uniform(f.lo, f.hi, size=8)]
        for u in points:
            old = int(np.searchsorted(bp, u, side="right")) - 1
            assert f.piece_index(u) == min(max(old, 0), len(f.pieces) - 1)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, n=st.sampled_from([4, 5, 64, 400]), data=st.data())
def test_run_snapshots_match_reference_loop(seed, n, data):
    # run steps in two swapped padded buffers; every snapshot row must equal
    # the reference state after its step count, and the table owns its memory
    rng, phi, g = random_model(seed)
    grid = Grid(n)
    u0 = rm.random_field(rng, grid)
    cap = max_stable_dt(phi, g, float(u0.values.min()), float(u0.values.max()), grid.dx)
    t_end = data.draw(st.floats(0.5, 30.0)) * (0.5 * cap if math.isfinite(cap) else 1.0)
    picks = st.one_of(st.sampled_from([0.0, t_end]), st.floats(0.0, t_end))
    times = sorted(data.draw(st.lists(picks, max_size=8)) + [0.0, t_end])
    times += [times[data.draw(st.integers(0, len(times) - 1))]]    # one repeated time
    made = []
    with mock.patch.object(solvermod, "_Workspace",
                           lambda *args: made.append(_Workspace(*args)) or made[-1]):
        res = run(phi, g, u0, SchemeParams(t_end=t_end, snapshot_times=sorted(times)))
    up, down = monotone_split(phi)
    states = [u0.values]
    for _ in range(res.step_count):
        states.append(apply_step_reference(up, down, g, states[-1], grid.dx, res.dt))
    assert res.times[-1] == res.step_count * res.dt
    for t, row in zip(res.times.tolist(), res.values):
        k = round(t / res.dt)
        assert t == k * res.dt
        assert np.array_equal(bits(row), bits(states[k]))
    (ws,) = made
    assert not any(np.shares_memory(res.values, a)
                   for a in (u0.values, *ws.bufs, ws.gath, ws.t, ws.lap))


def test_run_table_rows_are_bounded_by_steps():
    # thousands of requested times on a run of a few steps: one row per step
    # taken, plus the initial state, and the allocation is no larger
    grid = Grid(8)
    u0 = Field(grid, 0.5 + 0.25 * np.sin(2 * np.pi * grid.cell_centers()))
    phi, g = linear(1.0, 0.0, -1, 1), constant(0.0, -1, 1)
    t_end = 7.0 / 16.0  # seven steps of dt = cfl_safety * dx
    params = SchemeParams(t_end=t_end, snapshot_times=tuple(np.linspace(0.0, t_end, 5000)))
    res = run(phi, g, u0, params)
    assert res.step_count == 7
    assert res.table.shape == (res.step_count + 1, grid.n_cells + 1)
    assert res.table.base.shape[0] <= res.step_count + 2
    assert np.array_equal(res.times, res.dt * np.arange(res.step_count + 1))


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
        assert got.times.tolist() == want.times.tolist()
        assert np.array_equal(bits(got.values), bits(want.values))


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
