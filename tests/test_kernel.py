"""Bit-identity of the stacked step kernel and the shared-dt rule of run_many."""

import itertools
import json
import math
import tracemalloc
from fractions import Fraction
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
    parse_config,
    run,
    run_many,
    shift,
    step,
)
from degenwave.piecewise import _RANGE_SLACK
from degenwave import solver as solvermod
from degenwave.solver import _STEP_SLACK, _apply_step, _flat_g, _kernel_table, _Workspace
from exact_reference import exact_step, step_error_bound
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


def one_piece_values(rng, inner, n, hi=2.0):
    """A merged piece ``k`` below ``hi`` and values inside it, some on its left end."""
    ends = np.concatenate(([-2.0], inner[inner < hi], [hi]))
    k = int(rng.integers(ends.size - 1))
    values = rng.uniform(ends[k], ends[k + 1], size=n)
    values[rng.random(size=n) < 0.2] = ends[k]
    return k, np.minimum(values, np.nextafter(ends[k + 1], -np.inf))


def steps_match_reference(phi, g, values, dt, count):
    """``count`` steps of one workspace equal the reference steps bit for bit;
    returns the workspace."""
    up, down = monotone_split(phi)
    dx = 1.0 / values.size
    ws = _Workspace(_kernel_table(phi, g), values, dx, dt)
    cur, nxt = ws.bufs
    want = values
    for _ in range(count):
        _apply_step(ws, cur, nxt)
        cur, nxt = nxt, cur
        want = apply_step_reference(up, down, g, want, dx, dt)
        assert np.array_equal(bits(cur[1:-1]), bits(want))
    return ws


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, n=st.sampled_from([4, 64, 5000]))
def test_one_piece_kernel_matches_reference_bit_for_bit(seed, n):
    # data in one merged piece take the path without the lookup; three steps,
    # since each must rewrite the accumulator row that the last one consumed
    rng, phi, g = random_model(seed)
    inner, _ = _kernel_table(phi, g)
    k, values = one_piece_values(rng, inner, n)
    dx = 1.0 / n
    cap = max_stable_dt(phi, g, float(values.min()), float(values.max()), dx)
    dt = float(rng.uniform(0.1, 1.0)) * min(cap, 1.0)
    ws = steps_match_reference(phi, g, values, dt, 3)
    assert ws.piece == k


# three merged pieces: phi kinks at 0 and g at 0.5, and D = 2
KINKED = (from_breakpoints((-2.0, 0.0, 2.0), [[0.0, -1.0], [0.0, 1.0, 0.5]]),
          from_breakpoints((-2.0, 0.5, 2.0), [[0.0], [0.0, 0.3]], monotone=True))


@pytest.mark.parametrize("lo, hi, piece", [
    (-0.5, 0.0, None),          # max on a breakpoint touches the next piece
    (-0.5, -1e-12, 0),
    (0.0, 0.4, 1),              # min on a breakpoint lies in the right-hand piece
    (0.0, 0.5, None),
    (0.5, 1.5, 2),
    (-1.0, 1.0, None),
])
def test_one_piece_selection_at_breakpoints(lo, hi, piece):
    phi, g = KINKED
    inner, coeffs = _kernel_table(phi, g)
    assert inner.tolist() == [0.0, 0.5] and coeffs.shape[0] == 4
    grid = Grid(64)
    values = lo + (hi - lo) * (0.5 + 0.5 * np.sin(2 * np.pi * grid.cell_centers()))
    values[[0, 32]] = lo, hi
    dt = 0.5 * max_stable_dt(phi, g, lo, hi, grid.dx)
    ws = steps_match_reference(phi, g, values, dt, 4)
    assert ws.piece == piece
    assert (ws.idx is None) == (piece is not None)     # one piece: no lookup


def test_run_raises_when_a_snapshot_leaves_the_kernel_piece(monkeypatch):
    # the max principle keeps every state in piece 1, [0, 0.5); a step that
    # breaks it is caught at the next snapshot
    phi, g = KINKED
    grid = Grid(64)
    u0 = Field(grid, 0.25 + 0.2 * np.sin(2 * np.pi * grid.cell_centers()))
    params = SchemeParams(t_end=0.05, snapshot_times=(0.0, 0.05))
    res = run(phi, g, u0, params)
    assert res.step_count > 1

    def leaky(ws, cur, nxt):
        _apply_step(ws, cur, nxt)
        nxt[9] = 0.5

    monkeypatch.setattr(solvermod, "_apply_step", leaky)
    with pytest.raises(RuntimeError, match=r"t=.* left kernel piece 1"):
        run(phi, g, u0, params)


@pytest.mark.parametrize("phi", [constant(0.3), linear(0.0, -0.2)], ids=["constant", "flat"])
def test_degree_zero_one_piece_steps(phi):
    # constant phi and g leave no Horner row, so every step restores the
    # accumulator that the flux sum overwrote; the data stay as they are
    g = from_breakpoints((-2.0, 1.0, 2.0), [[0.25], [0.0]], monotone=True)
    assert _kernel_table(phi, g)[1].shape[0] == 2
    values = 0.5 + 0.25 * np.sin(2 * np.pi * Grid(32).cell_centers())
    ws = steps_match_reference(phi, g, values, 1e-3, 5)
    assert ws.piece == 0 and not ws.rest
    assert np.array_equal(ws.bufs[1][1:-1], values)
    # phi_down is +0.0 at D = 0, so adding it leaves the row as it was; a
    # table whose down row is 1e308 shows that each step starts from the
    # table again: a row that kept its sum would reach inf - inf = nan
    inner, coeffs = _kernel_table(phi, g)
    coeffs = coeffs.copy()
    coeffs[1, 1] = 1e308
    ws = _Workspace((inner, coeffs), values, 1.0 / 32, 1e-3)
    for cur, nxt in [ws.bufs, ws.bufs[::-1]] * 2:
        _apply_step(ws, cur, nxt)
    assert np.array_equal(ws.bufs[0][1:-1], values)


def counted_gathers(ws):
    """The list that every later gather of ``ws`` appends its indices to."""
    take, gathers = ws.take, []
    ws.take = lambda *args: gathers.append(args[0]) or take(*args)
    return gathers


def lookup_steps(phi, g, values, dt, count):
    """``count`` lookup steps of one workspace against the reference steps,
    bit for bit; returns the gathers the steps made and the count of steps
    that read another piece map than the step before (the build's, first)."""
    up, down = monotone_split(phi)
    inner, coeffs = _kernel_table(phi, g)
    dx = 1.0 / values.size
    ws = _Workspace((inner, coeffs), values, dx, dt)
    assert ws.piece is None and ws.idx is not None
    gathers = counted_gathers(ws)
    cur, nxt = ws.bufs
    want, last, changes = values, inner.searchsorted(values, "right"), 0
    for _ in range(count):
        pieces = inner.searchsorted(want, "right")
        changes += not np.array_equal(pieces, last)
        last = pieces
        _apply_step(ws, cur, nxt)
        cur, nxt = nxt, cur
        want = apply_step_reference(up, down, g, want, dx, dt)
        assert np.array_equal(bits(cur[1:-1]), bits(want))
    return len(gathers), changes


def test_a_step_gathers_only_when_the_piece_map_changes():
    # mixed_band's data straddle g's kink at 0.8, and the diffusion moves
    # cells across it now and then: 31 of the first 300 steps read a new map
    cfg = mixed_band()
    values = cfg.initial.values
    dt = 0.5 * max_stable_dt(cfg.phi, cfg.g, float(values.min()), float(values.max()),
                             cfg.initial.grid.dx)
    gathers, changes = lookup_steps(cfg.phi, cfg.g, values, dt, 300)
    assert gathers == changes and 0 < changes < 300


def test_a_map_that_changes_on_every_step_is_gathered_on_every_step():
    # a linear flux with a breakpoint at 0.5, at Courant number 1: each step
    # moves the cells of 0.25 and 0.75 one cell on, so every cell changes
    # piece; the first step reads the map that the build gathered
    phi = from_breakpoints((-2.0, 0.5, 2.0), [[0.0, 1.0], [0.0, 1.0]])
    g = constant(0.0)
    values = np.where(np.arange(16) % 2 == 0, 0.25, 0.75)
    dt = max_stable_dt(phi, g, 0.25, 0.75, 1.0 / 16)
    assert _kernel_table(phi, g)[0].tolist() == [0.5] and dt == 1.0 / 16
    assert lookup_steps(phi, g, values, dt, 6) == (5, 5)


def test_degree_zero_lookup_steps():
    # constant pieces leave no Horner row, so each step copies the gathered
    # leading row. In a table whose pieces hold different constants, a stale
    # row would show: each state is rolled one cell on before its step, which
    # gives it a new piece map, and a workspace built from that state alone
    # is the oracle
    phi = from_breakpoints((-2.0, 0.5, 2.0), [[0.3], [0.3]])
    inner, coeffs = _kernel_table(phi, constant(0.25))
    assert inner.tolist() == [0.5] and coeffs.shape[0] == 2
    coeffs = coeffs.copy()
    coeffs[1, 0], coeffs[1, 2] = (0.3, 0.7), (0.25, 0.5)     # phi_up and g jump at 0.5
    table, dx, dt = (inner, coeffs), 1.0 / 32, 1e-3
    state = 0.5 + 0.25 * np.sin(2 * np.pi * Grid(32).cell_centers())
    ws = _Workspace(table, state, dx, dt)
    assert ws.idx is not None and ws.diffusion is not None and not ws.rest
    gathers = counted_gathers(ws)
    cur, nxt = ws.bufs
    for _ in range(6):
        state = np.roll(state, 1)
        cur[1:-1], cur[0], cur[-1] = state, state[-1], state[0]
        _apply_step(ws, cur, nxt)
        assert np.array_equal(bits(nxt[1:-1]), bits(one_step(table, state, dx, dt)))
        state = nxt[1:-1].copy()
    assert len(gathers) == 6


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, n=st.sampled_from([4, 64, 5000]), one_piece=st.booleans())
def test_flat_g_kernel_matches_reference_bit_for_bit(seed, n, one_piece):
    # g holds one constant on the data range, in one piece or in several, so
    # the step skips the diffusion terms, with or without the piece lookup
    rng = np.random.default_rng(seed)
    phi = rm.random_flux(rng)
    g, top = rm.random_flat_diffusion(rng)
    inner, _ = _kernel_table(phi, g)
    if one_piece:
        k, values = one_piece_values(rng, inner, n, top)
    else:
        values = rng.uniform(-2.0, top, size=n)
        cuts, hits = inner[inner < top], rng.random(size=n) < 0.2
        if cuts.size:
            values[hits] = rng.choice(cuts, size=int(hits.sum()))
    dx = 1.0 / n
    cap = max_stable_dt(phi, g, float(values.min()), float(values.max()), dx)
    dt = float(rng.uniform(0.1, 1.0)) * min(cap, 1.0)
    ws = steps_match_reference(phi, g, values, dt, 3)
    assert ws.diffusion is None
    if one_piece:
        assert ws.piece == k


@pytest.mark.parametrize("phi, lookup", [(constant(0.3), False), (burgers(), True)],
                         ids=["one_piece", "lookup"])
def test_flat_g_step_adds_the_plus_zero_diffusion_term(phi, lookup):
    # a -0.0 cell between equal fluxes gives u - dt/dx (...) = -0.0; the full
    # update adds a +0.0 Laplacian there, so the flat step must add +0.0 too
    values = np.full(16, -0.0)
    values[5:9] = 0.25
    values[12] = -0.25 if lookup else 0.25   # burgers' split kinks at 0
    ws = steps_match_reference(phi, constant(0.5), values, 1e-3, 1)
    assert ws.diffusion is None and (ws.piece is None) == lookup
    out = ws.bufs[1][1:-1]
    zeros = out == 0.0
    assert zeros[np.signbit(values)].any() and not np.signbit(out[zeros]).any()


@pytest.mark.parametrize("c", [1e308, -1e308])
def test_flat_g_whose_doubling_overflows_keeps_the_full_path(c):
    # c + c is not finite, so neither is the Laplacian: the step must keep it,
    # and the run reports "field values must lie in [-2^64, 2^64]"
    values = 0.5 + 0.25 * np.sin(2 * np.pi * Grid(16).cell_centers())
    with np.errstate(over="ignore", invalid="ignore"):
        ws = steps_match_reference(linear(1.0), constant(c), values, 1e-3, 1)
    assert ws.diffusion is not None
    assert not np.isfinite(ws.bufs[1][1:-1]).any()


def test_near_flat_g_keeps_the_full_path():
    # a slope of 1e-300 is not flat: with a flat flux, dt/dx^2 ~ 1/Lg scales
    # the tiny Laplacian up to a visible change of the data
    phi, g = constant(0.0), linear(1e-300)
    values = 0.5 + 0.25 * np.sin(2 * np.pi * Grid(16).cell_centers())
    dt = 0.5 * max_stable_dt(phi, g, float(values.min()), float(values.max()), 1.0 / 16)
    ws = steps_match_reference(phi, g, values, dt, 2)
    assert ws.diffusion is not None
    assert not np.array_equal(ws.bufs[0][1:-1], values)


def test_flat_g_predicate_reads_the_pieces_of_the_data():
    # KINKED's g is 0 below 0.5 and rises above it; merged pieces split at 0 and 0.5
    inner, coeffs = _kernel_table(*KINKED)
    assert _flat_g(coeffs, 0, 1, 1.0) and not _flat_g(coeffs, 1, 2, 1.0)
    assert not _flat_g(coeffs, 0, 1, math.inf)
    # two flat pieces of different constants, a table no continuous g makes
    other = coeffs.copy()
    other[-1, 2, 1] = 0.25
    assert not _flat_g(other, 0, 1, 1.0) and _flat_g(other, 1, 1, 1.0)


def test_flat_g_with_infinite_dt_dx2_keeps_the_full_path():
    # flat phi and g admit any step; 1e300 / dx^2 overflows, and the full
    # update's +0.0 * inf makes every cell NaN, which step reports
    grid = Grid(16384)
    u0 = Field(grid, 0.5 + 0.25 * np.sin(2 * np.pi * grid.cell_centers()))
    phi, g = constant(0.3), constant(0.0)
    with np.errstate(invalid="ignore"):
        ws = steps_match_reference(phi, g, u0.values, 1e300, 1)
    assert ws.diffusion is not None
    assert np.isnan(ws.bufs[1][1:-1]).all()
    with pytest.raises(ValueError, match="field values must lie in"):
        step(phi, g, u0, 1e300)


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


def mixed_band():
    """The acceptance bundle's ``mixed_band`` scenario: n=400, flux kink at 0, g flat below 0.8."""
    bundle = Path(__file__).resolve().parent.parent / "configs" / "acceptance_suite.json"
    (spec,) = [s for s in json.loads(bundle.read_text()) if s["name"] == "mixed_band"]
    return parse_config(json.dumps(spec))


def test_band_squeeze_table_is_linear():
    # the mixed_band model has three merged pieces
    cfg = mixed_band()
    phi, g = cfg.phi, cfg.g
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


# signed zeros, subnormals, the smallest normal, ordinary values, the largest
# finite values (whose doubling overflows) and the infinities
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
                    2.2250738585072014e-308, 0.1, -0.3, 1.0, 3.7e5, -6.02e23,
                    1.7976931348623157e308, -1.7976931348623157e308, 8.98846567431158e307,
                    math.inf, -math.inf])


def test_doubling_by_addition_is_bit_identical():
    # the kernel forms 2 G_j as G_j + G_j
    x = np.concatenate((SPECIAL, np.random.default_rng(0).standard_normal(64) * 1e300))
    with np.errstate(over="ignore"):
        want = np.multiply(2.0, x)
        got = np.add(x, x, np.empty_like(x))
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("ratio", [0.5, 1.0, 0.0125, 1.0 / 3.0, 7.2e-5, 5e-324, 1e-310,
                                   3.0e5, 1.7976931348623157e308])
def test_zero_d_array_operand_is_bit_identical_to_float(ratio):
    # the kernel holds dt/dx and dt/dx^2 as 0-d float64 arrays
    x = np.concatenate((SPECIAL, np.random.default_rng(1).uniform(-2.0, 2.0, size=64)))
    with np.errstate(over="ignore", under="ignore"):
        want = np.multiply(x, ratio)
        got = np.multiply(x, np.array(ratio), np.empty_like(x))
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(bits(got), bits(want))


def step_peak(ws, before=None):
    """Peak traced bytes of one ``_apply_step``, after an untraced one and
    then ``before()``."""
    _apply_step(ws, *ws.bufs)              # first calls may fill caches of numpy's
    if before is not None:
        before()
    tracemalloc.start()
    try:
        _apply_step(ws, *ws.bufs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def step_case(case, lookup=False):
    """The workspace of a step of ``case``, named by its model and cell count.
    With ``lookup`` the data cross a flux kink, with ``g`` as flat on them as
    without, so the step looks its pieces up."""
    if case.startswith("mixed_band"):
        cfg = mixed_band()
        phi, g, values = cfg.phi, cfg.g, cfg.initial.values
        if case.endswith("plateau"):               # inside [0, 0.8], one piece
            mid = 0.2 if lookup else 0.4           # [-0.1, 0.5] crosses the kink at 0
            values = mid + 0.3 * np.sin(2 * np.pi * cfg.initial.grid.cell_centers())
    else:                                           # burgers_n: g = 0; viscous_n: g' = 0.05
        model, n = case.split("_")
        grid = Grid(int(n))
        phi, g = burgers(), constant(0.0) if model == "burgers" else linear(0.05)
        mid = 0.1 if lookup else 0.5               # burgers' split kinks at 0
        values = mid + 0.3 * np.sin(2 * np.pi * grid.cell_centers())
    n = values.size
    dt = 0.5 * max_stable_dt(phi, g, float(values.min()), float(values.max()), 1.0 / n)
    return _Workspace(_kernel_table(phi, g), values, 1.0 / n, dt)


# besides its piece indices, a step allocates two numpy scalars for the ghost
# cells and the header of the index array: 64 to 192 bytes with numpy 2.4,
# measured; the rest leaves room for the Python-level wrappers of older numpy.
# No operation of a step broadcasts, so numpy's iteration buffers take nothing
SLACK = 512


@pytest.mark.parametrize("case", ["mixed_band_400", "burgers_16384", "mixed_band_400_plateau"])
def test_a_step_allocates_only_its_piece_indices(case):
    ws = step_case(case, lookup=True)
    assert (ws.diffusion is None) == (case != "mixed_band_400")    # g flat on the data
    assert ws.piece is None and ws.idx is not None                 # the data cross a kink
    n, slack = ws.lap.size, SLACK
    idx = ws.search(ws.bufs[0], "right")
    assert idx.shape == (n + 2,)
    old = np.setbufsize(16)
    try:
        # both steps start from bufs[0], whose piece map the build gathered
        built = ws.idx
        assert step_peak(ws) <= idx.nbytes + slack
        assert ws.idx is built

        def roll():                         # other cells take each index: a new map
            ws.bufs[0][:] = np.roll(ws.bufs[0], 7)

        assert step_peak(ws, roll) <= idx.nbytes + slack
        here = ws.idx
        assert here is not built and np.array_equal(here, ws.search(ws.bufs[0], "right"))
        assert not np.array_equal(here, idx)
        # handed its indices, a step allocates nothing that grows with n,
        # whether its map is unchanged or changed: a temporary of n cells would show
        ws.search = lambda *args: here
        assert step_peak(ws) <= slack and ws.idx is here
        turns = itertools.cycle((idx, here))
        ws.search = lambda *args: next(turns)
        assert step_peak(ws) <= slack and ws.idx is here
    finally:
        np.setbufsize(old)


@pytest.mark.parametrize("case", ["burgers_400", "burgers_16384", "mixed_band_400_plateau",
                                  "viscous_400"])
def test_a_one_piece_step_allocates_nothing_that_grows_with_n(case):
    ws = step_case(case)
    assert ws.piece is not None
    assert (ws.diffusion is None) == (case != "viscous_400")       # g flat on the data
    old = np.setbufsize(16)
    try:
        assert step_peak(ws) <= SLACK
    finally:
        np.setbufsize(old)


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
        # arguments confined to one piece, its left end included, read that
        # piece's column alone; eval picks that path from their range
        k = int(rng.integers(len(f.pieces)))
        a, b = f.breakpoints[k], f.breakpoints[k + 1]
        inside = rng.uniform(a, b, size=(4, 64))
        inside[:, ::7] = a
        inside = np.minimum(inside, np.nextafter(b, a) if k + 1 < len(f.pieces) else b)
        want = eval_reference(f, inside)
        for got in (f._eval_unchecked(inside, k), f.eval(inside)):
            assert got.shape == inside.shape and got.base is None
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


def loop_snapshots(dt, t_end, requested):
    """The (step, time) of every row that a loop testing each step in turn
    records: the rule ``run`` evaluates before it steps."""
    ptr, k = 0, 0
    while True:
        k += 1
        t = k * dt
        final = t >= t_end - _STEP_SLACK * dt
        due = ptr < len(requested) and t >= requested[ptr] - _STEP_SLACK * dt
        if final or due:
            yield k, t
            while ptr < len(requested) and (final or requested[ptr] <= t + _STEP_SLACK * dt):
                ptr += 1
        if final:
            return


@st.composite
def schedules(draw, dt):
    """``(t_end, times)`` for steps of ``dt``: up to 400 steps, a horizon on,
    near or between step times, and times of every kind ``run`` must tell
    apart: repeated, on a step, within the slack of one either side, at
    ``t_end * (1 + 1e-12)``, and many on a few steps."""
    steps = draw(st.integers(1, 400))
    near = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    t_end = draw(st.one_of(
        st.just(steps * dt),
        st.builds(lambda c: steps * dt + c * _STEP_SLACK * dt, near),
        st.floats(0.01, 1.0).map(lambda f: (steps - 1 + f) * dt)))
    on = st.integers(0, steps).map(lambda i: i * dt)
    picks = st.one_of(
        st.floats(0.0, t_end), on,
        st.builds(lambda t, c: t + c * _STEP_SLACK * dt, on, near),
        st.sampled_from([0.0, t_end, t_end * (1.0 + 1e-12)]))
    times = draw(st.lists(picks, max_size=12))
    crowd = draw(st.integers(0, steps))                 # many times on a few steps
    times += draw(st.lists(st.floats(crowd * dt, (crowd + 2) * dt), max_size=30))
    times += times[:draw(st.integers(0, 3))]            # repeated times
    return t_end, sorted(min(max(t, 0.0), t_end * (1.0 + 1e-12)) for t in times)


@settings(max_examples=200, deadline=None)
@given(dt=st.floats(1e-300, 1e300), data=st.data())
def test_snapshot_steps_match_a_loop_over_every_step(dt, data):
    t_end, times = data.draw(schedules(dt))
    requested = [t for t in times if t > 0.0]
    want = [k for k, _ in loop_snapshots(dt, t_end, requested)]
    last = solvermod.require_step_budget(dt, t_end, 1)
    assert solvermod._snapshot_steps(dt, last, requested) == want


@settings(max_examples=300, deadline=None)
@given(dt=st.floats(1e-300, 1e300), data=st.data())
def test_step_budget_is_the_last_step_of_a_loop_over_every_step(dt, data):
    # the budget's count is the step a loop testing every step ends on, also
    # for a horizon within the slack past a step time: dt = 0.5 * (1/1120)
    # with t_end 0.05 ends on step 112, where ceil(t_end/dt) is 113
    t_end, _ = data.draw(schedules(dt))
    *_, (last, _) = loop_snapshots(dt, t_end, [])
    assert solvermod.require_step_budget(dt, t_end, 1) == last


@settings(max_examples=300, deadline=None)
@given(dt=st.floats(1e-300, 1e300), i=st.integers(1, 10 ** 8), ulps=st.integers(-2, 2))
def test_first_step_is_the_first_to_reach(dt, i, ulps):
    # a threshold on or next to a step time: x / dt may round past i, so the
    # scan must start below ceil(x / dt)
    x = i * dt
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    k = solvermod._first_step(x, dt)
    assert k * dt >= x and (k == 1 or (k - 1) * dt < x)


@settings(max_examples=60, deadline=None)
@given(scale=st.floats(1e-3, 1.0), data=st.data())
def test_run_rows_match_a_loop_over_every_step(scale, data):
    # transport at speed 1 on 8 cells: dx = 1/8 is the step limit; run at
    # a step of ``scale`` times it records the rows of the loop, bit for bit
    grid = Grid(8)
    u0 = Field(grid, 0.5 + 0.25 * np.sin(2 * np.pi * grid.cell_centers()))
    phi, g, dt = linear(1.0, 0.0, -1, 1), constant(0.0, -1, 1), scale / 8
    t_end, times = data.draw(schedules(dt))
    params = SchemeParams(t_end=t_end, snapshot_times=tuple(times))
    res = run(phi, g, u0, params, _dt=dt)
    ws = _Workspace(_kernel_table(phi, g), u0.values, grid.dx, dt)
    cur, nxt = ws.bufs
    want_times, want_rows, done = [0.0], [u0.values], 0
    for k, t in loop_snapshots(dt, t_end, [t for t in times if t > 0.0]):
        for _ in range(k - done):
            _apply_step(ws, cur, nxt)
            cur, nxt = nxt, cur
        done = k
        want_times.append(t)
        want_rows.append(cur[1:-1].copy())
    assert res.step_count == done
    assert res.times.tolist() == want_times
    assert np.array_equal(bits(res.values), bits(np.array(want_rows)))


def test_run_table_rows_are_bounded_by_steps():
    # thousands of requested times on a run of a few steps: one row per step
    # taken, plus the initial state, and the allocation is no larger: run
    # counts the rows before it steps
    grid = Grid(8)
    u0 = Field(grid, 0.5 + 0.25 * np.sin(2 * np.pi * grid.cell_centers()))
    phi, g = linear(1.0, 0.0, -1, 1), constant(0.0, -1, 1)
    t_end = 7.0 / 16.0  # seven steps of dt = cfl_safety * dx
    params = SchemeParams(t_end=t_end, snapshot_times=tuple(np.linspace(0.0, t_end, 5000)))
    res = run(phi, g, u0, params)
    assert res.step_count == 7
    assert res.table.shape == (res.step_count + 1, grid.n_cells + 1)
    assert res.table.base is None                    # allocated with exactly these rows
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

    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, n=st.sampled_from([4, 64]), cfl=st.floats(0.01, 1.0),
           t_end=st.sampled_from([0.0, 0.3]))
    def test_binding_member_gives_the_smallest_member_limit(self, seed, n, cfl, t_end):
        # cfl_safety * 1/(largest sum of the terms) is, bit for bit, the
        # smallest cfl_safety * max_stable_dt: x -> 1/x does not increase in floats
        rng, phi, g = random_model(seed)
        grid = Grid(n)
        members = [Field(grid, random_values(rng, phi, g, n)) for _ in range(3)]
        want = cfl * min(max_stable_dt(phi, g, float(u.values.min()), float(u.values.max()),
                                       grid.dx) for u in members)
        if math.isinf(want):
            want = t_end if t_end > 0.0 else 1.0
        params = SchemeParams(t_end=t_end, cfl_safety=cfl)
        assert solvermod.shared_dt(phi, g, members, params) == want

    def test_a_limit_whose_reciprocal_overflows_falls_back_to_t_end(self):
        # Lphi/dx is subnormal, so its reciprocal, the step limit, is inf
        grid = Grid(16)
        phi, g = linear(1e-310, 0.0, -1, 1), constant(0.0, -1, 1)
        u = self.sine(grid, 0.5, 0.2)
        assert math.isinf(max_stable_dt(phi, g, 0.3, 0.7, grid.dx))
        assert solvermod.shared_dt(phi, g, [u], SchemeParams(t_end=0.3)) == 0.3

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


def exact_pair(seed, scale, n=16):
    """Rough data ``u <= v`` on ``n`` cells of a random model, stepped exactly
    at ``scale`` times ``max_stable_dt`` of their joint range (1 where that is
    infinite): ``u, v, H(u), H(v)``."""
    rng, phi, g = random_model(seed)
    u = random_values(rng, phi, g, n)
    v = np.maximum(u, np.minimum(u + rng.uniform(0.0, 0.5, n) * (rng.random(n) < 0.5), 1.9))
    limit = max_stable_dt(phi, g, float(u.min()), float(v.max()), 1.0 / n)
    dt = 1.0 if math.isinf(limit) else scale * limit
    return u, v, exact_step(phi, g, u, 1.0 / n, dt), exact_step(phi, g, v, 1.0 / n, dt)


def exact_violations(u, v, hu, hv):
    """Whether the exact step breaks comparison, and whether it breaks the max principle."""
    return (any(a > b for a, b in zip(hu, hv)),
            any(not x.min() <= h <= x.max() for x, hx in ((u, hu), (v, hv)) for h in hx))


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS)
def test_exact_step_is_monotone_just_below_the_step_limit(seed):
    # in exact arithmetic, u <= v gives H(u) <= H(v), and H(u) stays within
    # [min u, max u], for the stored model at (1 - 1e-12) x the float limit
    assert exact_violations(*exact_pair(seed, 1.0 - 1e-12)) == (False, False)


def test_exact_step_breaks_order_above_the_step_limit():
    # negative control: at 1.1 x the limit, rough data break exact comparison
    # (5 of these 40 models) and the max principle (3 of them)
    found = [exact_violations(*exact_pair(seed, 1.1)) for seed in range(40)]
    assert all(map(any, zip(*found)))


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, smooth=st.booleans())
def test_float_step_lies_within_its_forward_error_bound(seed, smooth):
    # every cell of the float kernel within gamma_{3D+6} S_j of the exact
    # step, the bound derived from the kernel's roundings; smooth or rough data
    # at (1 - 1e-12) x the float limit, as the exact monotonicity test steps
    rng, phi, g = random_model(seed)
    n = 16
    u = rm.random_field(rng, Grid(n)).values if smooth else random_values(rng, phi, g, n)
    limit = max_stable_dt(phi, g, float(u.min()), float(u.max()), 1.0 / n)
    dt = 1.0 if math.isinf(limit) else (1.0 - 1e-12) * limit
    got = one_step(_kernel_table(phi, g), u, 1.0 / n, dt).tolist()
    want = exact_step(phi, g, u, 1.0 / n, dt)
    bound = step_error_bound(phi, g, u, 1.0 / n, dt)
    assert all(abs(Fraction(h) - e) <= b for h, e, b in zip(got, want, bound))
