"""Byte identity of the row-blocked entropy and weak-form residuals against full-matrix loops."""

import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randmodels as rm
from degenwave import (DegenwaveError, Field, Grid, PiecewiseFunction, SchemeParams, TestBump,
                       UnsupportedTestFnError, burgers, diagnostics, parse_config, run)
from degenwave.solver import RunResult
from entropy_reference import entropy_residual as entropy_residual_reference
from entropy_reference import snapshot_matrix, space_factor, time_factor
from entropy_reference import weak_form_residual as weak_form_residual_reference

SEEDS = st.integers(0, 2 ** 32 - 1)
# cells per row block: one cell, a few, one row of the run ("row"), the former
# 2^16 and the current constant; a block always holds one row at least
BLOCK_CELLS = st.sampled_from([1, 100, "row", 1 << 16, diagnostics._BLOCK_CELLS])


def block_of(block_cells, n):
    return n if block_cells == "row" else block_cells


def edge_bumps(rng, t_end):
    """Bumps with random centres and widths inside (0, t_end)."""
    bumps = []
    for _ in range(int(rng.integers(1, 4))):
        lo, hi = (np.sort(rng.uniform(0.05, 0.95, size=2)) * t_end).tolist()
        if hi - lo > 1e-3 * t_end:
            bumps.append(TestBump(0.5 * (lo + hi), float(rng.uniform(0, 1)),
                                  0.5 * (hi - lo), float(rng.uniform(0.05, 0.6))))
    return bumps


def support_edges(bump):
    """Each end of a bump's time support, and one ulp either side of it."""
    out = []
    for e in (bump.t_center - bump.sigma_t, bump.t_center + bump.sigma_t):
        out += [e, float(np.nextafter(e, -np.inf)), float(np.nextafter(e, np.inf))]
    return out


def synthetic_run(rng, phi, g, n, count, t_end, extra_times):
    """A RunResult of random snapshots of the model ``(phi, g)`` whose times include
    ``extra_times``."""
    inner = list(rng.uniform(0.0, t_end, size=max(count - 2 - len(extra_times), 0)))
    if inner and rng.random() < 0.3:
        inner.append(inner[0])  # a repeated time gets zero trapezoid weight
    times = sorted([0.0, t_end, *extra_times, *inner])
    grid = Grid(n)
    table = np.column_stack([times, [rm.random_field(rng, grid).values for _ in times]])
    params = SchemeParams(t_end=t_end, snapshot_times=tuple(times))
    return RunResult(table, grid, phi, g, step_count=len(times) - 1,
                     dt=t_end / len(times), params=params)


def outcome(fn, *args, **kwargs):
    try:
        return json.dumps(fn(*args, **kwargs).to_dict())
    except DegenwaveError as e:  # both sides must fail the same way
        return f"{type(e).__name__}: {e}"


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, n=st.sampled_from([4, 37, 1000, 5000]), count=st.integers(2, 40),
       block_cells=BLOCK_CELLS,
       k_kind=st.sampled_from(["default", "random", "empty", "outside"]),
       bump_kind=st.sampled_from(["default", "edges", "empty"]))
def test_blocked_residual_matches_reference_bytes(seed, n, count, block_cells,
                                                  k_kind, bump_kind):
    rng = np.random.default_rng(seed)
    phi, g = rm.random_flux(rng), rm.random_monotone_diffusion(rng)
    t_end = float(rng.uniform(0.1, 3.0))
    bumps = edge_bumps(rng, t_end) if bump_kind == "edges" else []
    res = synthetic_run(rng, phi, g, n, count, t_end, [t for b in bumps for t in support_edges(b)])
    data = snapshot_matrix(res)
    k_values = {
        "default": None,
        "random": list(rng.uniform(-1.9, 1.9, size=4)) + list(rng.choice(data.ravel(), 3)),
        "empty": [],
        "outside": [0.0, 2.5],  # beyond the models' [-2, 2] range
    }[k_kind]
    test_fns = None if bump_kind == "default" else bumps
    kwargs = dict(k_values=k_values, test_fns=test_fns)
    want = outcome(entropy_residual_reference, res, phi, g, **kwargs)
    with mock.patch.object(diagnostics, "_BLOCK_CELLS", block_of(block_cells, n)):
        got = outcome(diagnostics.entropy_residual, res, **kwargs)
    assert got == want


def dead_bump(rng, times):
    """A bump inside the widest gap between snapshot times: no row is live."""
    gaps = np.diff(times)
    i = int(np.argmax(gaps))
    return TestBump(float(times[i] + 0.5 * gaps[i]), float(rng.uniform(0, 1)),
                    0.25 * float(gaps[i]), float(rng.uniform(0.05, 0.6)))


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, n=st.sampled_from([4, 37, 1000, 5000]), count=st.integers(2, 40),
       block_cells=BLOCK_CELLS,
       bump_kind=st.sampled_from(["edges", "dead"]))
def test_weak_form_matches_full_matrix_repr(seed, n, count, block_cells, bump_kind):
    rng = np.random.default_rng(seed)
    phi, g = rm.random_flux(rng), rm.random_monotone_diffusion(rng)
    t_end = float(rng.uniform(0.1, 3.0))
    bumps = edge_bumps(rng, t_end) if bump_kind == "edges" else []
    res = synthetic_run(rng, phi, g, n, count, t_end, [t for b in bumps for t in support_edges(b)])
    if bump_kind == "dead":
        bumps = [dead_bump(rng, res.times)]
    for bump in bumps:
        want = weak_form_residual_reference(res, phi, g, bump)
        with mock.patch.object(diagnostics, "_BLOCK_CELLS", block_of(block_cells, n)):
            got = diagnostics.weak_form_residual(res, bump)
        assert repr(got) == repr(want)


def test_blocks_outside_every_bump_are_not_evaluated():
    """phi(U) and g(U) are evaluated only for row blocks that some bump sees."""
    rng = np.random.default_rng(5)
    phi, g = rm.random_flux(rng), rm.random_monotone_diffusion(rng)
    grid = Grid(16)
    times = [i / 20 for i in range(21)]
    res = RunResult(np.column_stack([times, [rm.random_field(rng, grid).values for _ in times]]),
                    grid, phi, g, step_count=20, dt=0.05,
                    params=SchemeParams(t_end=1.0, snapshot_times=tuple(times)))
    bump = TestBump(0.5, 0.5, 0.18, 0.3)  # live rows 7..13, t in (0.32, 0.68)
    shapes = []
    evaluate = PiecewiseFunction.eval

    def counted(self, u):
        shapes.append(np.shape(u))
        return evaluate(self, u)

    with mock.patch.object(diagnostics, "_BLOCK_CELLS", 2 * 16), \
            mock.patch.object(PiecewiseFunction, "eval", counted):
        got = diagnostics.weak_form_residual(res, bump)
    # two rows per block: rows 7..13 lie in the blocks at rows 6, 8, 10 and 12,
    # each evaluated once for phi and once for g
    assert shapes == [(2, 16)] * 8
    assert repr(got) == repr(weak_form_residual_reference(res, phi, g, bump))


def pair_hexes(report):
    """``float.hex`` of every (k, bump) residual of an entropy report."""
    return [float.hex(p["residual"]) for p in report.extra["pairs"]]


def entropy_matches_reference(res, k_values=None):
    """The entropy residuals of ``res`` equal the full-matrix loop's to the bit;
    returns the report."""
    got = diagnostics.entropy_residual(res, k_values=k_values)
    want = entropy_residual_reference(res, res.phi, res.g, k_values=k_values)
    assert pair_hexes(got) == pair_hexes(want)
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
    return got


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, n=st.sampled_from([4, 37, 1000]),
       block_cells=BLOCK_CELLS,
       k_kind=st.sampled_from(["default", "random"]))
def test_flat_g_runs_match_reference_hex(seed, n, block_cells, k_kind):
    # g holds one constant on the data range, so G drops for every k where g
    # takes that constant; the default constants reach 10% past the data,
    # where a rising last piece of g does not
    rng = np.random.default_rng(seed)
    phi = rm.random_flux(rng)
    g, top = rm.random_flat_diffusion(rng)
    grid = Grid(n)
    u0 = rm.random_field(rng, grid, -1.9, top - 0.05)
    res = run(phi, g, u0, SchemeParams(t_end=0.05, snapshot_times=tuple(np.linspace(0, 0.05, 9))))
    k_values = None if k_kind == "default" else \
        list(rng.uniform(-1.9, 1.9, size=3)) + list(rng.choice(res.values.ravel(), 3))
    with mock.patch.object(diagnostics, "_BLOCK_CELLS", block_of(block_cells, n)):
        entropy_matches_reference(res, k_values)


def test_constant_data_take_the_zero_sum_fallback():
    # u = k = 0.3 makes |u-k| and sign(u-k)(phi(u)-phi(k)) zero in every cell,
    # so every row sum of the k = 0.3 pairs is 0 and is recomputed with G
    grid = Grid(64)
    res = run(burgers(), PiecewiseFunction((-2.0, 0.0, 2.0), ((0.0,), (0.0,)), True),
              Field(grid, np.full(64, 0.3)),
              SchemeParams(t_end=0.1, snapshot_times=(0.0, 0.05, 0.1)))
    rep = entropy_matches_reference(res, k_values=[-0.5, 0.3, 0.3, 1.25])
    assert {p["residual"] for p in rep.extra["pairs"] if p["k"] == 0.3} == {0.0}


def test_flat_g_keeps_g_where_f_xx_is_not_finite():
    # sigma_x = 1e-160 overflows f_xx to -inf at the cell the bump is centred
    # on; the full formula's +0.0 * -inf is NaN there, which skipping G would
    # hide. entropy_residual refuses the bump, as its C2 bound is not finite,
    # so the quadrature is asked directly
    grid = Grid(64)
    u0 = Field(grid, 0.3 + 0.2 * np.sin(2 * np.pi * grid.cell_centers()))
    res = run(burgers(), PiecewiseFunction((-2.0, 0.0, 2.0), ((0.0,), (0.0,)), True), u0,
              SchemeParams(t_end=0.1, snapshot_times=(0.0, 0.05, 0.1)))
    bump = TestBump(0.05, float(grid.cell_centers()[7]), 0.04, 1e-160)
    with np.errstate(all="ignore"):
        ((got,),) = diagnostics._bump_integrals(res, [bump], [0.3])
    assert math.isnan(got)
    for fn, args in ((diagnostics.entropy_residual, ()),
                     (entropy_residual_reference, (res.phi, res.g))):
        with pytest.raises(UnsupportedTestFnError, match=r"sigma_x = 1e-160 is too narrow"):
            fn(res, *args, k_values=[0.3], test_fns=[bump])


def test_g_that_overflows_everywhere_keeps_the_g_term():
    # g(u) = 1e308 (1 + u) is inf on [1, 1.5] and so is g(k): one value equal
    # to g(k), but inf - inf is NaN, which skipping G would hide
    g = PiecewiseFunction((0.0, 2.0), ((1e308, 1e308),), True)
    grid = Grid(16)
    times = [0.0, 0.25, 0.5, 0.75, 1.0]
    rng = np.random.default_rng(3)
    table = np.column_stack([times, rng.uniform(1.0, 1.5, size=(len(times), 16))])
    res = RunResult(table, grid, PiecewiseFunction((0.0, 2.0), ((0.0, 1.0),)), g,
                    step_count=4, dt=0.25, params=SchemeParams(t_end=1.0, snapshot_times=times))
    with np.errstate(all="ignore"):
        got = diagnostics.entropy_residual(res, k_values=[1.25])
        want = entropy_residual_reference(res, res.phi, res.g, k_values=[1.25])
    assert pair_hexes(got) == pair_hexes(want) == ["nan"] * 6


def test_mixed_band_keeps_the_g_term():
    # data across g's kink at 0.8: g(U) is not one value, so no k drops G
    bundle = Path(__file__).resolve().parent.parent / "configs" / "acceptance_suite.json"
    (spec,) = [s for s in json.loads(bundle.read_text()) if s["name"] == "mixed_band"]
    spec.update(grid={"n_cells": 64}, scheme={"t_end": 0.1, "snapshot_times": [0.05]})
    cfg = parse_config(json.dumps(spec))
    res = run(cfg.phi, cfg.g, cfg.initial, cfg.scheme)
    assert np.ptp(res.g.eval(res.values)) > 0.0
    with mock.patch.object(diagnostics, "_BLOCK_CELLS", 64):
        entropy_matches_reference(res)


@pytest.mark.parametrize("bump", [TestBump(0.5, 0.3, 0.2, 0.3), TestBump(0.5, 0.97, 0.45, 0.6),
                                  TestBump(0.5, 0.5, 0.3, 1.7)],
                         ids=["narrow", "wraps", "wide"])
def test_factors_match_the_per_order_bump_bitwise(bump):
    """``_time`` and ``_space`` give every order from one exp pass, bit for bit
    the per-order formula, on the 16384-cell grid and at the edges of the support."""
    centers = Grid(16384).cell_centers()
    # each end of the support, one ulp either side, and 1% of the width inside
    edges = [bump.x_center + sign * bump.sigma_x + m for sign in (-1.0, 1.0) for m in (-1, 0, 1)]
    inside = [bump.x_center + sign * 0.99 * bump.sigma_x for sign in (-1.0, 1.0)]
    xs = np.concatenate([centers, [float(np.nextafter(e, d)) for e in edges
                                   for d in (-np.inf, np.inf)], edges, inside])
    t_edges = [bump.t_center - bump.sigma_t, bump.t_center + bump.sigma_t]
    ts = np.concatenate([np.linspace(0.0, 1.0, 97), t_edges,
                         [float(np.nextafter(e, d)) for e in t_edges for d in (-np.inf, np.inf)]])
    spaces = bump._space(xs, 2)
    assert len(spaces) == 3
    for order in range(3):
        assert spaces[order].tobytes() == space_factor(bump, xs, order).tobytes()
        assert bump._space(xs, order)[order].tobytes() == spaces[order].tobytes()
        assert bump._time(ts, order).tobytes() == time_factor(bump, ts, order).tobytes()
    assert (spaces[0][-2:] > 0.0).all() and (spaces[2][-2:] != 0.0).all()


def test_observed_of_zero_residuals_is_positive_zero():
    # u = k in every cell: every residual is +0.0, every violation -0.0
    grid = Grid(64)
    res = run(burgers(), PiecewiseFunction((-2.0, 0.0, 2.0), ((0.0,), (0.0,)), True),
              Field(grid, np.full(64, 0.3)),
              SchemeParams(t_end=0.1, snapshot_times=(0.0, 0.05, 0.1)))
    rep = entropy_matches_reference(res, k_values=[0.3])
    assert {p["residual"] for p in rep.extra["pairs"]} == {0.0}
    assert rep.passed and math.copysign(1.0, rep.observed) == 1.0


@pytest.mark.parametrize("sigma_t, k, message", [
    # budget_scale is 10 * (1/16 + 1/4) and C2 about 3.7e307 at sigma_t = 7.5e-154:
    # the budget is finite for k = 0.5, past the float range for k = 1
    (7.5e-154, 0.5, None),
    (7.5e-154, 1.0, "the entropy budget of bump 1 at k = 1.0 is not finite"),
    (1e-154, 0.5, "bump width sigma_t = 1e-154 is too narrow: its C2 bound is not finite"),
    (1e-200, 0.5, "bump width sigma_t = 1e-200 is too narrow: its C2 bound is not finite"),
])
def test_a_budget_that_is_not_finite_gives_no_verdict(sigma_t, k, message):
    # a budget of inf would make every violation -0.0 and the check pass; at
    # sigma_t = 1e-200 the C2 bound's sigma_t * sigma_t underflows to 0
    rng = np.random.default_rng(2)
    times = [0.0, 0.25, 0.5, 0.75, 1.0]
    table = np.column_stack([times, rng.uniform(0.2, 0.8, size=(len(times), 16))])
    res = RunResult(table, Grid(16), burgers(), PiecewiseFunction((-2.0, 2.0), ((0.0,),), True),
                    step_count=4, dt=0.25, params=SchemeParams(t_end=1.0, snapshot_times=times))
    kwargs = dict(k_values=[0.25, k],
                  test_fns=[TestBump(0.5, 0.5, 0.2, 0.3), TestBump(0.5, 0.5, sigma_t, 0.3)])
    got = outcome(diagnostics.entropy_residual, res, **kwargs)
    assert got == outcome(entropy_residual_reference, res, res.phi, res.g, **kwargs)
    if message is None:
        assert all(math.isfinite(p["budget"]) for p in json.loads(got)["extra"]["pairs"])
    else:
        assert got == f"UnsupportedTestFnError: {message}"
