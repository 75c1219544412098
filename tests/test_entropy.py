"""Byte identity of the row-blocked entropy and weak-form residuals against full-matrix loops."""

import json
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import randmodels as rm
from degenwave import DegenwaveError, Grid, PiecewiseFunction, SchemeParams, TestBump, diagnostics
from degenwave.solver import RunResult
from entropy_reference import entropy_residual as entropy_residual_reference
from entropy_reference import snapshot_matrix
from entropy_reference import weak_form_residual as weak_form_residual_reference

SEEDS = st.integers(0, 2 ** 32 - 1)


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
       block_cells=st.sampled_from([1, 100, diagnostics._BLOCK_CELLS]),
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
    with mock.patch.object(diagnostics, "_BLOCK_CELLS", block_cells):
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
       block_cells=st.sampled_from([1, 100, diagnostics._BLOCK_CELLS]),
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
        with mock.patch.object(diagnostics, "_BLOCK_CELLS", block_cells):
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
