"""Monotone conservative finite-volume stepper with periodic boundary.

The update is explicit in time. Convection uses the Engquist-Osher flux,
whose split parts are precomputed once per flux function as piecewise
polynomials (integrals of max(phi', 0) and min(phi', 0), exact per piece).
Diffusion uses the standard three-point stencil on g(u). Under the time-step
restriction

    dt * (Lphi / dx + 2 * Lg / dx^2) <= 1,

with Lphi, Lg Lipschitz constants over the data range, the update is
nondecreasing in every stencil argument. That single property yields the
discrete comparison principle, L1 contraction, and the max principle, which
the diagnostics check verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import CflViolationError, GridMismatchError
from .grid import Field, Grid
from .piecewise import PiecewiseFunction, lipschitz_on, monotone_split
from .structure import StructureReport, analyze

_STEP_SLACK = 1e-9
MAX_STEPS = 10 ** 8  # the most steps one run may take
MAX_CELL_STEPS = 400 * MAX_STEPS  # the most cell updates (steps x cells) one run may make


@dataclass(frozen=True)
class SchemeParams:
    """Run controls: CFL safety factor, horizon, and snapshot schedule.

    ``snapshot_times`` must be finite, nondecreasing and lie in [0, t_end].
    The run records the state at the first step time at or past each
    requested time (plus the initial state and the final state, always).
    """

    t_end: float
    cfl_safety: float = 0.5
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self):
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError("cfl_safety must be in (0, 1]")
        if self.t_end < 0.0 or not math.isfinite(self.t_end):
            raise ValueError("t_end must be finite and nonnegative")
        times = tuple(float(t) for t in self.snapshot_times)
        if not all(map(math.isfinite, times)):
            raise ValueError("snapshot_times must be finite")
        if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("snapshot_times must be nondecreasing")
        if times and (times[0] < 0.0 or times[-1] > self.t_end * (1.0 + 1e-12)):
            raise ValueError("snapshot_times must lie in [0, t_end]")
        object.__setattr__(self, "snapshot_times", times)


@dataclass
class RunResult:
    """Snapshot trajectory together with the model ``(phi, g)`` that made it.

    ``table`` holds one row per snapshot: its time, then its cell values on
    ``grid`` (the layout of ``snapshots.csv``); ``times`` and ``values`` are
    views. ``structure`` is ``analyze(phi, g, initial)``, computed on first
    read and kept, so a run whose structure is never read is never analyzed.
    """

    table: np.ndarray
    grid: Grid
    phi: PiecewiseFunction
    g: PiecewiseFunction
    step_count: int
    dt: float
    params: SchemeParams

    @cached_property
    def structure(self) -> StructureReport:
        return analyze(self.phi, self.g, self.initial)

    @property
    def times(self) -> np.ndarray:
        return self.table[:, 0]

    @property
    def values(self) -> np.ndarray:
        return self.table[:, 1:]

    @cached_property
    def initial(self) -> Field:
        return Field(self.grid, self.table[0, 1:])

    @cached_property
    def final(self) -> Field:
        return Field(self.grid, self.table[-1, 1:])


def max_stable_dt(phi: PiecewiseFunction, g: PiecewiseFunction,
                  u_min: float, u_max: float, dx: float) -> float:
    """Largest dt keeping the update monotone for data in [u_min, u_max]."""
    denom = lipschitz_on(phi, u_min, u_max) / dx \
        + 2.0 * lipschitz_on(g, u_min, u_max) / (dx * dx)
    return math.inf if denom == 0.0 else 1.0 / denom


@lru_cache(maxsize=64)
def _kernel_table(phi: PiecewiseFunction, g: PiecewiseFunction):
    """One stacked breakpoint table for ``phi_up``, ``phi_down`` and ``g``.

    The merged inner breakpoints locate a value with one ``searchsorted``.
    The table, of shape ``(D+2, 3, m)`` for ``m`` merged pieces, holds per
    function the columns of its own evaluation table (``_cache["table"]``:
    left end, then coefficients from its degree down to 0) for the piece
    each merged piece lies in. ``D`` is the largest degree of the three; a
    function of lower degree gets +0.0 rows between its left ends and its
    coefficients.

    Every value is bit-identical to ``_eval_unchecked``, which runs the same
    Horner rows without the padding: ``±0 + c == c`` for every ``c`` but
    -0.0, and ``PiecewiseFunction`` stores no -0.0 coefficient.
    """
    funcs = (*monotone_split(phi), g)
    inner = np.array(sorted({float(b) for f in funcs for b in f._cache["inner"]}))
    depth = max(f._cache["table"].shape[0] for f in funcs)
    stacked = []
    for f in funcs:
        own = f._cache["table"][:, np.concatenate(
            ([0], np.searchsorted(f._cache["inner"], inner, side="right")))]
        pad = np.zeros((depth - own.shape[0], own.shape[1]))
        stacked.append(np.vstack((own[:1], pad, own[1:])))
    return inner, np.stack(stacked, axis=1)


class _Workspace:
    """Buffers, views and constants of ``_apply_step``, built once per run, so
    a step allocates only its piece indices. ``bufs`` are two ghost-padded
    ``(n+2,)`` states, the first holding ``values``."""

    def __init__(self, table, values: np.ndarray, dx: float, dt: float):
        inner, coeffs = table
        self.search, self.take = inner.searchsorted, coeffs.take
        n = values.size
        self.bufs = (np.concatenate((values[-1:], values, values[:1])), np.empty(n + 2))
        self.gath = np.empty((coeffs.shape[0], 3, n + 2))
        self.left, self.acc, *self.rest = self.gath
        self.t, self.lap = np.empty((3, n + 2)), np.empty(n)
        flux, down, G = self.acc
        self.views = (flux[:-1], down[1:], flux[1:-1], flux[:-2], G[2:], G[1:-1], G[:-2])
        self.dt_dx, self.dt_dx2 = dt / dx, dt / (dx * dx)


def _apply_step(ws: _Workspace, cur: np.ndarray, nxt: np.ndarray) -> None:
    """One explicit update from the padded state ``cur`` into ``nxt``.

    Both are ghost-padded ``(n+2,)`` buffers of ``ws``, so neighbours are
    slices of one contiguous array. One gather fetches the piece data of all
    three functions, and one stacked Horner scheme evaluates them, each in
    its own piece-local variable. The arithmetic matches
    ``u - dt/dx (F_{j+1/2} - F_{j-1/2}) + dt/dx^2 (G_{j+1} - 2 G_j + G_{j-1})``
    operation for operation, so the output is the same to the bit.
    """
    # indices lie in [0, m-1], so "wrap" never wraps; unlike "raise" it writes out unbuffered
    ws.take(ws.search(cur, side="right"), axis=2, out=ws.gath, mode="wrap")
    acc, t = ws.acc, ws.t
    np.subtract(cur, ws.left, out=t)
    for c in ws.rest:
        np.multiply(acc, t, out=acc)
        np.add(acc, c, out=acc)
    flux_l, down_r, flux_c, flux_p, g_r, g_c, g_l = ws.views
    np.add(flux_l, down_r, out=flux_l)      # F_{j+1/2} = up_j + down_{j+1}
    out, lap = nxt[1:-1], ws.lap
    np.subtract(flux_c, flux_p, out=out)
    np.multiply(out, ws.dt_dx, out=out)
    np.subtract(cur[1:-1], out, out=out)
    np.multiply(2.0, g_c, out=lap)
    np.subtract(g_r, lap, out=lap)
    np.add(lap, g_l, out=lap)
    np.multiply(lap, ws.dt_dx2, out=lap)
    np.add(out, lap, out=out)
    nxt[0], nxt[-1] = nxt[-2], nxt[1]       # one ghost cell per side


def _step_limit(phi: PiecewiseFunction, g: PiecewiseFunction, u: Field,
                dt: float | None = None) -> float:
    """``max_stable_dt`` for the data range of ``u``.

    Raises ValueError unless ``g`` is flagged monotone_nondecreasing, and
    CflViolationError when ``dt`` is given and lies outside ``[0, limit]``.
    """
    if not g.monotone_nondecreasing:
        raise ValueError("diffusion function must be flagged monotone_nondecreasing")
    u_min = float(u.values.min())
    u_max = float(u.values.max())
    dt_max = max_stable_dt(phi, g, u_min, u_max, u.grid.dx)
    # a negative step runs the update backward, which is not monotone; NaN fails too
    if dt is not None and not 0.0 <= dt <= dt_max * (1.0 + _STEP_SLACK):
        raise CflViolationError(
            f"dt={dt!r} lies outside [0, {dt_max!r}], the monotone range for data in "
            f"[{u_min!r}, {u_max!r}]"
        )
    return dt_max


def step(phi: PiecewiseFunction, g: PiecewiseFunction, u: Field, dt: float) -> Field:
    """One explicit update. Raises CflViolationError when dt breaks monotonicity,
    and ValueError unless ``g`` is flagged monotone_nondecreasing."""
    _step_limit(phi, g, u, dt)
    ws = _Workspace(_kernel_table(phi, g), u.values, u.grid.dx, dt)
    with np.errstate(over="ignore", invalid="ignore"):  # Field reports non-finite values
        _apply_step(ws, *ws.bufs)
    return Field(u.grid, ws.bufs[1][1:-1])


def shared_dt(phi: PiecewiseFunction, g: PiecewiseFunction, u0s,
              params: SchemeParams) -> float:
    """One time step admissible for every field of ``u0s``.

    The smallest ``cfl_safety * max_stable_dt`` over the members' data
    ranges; only when every member's limit is infinite, ``t_end`` (or 1 for
    a zero horizon).
    """
    dt = params.cfl_safety * min(_step_limit(phi, g, u) for u in u0s)
    if math.isinf(dt):
        return params.t_end if params.t_end > 0.0 else 1.0
    return dt


def require_step_budget(dt: float, t_end: float, n_cells: int) -> int:
    """The steps ``dt`` takes to reach ``t_end`` (none for a zero horizon).

    Raises CflViolationError unless ``t_end > 0`` is reached within
    ``MAX_STEPS`` steps and ``MAX_CELL_STEPS`` updates of ``n_cells`` cells."""
    if t_end > 0.0 and not dt * MAX_STEPS >= t_end:  # also dt <= 0 or NaN
        why = "is not positive, so t_end is never reached" if not dt > 0.0 else \
            f"needs {t_end / dt:.3g} steps to reach t_end, more than MAX_STEPS = {MAX_STEPS}"
        raise CflViolationError(f"time step {dt!r} {why}")
    steps = math.ceil(t_end / dt) if t_end > 0.0 else 0
    if steps * n_cells > MAX_CELL_STEPS:
        raise CflViolationError(
            f"time step {dt!r} needs {steps} steps of {n_cells} cells to reach t_end, "
            f"{steps * n_cells:.3g} cell updates, more than MAX_CELL_STEPS = {MAX_CELL_STEPS}")
    return steps


def run(phi: PiecewiseFunction, g: PiecewiseFunction, u0: Field,
        params: SchemeParams, _dt: float | None = None) -> RunResult:
    """Advance ``u0`` to ``t_end``, recording snapshots as the rows of a table.

    The time step is fixed for the whole run from the initial data range,
    which stays valid because the range never grows (max principle). The
    step count is deterministic for a given configuration. ``_dt`` forces a
    specific (still admissible) step; ``run_many`` passes its shared step
    this way. While ``t_end > 0``, a step that is not positive or needs more
    than ``MAX_STEPS`` steps or ``MAX_CELL_STEPS`` cell updates raises
    CflViolationError before any allocation.
    ``g`` must be flagged monotone_nondecreasing (ValueError otherwise) and
    the model must cover the data range only (OutOfRangeError otherwise).
    """
    if _dt is None:
        dt = shared_dt(phi, g, [u0], params)
    else:
        _step_limit(phi, g, u0, _dt)
        dt = _dt
    steps = require_step_budget(dt, params.t_end, u0.grid.n_cells)
    requested = [t for t in params.snapshot_times if t > 0.0]
    # one row per due step (at most one per requested time), the initial and the final state
    table = np.empty((min(len(requested), steps) + 2, u0.grid.n_cells + 1))
    table[0, 0], table[0, 1:] = 0.0, u0.values
    s, ptr, k = 1, 0, 0
    if params.t_end > 0.0:
        ws = _Workspace(_kernel_table(phi, g), u0.values, u0.grid.dx, dt)
        cur, nxt = ws.bufs
        # an overflow shows as non-finite values at the next snapshot, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                k += 1
                t = k * dt
                _apply_step(ws, cur, nxt)
                cur, nxt = nxt, cur
                final = t >= params.t_end - _STEP_SLACK * dt
                due = ptr < len(requested) and t >= requested[ptr] - _STEP_SLACK * dt
                if final or due:
                    table[s, 0], table[s, 1:] = t, cur[1:-1]
                    if not np.isfinite(table[s, 1:]).all():
                        raise ValueError("field values must be finite")
                    s += 1
                    while ptr < len(requested) and (final or requested[ptr] <= t + _STEP_SLACK * dt):
                        ptr += 1
                if final:
                    break
    return RunResult(table[:s], u0.grid, phi, g, k, dt, params)


def run_many(phi: PiecewiseFunction, g: PiecewiseFunction, u0s,
             params: SchemeParams) -> list[RunResult]:
    """Advance every field of ``u0s`` to ``t_end`` with one shared time step.

    The step is ``shared_dt`` of the members, so it is admissible for each of
    them, and by the discrete comparison principle the trajectories stay
    exactly comparable: same snapshot times, order and L1 contraction between
    them. Each member is one ``run``; results come back in the order of
    ``u0s``.
    """
    u0s = list(u0s)
    if not u0s:
        raise ValueError("run_many needs at least one initial field")
    if any(u0.grid != u0s[0].grid for u0 in u0s):
        raise GridMismatchError("all initial fields of one run must share a grid")
    dt = shared_dt(phi, g, u0s, params)
    return [run(phi, g, u0, params, _dt=dt) for u0 in u0s]
