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
from .grid import MAX_ABS, Field, Grid, require_in_range
from .piecewise import PiecewiseFunction, lipschitz_on, monotone_split
from .structure import StructureReport, analyze

_STEP_SLACK = 1e-9
MAX_STEPS = 10 ** 8  # the most steps one run may take
MAX_CELL_STEPS = 400 * MAX_STEPS  # the most cell updates (steps x cells) one run may make


@dataclass(frozen=True)
class SchemeParams:
    """Run controls: CFL safety factor, horizon, and snapshot schedule.

    ``t_end`` must lie in [0, MAX_ABS], and ``snapshot_times`` must be
    nondecreasing and lie in [0, t_end].
    The run records the state at the first step time at or past each
    requested time (plus the initial state and the final state, always).
    """

    t_end: float
    cfl_safety: float = 0.5
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self):
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError("cfl_safety must be in (0, 1]")
        if not 0.0 <= self.t_end <= MAX_ABS:
            raise ValueError("t_end must be finite and lie in [0, 2^64]")
        times = tuple(float(t) for t in self.snapshot_times)
        if not all(abs(t) <= MAX_ABS for t in times):
            raise ValueError("snapshot_times must be finite and lie in [-2^64, 2^64]")
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


def _cfl_terms(phi: PiecewiseFunction, g: PiecewiseFunction,
               u_min: float, u_max: float, dx: float) -> tuple[float, float]:
    """``(Lphi/dx, 2 Lg/dx^2)`` for data in [u_min, u_max], the convective and
    the diffusive term of the step limit. Raises ValueError unless ``g`` is
    flagged monotone_nondecreasing: no step keeps the update monotone otherwise."""
    if not g.monotone_nondecreasing:
        raise ValueError("diffusion function must be flagged monotone_nondecreasing")
    return lipschitz_on(phi, u_min, u_max) / dx, 2.0 * lipschitz_on(g, u_min, u_max) / (dx * dx)


def max_stable_dt(phi: PiecewiseFunction, g: PiecewiseFunction,
                  u_min: float, u_max: float, dx: float) -> float:
    """Largest dt keeping the update monotone for data in [u_min, u_max], the one
    place a step limit is computed. Raises ValueError as ``_cfl_terms`` does."""
    denom = sum(_cfl_terms(phi, g, u_min, u_max, dx))
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


def _piece_span(search, values: np.ndarray) -> tuple[int, int]:
    """The first and the last merged kernel piece that ``values`` lie in, by
    ``search``, the ``searchsorted`` of the merged inner breakpoints."""
    lo, hi = search((values.min(), values.max()), "right")
    return int(lo), int(hi)


def _flat_g(coeffs: np.ndarray, lo: int, hi: int, dt_dx2: float) -> bool:
    """Whether the diffusion term of every step is exactly +0.0 for data in
    the merged kernel pieces ``lo..hi`` of ``coeffs`` (``_kernel_table``).

    That holds when ``g`` is one constant ``c`` there (every other
    coefficient +0.0, so Horner yields ``c`` in every cell of finite data),
    ``c + c`` is finite and so is ``dt/dx^2``: then
    ``G_{j+1} - (G_j + G_j) + G_{j-1}`` is ``c - 2c + c``, exactly +0.0,
    and so is its product with ``dt/dx^2``. A cell whose piece-local
    variable is not finite makes its own update non-finite with or without
    the term, so the run fails at the same snapshot either way."""
    g = coeffs[1:, 2, lo:hi + 1]
    c = float(g[-1, 0])
    return not g[:-1].any() and bool((g[-1] == c).all()) \
        and math.isfinite(c + c) and math.isfinite(dt_dx2)


class _Workspace:
    """Buffers, views and constants of ``_apply_step``, built once per run, so
    a step allocates at most its piece indices. ``bufs`` are two ghost-padded
    ``(n+2,)`` states, the first holding ``values``; ``interiors`` holds the
    ``(cur[1:-1], nxt[1:-1])`` views of a step from either one. The step
    ratios are 0-d arrays, which a ufunc takes without converting a float.

    ``gath`` holds the table columns of every cell's merged piece, gathered
    once here from ``values``: its left ends, paired row by row with the rows
    of ``t`` in ``lefts``, its leading coefficient row ``lead`` and the
    other coefficient rows ``rest``. Horner writes into ``acc``, so
    ``gath`` changes only by a gather. ``idx`` holds the piece indices that
    ``gath`` was gathered for; a step gathers again only when its own
    indices differ, which it finds through ``changed``.

    When ``values`` lie in one merged piece, ``piece`` is its index and
    ``idx`` is None: by the max principle every later state lies in
    ``[min values, max values]``, so the piece lookup would return ``piece``
    in every cell on every step, and the step never looks up. Otherwise
    ``piece`` is None.

    ``diffusion`` holds the three ``G`` views of the Laplacian, or is None
    when ``g`` is flat on the data range (``_flat_g``). Then the tables,
    ``gath`` and Horner hold the two flux rows only, and ``zero`` is the
    +0.0 that stands for the diffusion term."""

    def __init__(self, table, values: np.ndarray, dx: float, dt: float):
        inner, coeffs = table
        self.search = inner.searchsorted
        lo, hi = _piece_span(self.search, values)
        flat = _flat_g(coeffs, lo, hi, dt / (dx * dx))
        if flat:
            coeffs = np.ascontiguousarray(coeffs[:, :2])
        self.take = coeffs.take
        n = values.size
        self.bufs = (np.concatenate((values[-1:], values, values[:1])), np.empty(n + 2))
        a, b = (buf[1:-1] for buf in self.bufs)
        self.interiors = {id(self.bufs[0]): (a, b), id(self.bufs[1]): (b, a)}
        self.gath = np.empty((*coeffs.shape[:2], n + 2))
        left, self.lead, *self.rest = self.gath
        self.t, self.acc = (np.empty((coeffs.shape[1], n + 2)) for _ in range(2))
        self.lefts = tuple(zip(left, self.t))
        self.lap, self.changed = np.empty(n), np.empty(n + 2, dtype=bool)
        flux, down, G = self.acc[0], self.acc[1], self.acc[-1]
        self.views = (flux[:-1], down[1:], flux[1:-1], flux[:-2])
        self.diffusion = None if flat else (G[2:], G[1:-1], G[:-2])
        self.dt_dx, self.dt_dx2 = np.array(dt / dx), np.array(dt / (dx * dx))
        self.zero = np.zeros(())
        idx = self.search(self.bufs[0], "right")
        self.take(idx, 2, self.gath, "wrap")
        self.piece, self.idx = (lo, None) if lo == hi else (None, idx)


_add, _subtract, _multiply = np.add, np.subtract, np.multiply
_not_equal, _count_nonzero, _copyto = np.not_equal, np.count_nonzero, np.copyto


def _apply_step(ws: _Workspace, cur: np.ndarray, nxt: np.ndarray) -> None:
    """One explicit update from the padded state ``cur`` into ``nxt``.

    Both are ghost-padded ``(n+2,)`` buffers of ``ws``, so neighbours are
    slices of one contiguous array. Unless the data lie in one piece
    (``ws.idx`` None), the step looks up every cell's merged piece, and
    when any index differs from ``ws.idx`` one gather fetches the piece data
    of all three functions; otherwise the gathered data are still those of
    this step. ``t = u - left`` is formed one function row at a time, each
    a same-shape operation, and one stacked Horner scheme from ``ws.lead``
    into ``ws.acc`` evaluates the three functions, each in its own
    piece-local variable. The arithmetic matches
    ``u - dt/dx (F_{j+1/2} - F_{j-1/2}) + dt/dx^2 (G_{j+1} - 2 G_j + G_{j-1})``
    operation for operation, so the output is the same to the bit: ``2 G_j``
    is ``G_j + G_j``, exact as a doubling is. With ``g`` flat on the data
    range (``ws.diffusion`` None) the gather and Horner skip ``g``, and the
    diffusion term is added as the +0.0 it equals, which turns a -0.0 of
    ``u - dt/dx (...)`` into +0.0 as the full sum does. Every operand goes
    by position, which spares numpy parsing keywords on each call.
    """
    if ws.idx is not None:
        idx = ws.search(cur, "right")
        _not_equal(idx, ws.idx, ws.changed)
        if _count_nonzero(ws.changed):
            # indices lie in [0, m-1], so "wrap" never wraps; unlike "raise" it writes out unbuffered
            ws.take(idx, 2, ws.gath, "wrap")
            ws.idx = idx
    acc, t, lead = ws.acc, ws.t, ws.lead
    for left, row in ws.lefts:
        _subtract(cur, left, row)
    if not ws.rest:
        _copyto(acc, lead)                  # degree 0: Horner leaves the leading row
    for c in ws.rest:
        _multiply(lead, t, acc)
        _add(acc, c, acc)
        lead = acc
    flux_l, down_r, flux_c, flux_p = ws.views
    _add(flux_l, down_r, flux_l)            # F_{j+1/2} = up_j + down_{j+1}
    (u, out), lap = ws.interiors[id(cur)], ws.lap
    _subtract(flux_c, flux_p, out)
    _multiply(out, ws.dt_dx, out)
    _subtract(u, out, out)
    if ws.diffusion is None:
        _add(out, ws.zero, out)
    else:
        g_r, g_c, g_l = ws.diffusion
        _add(g_c, g_c, lap)
        _subtract(g_r, lap, lap)
        _add(lap, g_l, lap)
        _multiply(lap, ws.dt_dx2, lap)
        _add(out, lap, out)
    nxt[0], nxt[-1] = nxt[-2], nxt[1]       # one ghost cell per side


def step(phi: PiecewiseFunction, g: PiecewiseFunction, u: Field, dt: float) -> Field:
    """One explicit update, the guarded entry for a ``dt`` the caller chose. Raises
    CflViolationError when dt breaks monotonicity (lies outside ``[0, max_stable_dt]``
    of the data of ``u``, exactly), and ValueError unless ``g`` is flagged
    monotone_nondecreasing."""
    u_min, u_max = float(u.values.min()), float(u.values.max())
    dt_max = max_stable_dt(phi, g, u_min, u_max, u.grid.dx)
    # a negative step runs the update backward, which is not monotone; NaN fails too
    if not 0.0 <= dt <= dt_max:
        raise CflViolationError(f"dt={dt!r} lies outside [0, {dt_max!r}], the monotone "
                                f"range for data in [{u_min!r}, {u_max!r}]")
    ws = _Workspace(_kernel_table(phi, g), u.values, u.grid.dx, dt)
    with np.errstate(over="ignore", invalid="ignore"):  # Field rejects values out of range
        _apply_step(ws, *ws.bufs)
    return Field(u.grid, ws.bufs[1][1:-1])


def shared_dt(phi: PiecewiseFunction, g: PiecewiseFunction, u0s,
              params: SchemeParams) -> float:
    """One time step admissible for every field of ``u0s``: the smallest
    ``cfl_safety * max_stable_dt`` of a member; when that is infinite, ``t_end``
    (or 1 for a zero horizon)."""
    dt = params.cfl_safety * min(
        max_stable_dt(phi, g, float(u.values.min()), float(u.values.max()), u.grid.dx)
        for u in u0s)
    if math.isinf(dt):
        return params.t_end if params.t_end > 0.0 else 1.0
    return dt


def require_step_budget(dt: float, t_end: float, n_cells: int) -> int:
    """The step a run of ``dt`` ends on, the one place it is computed: the
    first at or within ``_STEP_SLACK`` steps of ``t_end`` (0 for a zero horizon).

    Raises CflViolationError unless ``t_end > 0`` is reached within
    ``MAX_STEPS`` steps and ``MAX_CELL_STEPS`` updates of ``n_cells`` cells."""
    if t_end > 0.0 and not dt * MAX_STEPS >= t_end:  # also dt <= 0 or NaN
        why = "is not positive, so t_end is never reached" if not dt > 0.0 else \
            f"needs {t_end / dt:.3g} steps to reach t_end, more than MAX_STEPS = {MAX_STEPS}"
        raise CflViolationError(f"time step {dt!r} {why}")
    steps = _first_step(t_end - _STEP_SLACK * dt, dt) if t_end > 0.0 else 0
    if steps * n_cells > MAX_CELL_STEPS:
        raise CflViolationError(
            f"time step {dt!r} needs {steps} steps of {n_cells} cells to reach t_end, "
            f"{steps * n_cells:.3g} cell updates, more than MAX_CELL_STEPS = {MAX_CELL_STEPS}")
    return steps


def predict_cost(phi: PiecewiseFunction, g: PiecewiseFunction, u0s,
                 dt: float, steps: int) -> dict:
    """What ``steps`` steps of ``dt`` from every field of ``u0s`` take, without stepping.

    ``cell_updates`` is steps times cells. ``Lphi/dx`` and ``2Lg/dx^2`` are
    the step-limit terms of the binding member, whose terms have the largest
    sum, and ``binding`` names the larger of the two (None when both are 0 and
    the step is the horizon). ``pieces`` is the most merged kernel pieces that
    one member's data range touches; at 1, every member steps without the
    piece lookup. ``flat_g`` is true when every member steps without the
    diffusion terms, as ``g`` is flat on its data range (``_flat_g``).
    """
    n, dx = u0s[0].grid.n_cells, u0s[0].grid.dx
    terms = max((_cfl_terms(phi, g, float(u.values.min()), float(u.values.max()), dx)
                 for u in u0s), key=sum)
    inner, coeffs = _kernel_table(phi, g)
    spans = [_piece_span(inner.searchsorted, u.values) for u in u0s]
    return {
        "dt": dt, "steps": steps, "cell_updates": steps * n,
        "Lphi/dx": terms[0], "2Lg/dx^2": terms[1],
        "binding": None if not any(terms) else "Lphi/dx" if terms[0] >= terms[1] else "2Lg/dx^2",
        "pieces": max(hi - lo + 1 for lo, hi in spans),
        "flat_g": all(_flat_g(coeffs, lo, hi, dt / (dx * dx)) for lo, hi in spans),
    }


def _first_step(x: float, dt: float) -> int:
    """The first step ``k >= 1`` whose time ``k * dt`` reaches ``x``.

    The scan starts two steps below ``ceil(x / dt)``: ``k * dt`` rounds by
    less than ``k * dt * 2^-53``, under one step for every ``k`` a step
    budget allows, so no earlier step can reach ``x``."""
    k = max(1, math.ceil(x / dt) - 2)
    while k * dt < x:
        k += 1
    return k


def _snapshot_steps(dt: float, last: int, requested: list[float]) -> list[int]:
    """The steps after which ``run`` records a row, in order, up to ``last``,
    the step the run ends on (``require_step_budget``); none for ``last`` 0.

    Before ``last``, a row is due at the first step at or within
    ``_STEP_SLACK`` steps of the earliest requested time not yet met; each
    row meets every requested time up to the slack past it. This is the rule
    of a loop that tests every step, evaluated in the same float expressions,
    so the rows come out the same."""
    slack = _STEP_SLACK * dt
    marks, ptr, k = [], 0, 0
    while k < last:
        k = last if ptr == len(requested) else \
            min(last, max(k + 1, _first_step(requested[ptr] - slack, dt)))
        marks.append(k)
        t = k * dt
        while ptr < len(requested) and requested[ptr] <= t + slack:
            ptr += 1
    return marks


def run(phi: PiecewiseFunction, g: PiecewiseFunction, u0: Field,
        params: SchemeParams, _dt: float | None = None) -> RunResult:
    """Advance ``u0`` to ``t_end``, recording snapshots as the rows of a table.

    The time step is fixed for the whole run from the initial data range,
    which stays valid because the range never grows (max principle). When
    that range lies in one merged kernel piece, every step uses that piece's
    coefficients, and each recorded snapshot is checked to lie in it still
    (RuntimeError otherwise). The step count is deterministic for a given
    configuration. ``_dt`` is the planned step of a group of trajectories, no
    larger than a ``shared_dt`` of a group that holds ``u0``; it is taken as
    given, its limit not derived again. While ``t_end > 0``, a step that is
    not positive or needs more than ``MAX_STEPS`` steps or ``MAX_CELL_STEPS``
    cell updates raises CflViolationError before any allocation. Without
    ``_dt``, ``g`` must be flagged monotone_nondecreasing (ValueError
    otherwise) and the model must cover the data range (OutOfRangeError).
    """
    dt = shared_dt(phi, g, [u0], params) if _dt is None else _dt
    last = require_step_budget(dt, params.t_end, u0.grid.n_cells)
    marks = _snapshot_steps(dt, last, [t for t in params.snapshot_times if t > 0.0])
    table = np.empty((len(marks) + 1, u0.grid.n_cells + 1))
    table[0, 0], table[0, 1:] = 0.0, u0.values
    k = 0
    if marks:
        ws = _Workspace(_kernel_table(phi, g), u0.values, u0.grid.dx, dt)
        cur, nxt = ws.bufs
        # an overflow shows as values out of range at the next snapshot, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            for s, mark in enumerate(marks, 1):
                for _ in range(mark - k):
                    _apply_step(ws, cur, nxt)
                    cur, nxt = nxt, cur
                k = mark
                t = k * dt
                table[s, 0], table[s, 1:] = t, cur[1:-1]
                require_in_range(table[s, 1:])
                if ws.piece is not None and \
                        _piece_span(ws.search, table[s, 1:]) != (ws.piece, ws.piece):
                    raise RuntimeError(f"the state at t={t!r} left kernel piece {ws.piece}, "
                                       "which holds the initial data range")
    return RunResult(table, u0.grid, phi, g, k, dt, params)


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
