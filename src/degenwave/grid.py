"""Uniform periodic grid on the unit circle and cell-average fields.

``integral`` is the one summation rule of every reported number: it is
``math.fsum``, exactly rounded and therefore independent of summation order
and of the CPU. That makes circular shifts preserve L1 distances and means
bit for bit, which several invariants rely on. A block of rows reaches the
same values through ``exact_row_sums``, for checks that reduce whole runs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError

MIN_CELLS = 4
MAX_CELLS = 1 << 24  # 128 MiB per float array
_MEAN_SCALE = MAX_CELLS.bit_length()  # 2^-25 keeps a sum of MAX_CELLS finite floats finite
_SPLIT_LIMIT = 2.0 ** 960  # rows reaching it are summed by fsum; keeps 2^(e+M) finite


@dataclass(frozen=True)
class Grid:
    """n_cells equal cells covering [0, 1) periodically."""

    n_cells: int

    def __post_init__(self):
        object.__setattr__(self, "n_cells", operator.index(self.n_cells))
        if not MIN_CELLS <= self.n_cells <= MAX_CELLS:
            raise ValueError(f"n_cells must lie in [{MIN_CELLS}, {MAX_CELLS}]")

    @property
    def dx(self) -> float:
        return 1.0 / self.n_cells

    def cell_centers(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.dx


class Field:
    """Cell averages of a periodic function, attached to one grid."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values):
        arr = np.asarray(values, dtype=float).copy()
        if arr.shape != (grid.n_cells,):
            raise ValueError(f"expected {grid.n_cells} values, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("field values must be finite")
        self.grid = grid
        self.values = arr

    def copy(self) -> "Field":
        return Field(self.grid, self.values)

    def __repr__(self):
        return f"Field(n={self.grid.n_cells}, min={self.values.min():g}, max={self.values.max():g})"


def constant_field(grid: Grid, value: float) -> Field:
    return Field(grid, np.full(grid.n_cells, float(value)))


def _require_same_grid(u: Field, v: Field) -> None:
    if u.grid != v.grid:
        raise GridMismatchError(
            f"fields live on different grids ({u.grid.n_cells} vs {v.grid.n_cells} cells)"
        )


def l1_distance(u: Field, v: Field) -> float:
    _require_same_grid(u, v)
    return integral(np.abs(u.values - v.values), u.grid.dx)


def positive_part_distance(u: Field, v: Field) -> float:
    """Integral over the circle of (u - v)^+."""
    _require_same_grid(u, v)
    return integral(np.maximum(u.values - v.values, 0.0), u.grid.dx)


def integral(values: np.ndarray, dx: float):
    """``math.fsum(values) * dx``, also where the sum leaves the float range;
    for a 2-D block, the list of that value for each row."""
    if values.ndim == 2:
        try:
            return [s * dx for s in exact_row_sums(values)]
        except OverflowError:
            return [integral(row, dx) for row in values]
    try:
        return math.fsum(values.tolist()) * dx
    except OverflowError:
        # the cell sum left the float range, the mean cannot: sum the values
        # scaled by an exact power of two, then scale back
        scaled = np.ldexp(values, -_MEAN_SCALE)
        return math.ldexp(math.fsum(scaled.tolist()) * dx, _MEAN_SCALE)


def mean(u: Field) -> float:
    return integral(u.values, u.grid.dx)


def l1_to_constant(u: Field, value: float) -> float:
    return integral(np.abs(u.values - value), u.grid.dx)


def total_variation(u: Field) -> float:
    """Circular total variation of the cell values."""
    return integral(np.abs(np.roll(u.values, -1) - u.values), 1.0)


def shift(u: Field, cells: int) -> Field:
    """Circular shift by ``cells``: the result at cell j equals u at cell j - cells."""
    return Field(u.grid, np.roll(u.values, cells))


def exact_row_sums(rows) -> list[float]:
    """``math.fsum`` of every row of a 2-D float array, bit for bit.

    Error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31(1),
    2008, Lemma 3.3): with every remainder below 2^e and 2^M >= n + 2, the
    split ``q = (s + r) - s`` at ``s = 2^(e+M)`` leaves multiples of
    2^-53 s whose partial sums stay below s, so numpy sums them exactly in
    any order; each pass takes at least 52 - M bits off the remainder. The
    few exact partial sums of a row then go to ``math.fsum``. Rows that are
    all zeros, hold a non-finite value or reach ``_SPLIT_LIMIT`` are summed
    by ``math.fsum`` directly.
    """
    rows = np.asarray(rows, dtype=float)
    m = (rows.shape[1] + 1).bit_length()
    amax = np.abs(rows).max(axis=1, initial=0.0)
    live = np.flatnonzero(np.isfinite(amax) & (amax > 0.0) & (amax < _SPLIT_LIMIT))
    parts = {i: [] for i in live.tolist()}
    r, amax = rows[live], amax[live]
    while live.size:
        sigma = np.ldexp(1.0, np.frexp(amax)[1] + m)[:, None]
        q = (sigma + r) - sigma
        r -= q
        for i, s in zip(live.tolist(), q.sum(axis=1).tolist()):
            parts[i].append(s)
        amax = np.abs(r).max(axis=1)
        keep = amax > 0.0
        live, r, amax = live[keep], r[keep], amax[keep]
    return [math.fsum(parts[i] if i in parts else rows[i].tolist())
            for i in range(len(rows))]
