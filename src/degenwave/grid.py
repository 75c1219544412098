"""Uniform periodic grid on the unit circle and cell-average fields.

Distances and means use ``math.fsum``, which is exactly rounded and therefore
independent of summation order. That makes circular shifts preserve L1
distances and means bit for bit, which several invariants rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError

MIN_CELLS = 4
MAX_CELLS = 1 << 24  # 128 MiB per float array


@dataclass(frozen=True)
class Grid:
    """n_cells equal cells covering [0, 1) periodically."""

    n_cells: int

    def __post_init__(self):
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
    return math.fsum(np.abs(u.values - v.values).tolist()) * u.grid.dx


def positive_part_distance(u: Field, v: Field) -> float:
    """Integral over the circle of (u - v)^+."""
    _require_same_grid(u, v)
    return math.fsum(np.maximum(u.values - v.values, 0.0).tolist()) * u.grid.dx


def mean(u: Field) -> float:
    return math.fsum(u.values.tolist()) * u.grid.dx


def l1_to_constant(u: Field, value: float) -> float:
    return math.fsum(np.abs(u.values - value).tolist()) * u.grid.dx


def total_variation(u: Field) -> float:
    """Circular total variation of the cell values."""
    return math.fsum(np.abs(np.roll(u.values, -1) - u.values).tolist())


def shift(u: Field, cells: int) -> Field:
    """Circular shift by ``cells``: the result at cell j equals u at cell j - cells."""
    return Field(u.grid, np.roll(u.values, cells))

