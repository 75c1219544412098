#!/usr/bin/env python3
"""Order preservation, L1 contraction, and entropy-inequality quadrature.

Two trajectories of the same monotone scheme never spread apart in L1, and
ordered initial data stay ordered cell by cell. The scheme is also entropy
consistent: space-time quadrature of the Kruzhkov-type inequality against
smooth bumps stays above an error budget proportional to the resolution,
and the budget halves every time the grid is refined.

Run:  python demos/05_contraction_and_entropy.py
"""

import numpy as np

import degenwave as dw

phi = dw.burgers(-1, 1)
g = dw.constant(0.0, -1, 1)

# -- contraction between a sine and its quarter-period translate ------------
grid = dw.Grid(200)
x = grid.cell_centers()
ua = dw.Field(grid, 0.5 + 0.25 * np.sin(2 * np.pi * x))
ub = dw.Field(grid, 0.5 - 0.25 * np.cos(2 * np.pi * x))
params = dw.SchemeParams(t_end=1.5, snapshot_times=tuple(np.linspace(0, 1.5, 13)))
ra, rb = dw.run_many(phi, g, [ua, ub], params)  # one shared time step
mon = dw.contraction_monitor(ra, rb)
print("  t     ||uA - uB||_1")
for t, v in mon.series[::2]:
    print(f"{t:5.2f}   {v:.5f}")
print(f"largest increase along the run: {mon.observed:.2e} (never positive)")

# -- entropy residual ladder -------------------------------------------------
print("\nentropy residual ladder (worst normalized violation, budget):")
k_values = np.linspace(0.2, 0.8, 9)
for n in (100, 200, 400):
    gridn = dw.Grid(n)
    u0 = dw.Field(gridn, 0.5 + 0.25 * np.sin(2 * np.pi * gridn.cell_centers()))
    times = tuple(j * gridn.dx for j in range(int(round(1.5 * n)) + 1))
    res = dw.run(phi, g, u0, dw.SchemeParams(t_end=1.5, snapshot_times=times))
    rep = dw.entropy_residual(res, phi, g, k_values=k_values)
    budget = rep.extra["pairs"][0]["budget"]
    print(f"  n={n:4d}: violation={rep.observed:.2e}  budget={budget:.2f}")
print("the budget halves with each refinement; violations shrink with it")
