#!/usr/bin/env python3
"""Closed-form oracle: the identity diffusion reproduces Fourier decay.

With zero flux and g(u) = u the equation is the heat equation on the
circle, and a single sine mode of amplitude A decays exactly like
(2/pi) * A * exp(-4 pi^2 t) in L1. The explicit scheme under its parabolic
step restriction tracks that law to a fraction of a percent.

Run:  python demos/04_heat_oracle.py
"""

import math

import numpy as np

import degenwave as dw

grid = dw.Grid(256)
u0 = dw.Field(grid, 0.5 + 0.1 * np.sin(2 * np.pi * grid.cell_centers()))
times = (0.01, 0.02, 0.03, 0.04, 0.05)
res = dw.run(dw.constant(0.0, -1, 1), dw.identity(-1, 1), u0,
             dw.SchemeParams(t_end=0.05, snapshot_times=(0.0,) + times))

print(f"{res.step_count} steps at dt = {res.dt:.3e} (parabolic restriction)")
print("\n  t       observed     closed form   rel. error")
for t, row in zip(res.times[1:], res.values[1:]):
    obs = dw.l1_to_constant(dw.Field(grid, row), 0.5)
    ref = (2.0 / math.pi) * 0.1 * math.exp(-4.0 * math.pi ** 2 * t)
    print(f"{t:6.3f}   {obs:.6f}    {ref:.6f}    {abs(obs - ref) / ref:.2e}")

rep = dw.conservation_monitor(res)
print(f"\nmass drift over the run: {rep.observed:.2e}")
