#!/usr/bin/env python3
"""Traveling-wave limit under an affine flux.

Where the flux is affine (slope c) and the diffusion constant, the equation
degenerates to pure transport at speed c: any initial shape is itself the
limiting traveling wave. At unit CFL the upwind update is an exact circular
shift, so the extracted profile reproduces the initial data to rounding and
the de-shifted residuals vanish.

Run:  python demos/02_traveling_wave.py
"""

import numpy as np

import degenwave as dw

n = 200
grid = dw.Grid(n)
u0 = dw.Field(grid, 0.5 + 0.25 * np.sin(2 * np.pi * grid.cell_centers()))
phi = dw.linear(2.0, 0.3, -2, 2)      # slope two, so wave speed two
g = dw.constant(0.25, -2, 2)

params = dw.SchemeParams(t_end=3.0, cfl_safety=1.0,
                         snapshot_times=tuple(np.linspace(0, 3, 13)))
res = dw.run(phi, g, u0, params)
print("structure:", res.structure.to_dict())

rep = dw.extract_profile(res, t_lo=0.0)   # judge every snapshot, not only the tail
profile = dw.traveling_profile(res)
print(f"speed used for de-shifting: {rep.extra['speed_used']}")
print(f"max profile error vs u0:   {np.max(np.abs(profile.values - u0.values)):.2e}")
print(f"worst de-shifted residual: {max(v for _, v in rep.series):.2e}")
print(f"converged: {rep.passed}")

# the data-to-profile map contracts L1 distances; a circular shift of the
# data realizes equality
u0_shifted = dw.shift(u0, 31)
rep = dw.t_nonexpansive_from_runs(*dw.run_many(phi, g, [u0, u0_shifted], params))
print(f"\nprofile distance {rep.observed:.6f} <= initial distance "
      f"{rep.extra['initial_distance']:.6f} (branch: {rep.extra['branch']})")
