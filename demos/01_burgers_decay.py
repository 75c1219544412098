#!/usr/bin/env python3
"""Decay to the mean for a genuinely nonlinear flux.

With the quadratic flux u^2/2 and no diffusion, a periodic profile steepens
into a shock and then decays toward its spatial mean like 1/t: the flux is
not affine in any neighborhood of the mean, so the limit profile is the
constant mean. A globally affine flux, run at unit CFL where the scheme is
an exact rotation, is the negative control: its distance to the mean never
moves.

Run:  python demos/01_burgers_decay.py
"""

import numpy as np

import degenwave as dw

n = 400
grid = dw.Grid(n)
u0 = dw.Field(grid, 0.5 + 0.25 * np.sin(2 * np.pi * grid.cell_centers()))
phi = dw.burgers(-1, 1)
g = dw.constant(0.0, -1, 1)

params = dw.SchemeParams(t_end=20.0, snapshot_times=tuple(np.linspace(0, 20, 41)))
res = dw.run(phi, g, u0, params)

report = res.structure
print("structure:", report.to_dict())
print(f"{res.step_count} steps at dt = {res.dt:.3e}")
print()
print("  t      ||u(t) - mean||_1")
series = dw.decay_metric(res).series  # (t, ||u(t) - mean||_1) per snapshot
for t, v in series[::5]:
    print(f"{t:6.1f}   {v:.5f}")
print()
print("negative control (affine flux, unit CFL -> exact rotation):")
control = dw.run(dw.linear(2.0, 0.0, -1, 1), g, u0,
                 dw.SchemeParams(t_end=20.0, cfl_safety=1.0,
                                 snapshot_times=(0.0, 20.0)))
print(f"  initial {series[0][1]:.6f} -> final "
      f"{dw.l1_to_constant(control.final, report.mean):.6f} (unchanged)")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 4))
    every = len(res.times) // 5
    for t, row in zip(res.times[::every], res.values[::every]):
        ax1.plot(grid.cell_centers(), row, label=f"t={t:.1f}")
    ax1.set_xlabel("x"); ax1.set_ylabel("u"); ax1.legend(fontsize=7)
    ax1.set_title("profiles steepen, then flatten")
    ax2.semilogy(*zip(*series))
    ax2.set_xlabel("t"); ax2.set_ylabel("L1 distance to mean")
    ax2.set_title("decay toward the mean")
    fig.tight_layout()
    fig.savefig("demos/01_burgers_decay.png", dpi=120)
    print("\nwrote demos/01_burgers_decay.png")
except ImportError:
    pass
