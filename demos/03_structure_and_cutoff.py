#!/usr/bin/env python3
"""Structural intervals and cutoff convergence in a mixed regime.

The flux has a kink at 0 and slope two above it; the diffusion is flat up
to 0.8 and grows linearly past it. For data with mean 0.625 the analysis
finds the affine interval (0, max|u0|) with speed two, and inside it the
plateau interval (0, 0.8) where the diffusion is also constant. The theory
says the solution is eventually confined to the plateau band: the part
above 0.8 is eaten by diffusion, and the clamp gap ||u - clamp(u)||_1
tends to zero. Shifted companion runs dominate the exceedance above and
below the band at every snapshot (a discrete comparison-principle fact).

Run:  python demos/03_structure_and_cutoff.py
"""

import numpy as np

import degenwave as dw

n = 400
grid = dw.Grid(n)
u0 = dw.Field(grid, 0.625 + 0.325 * np.sin(2 * np.pi * grid.cell_centers()))
phi = dw.from_breakpoints([-2.0, 0.0, 2.0], [[2.0, -1.0], [0.0, 2.0]])
g = dw.from_breakpoints([-2.0, 0.8, 2.0], [[0.0], [0.0, 0.02]], monotone=True)

res = dw.run(phi, g, u0, dw.SchemeParams(t_end=4.0,
                                         snapshot_times=tuple(np.linspace(0, 4, 17))))
st = res.structure
print("structure:", st.to_dict())

cut = dw.cutoff_convergence(res)
print("\n  t     ||u - clamp(u)||_1")
for t, v in cut.series[::2]:
    print(f"{t:5.2f}   {v:.2e}")
print(f"final {cut.observed:.2e} vs threshold {cut.threshold:.2e} "
      f"-> passed={cut.passed}")

sq = dw.squeeze_bounds(res)
print(f"\nsqueeze domination: worst violation {sq.observed:.2e} "
      f"(levels {sq.extra['lower_level']:.3f} / {sq.extra['upper_level']:.3f})")

profile = dw.traveling_profile(res)
print(f"profile range [{profile.values.min():.4f}, "
      f"{profile.values.max():.4f}] inside the plateau band "
      f"[{st.plateau_lo}, {st.plateau_hi}]")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4))
    for t, row in zip(res.times[::4], res.values[::4]):
        ax.plot(grid.cell_centers(), row, label=f"t={t:.2f}")
    ax.axhline(0.8, color="k", ls="--", lw=0.8)
    ax.axhline(0.0, color="k", ls="--", lw=0.8)
    ax.set_xlabel("x"); ax.set_ylabel("u"); ax.legend(fontsize=7)
    ax.set_title("solution settles into the plateau band")
    fig.tight_layout()
    fig.savefig("demos/03_structure_and_cutoff.png", dpi=120)
    print("\nwrote demos/03_structure_and_cutoff.png")
except ImportError:
    pass
