"""Seeded scenario-batch generators, one per benchmark workload.

Each generator maps ``(seed, size)`` to the JSON text of a scenario batch,
which is all the program under test receives. Generation uses only
``random.Random`` and ``math``, so the same seed gives byte-identical JSON.
``size="tiny"`` shrinks grids and horizons for the benchmark's own tests.
"""

from __future__ import annotations

import json
import math
import random

DEFAULT_SEED = 0
SIZES = ("full", "tiny")

# band_squeeze: the shipped mixed_band model (flux kink at 0, g flat below 0.8)
BAND_PHI = {"breakpoints": [-2.0, 0.0, 2.0], "pieces": [[2.0, -1.0], [0.0, 2.0]],
            "monotone": False}
BAND_G = {"breakpoints": [-2.0, 0.8, 2.0], "pieces": [[0.0], [0.0, 0.02]],
          "monotone": True}
BAND_MEAN = 0.625
BAND_TOP = 0.3      # max(u) = 0.925 > 0.8, so Lg = 0.02 for every seed
BAND_FLOOR = 0.1    # min(u) >= 0.1 > 0, so Lphi = 2 for every seed


def _snapshots(t_end: float, count: int) -> list[float]:
    return [t_end * i / (count - 1) for i in range(count)]


def _cell_centers(n: int) -> list[float]:
    return [(i + 0.5) / n for i in range(n)]


def _eval_terms(terms, n: int) -> list[float]:
    """Evaluate ``(coef, fn, freq)`` terms at cell centers like the program does."""
    xs = _cell_centers(n)
    vals = [0.0] * n
    for coef, fn, freq in terms:
        trig = math.sin if fn == "sin" else math.cos
        vals = [v + coef * trig(2.0 * math.pi * freq * x) for v, x in zip(vals, xs)]
    return vals


def _expression(mean: float, terms) -> str:
    text = f"{mean!r}"
    for coef, fn, freq in terms:
        sign = "-" if coef < 0.0 else "+"
        text += f" {sign} {abs(coef):.6f}*{fn}({freq})"
    return text


def _harmonics(rng: random.Random, n: int, mean: float, top: float, floor: float,
               max_freq: int, count: int) -> str:
    """Random harmonics with random phases, scaled so that max(u) = mean + top.

    Redraws until min(u) >= floor, so the data range (and with it every
    Lipschitz constant on it) does not depend on the seed.
    """
    while True:
        freqs = rng.sample(range(1, max_freq + 1), count)
        terms = []
        for k in sorted(freqs):
            amp = rng.uniform(0.2, 1.0) / k
            phase = rng.uniform(0.0, 2.0 * math.pi)
            terms += [(amp * math.cos(phase), "sin", k), (amp * math.sin(phase), "cos", k)]
        scale = top / max(_eval_terms(terms, n))
        terms = [(round(c * scale, 6), fn, k) for c, fn, k in terms]
        vals = _eval_terms(terms, n)
        if mean + min(vals) >= floor:
            return _expression(mean, terms)


def band_squeeze(seed: int, size: str = "full") -> list[dict]:
    n, t_end = (400, 0.25) if size == "full" else (64, 0.05)
    rng = random.Random(f"band_squeeze/{seed}")
    return [{
        "name": "band_squeeze",
        "phi": BAND_PHI,
        "g": BAND_G,
        "initial": {"expression": _harmonics(rng, n, BAND_MEAN, BAND_TOP, BAND_FLOOR,
                                             max_freq=4, count=2)},
        "grid": {"n_cells": n},
        "scheme": {"t_end": t_end, "snapshot_times": _snapshots(t_end, 17)},
        "checks": ["conservation", "cutoff_convergence", "squeeze_bounds"],
        "seed": seed,
    }]


def wide_snapshots(seed: int, size: str = "full") -> list[dict]:
    n, t_end, snaps = (16384, 0.02, 97) if size == "full" else (256, 0.05, 17)
    rng = random.Random(f"wide_snapshots/{seed}")
    return [{
        "name": "wide_snapshots",
        "phi": {"kind": "burgers", "lo": -2.0, "hi": 2.0},
        "g": {"kind": "constant", "value": 0.0, "lo": -2.0, "hi": 2.0},
        "initial": {"expression": _harmonics(rng, n, 0.5, 0.3, 0.1, max_freq=6, count=3)},
        "grid": {"n_cells": n},
        "scheme": {"t_end": t_end, "snapshot_times": _snapshots(t_end, snaps)},
        "checks": ["entropy_residual", "profile", "decay", "conservation"],
        "seed": seed,
    }]


def _random_flux(rng: random.Random) -> dict:
    """Continuous piecewise polynomial of degree <= 3 with 2 to 4 pieces on [-2, 2]."""
    cuts = sorted(rng.uniform(-1.5, 1.5) for _ in range(rng.randint(1, 3)))
    bps = [-2.0]
    for c in cuts:
        if c - bps[-1] > 0.3:
            bps.append(round(c, 6))
    bps.append(2.0)
    if len(bps) == 2:
        bps.insert(1, 0.0)
    pieces = []
    value = 0.0
    for lo, hi in zip(bps, bps[1:]):
        degree = rng.randint(1, 3)
        coeffs = [value] + [round(rng.uniform(-1.0, 1.0) / d, 6) for d in range(1, degree + 1)]
        pieces.append(coeffs)
        value = 0.0
        for c in reversed(coeffs):      # Horner, as the program checks continuity
            value = value * (hi - lo) + c
    return {"breakpoints": bps, "pieces": pieces, "monotone": False}


def _random_diffusion(rng: random.Random) -> dict:
    """Nondecreasing g, flat below a random breakpoint, with slope at most 0.01."""
    b = round(rng.uniform(-0.5, 0.5), 6)
    return {"breakpoints": [-2.0, b, 2.0],
            "pieces": [[0.0], [0.0, round(rng.uniform(0.001, 0.01), 6)]],
            "monotone": True}


def _random_sine(rng: random.Random) -> dict:
    return {"sine": {"mean": round(rng.uniform(-0.4, 0.4), 6),
                     "amplitude": round(rng.uniform(0.1, 0.5), 6),
                     "frequency": rng.randint(1, 3)}}


def _lipschitz(fn: dict, lo: float, hi: float) -> float:
    """Max of |f'| over [lo, hi] for a breakpoints/pieces spec (local coordinates)."""
    best = 0.0
    bps = fn["breakpoints"]
    for i, piece in enumerate(fn["pieces"]):
        a, b = max(bps[i], lo) - bps[i], min(bps[i + 1], hi) - bps[i]
        if b < a:
            continue
        c = list(piece) + [0.0] * (4 - len(piece))
        cands = [a, b]
        if c[3] != 0.0 and a < -c[2] / (3.0 * c[3]) < b:
            cands.append(-c[2] / (3.0 * c[3]))
        best = max(best, *(abs(c[1] + t * (2.0 * c[2] + 3.0 * c[3] * t)) for t in cands))
    return best


def _step_cap(phi: dict, g: dict, initial: dict, n: int) -> float:
    """The program's time step for one datum: 0.5 / (Lphi/dx + 2 Lg/dx^2) on its range."""
    sine = initial["sine"]
    vals = [sine["mean"] + sine["amplitude"] * math.sin(2.0 * math.pi * sine["frequency"] * x)
            for x in _cell_centers(n)]
    dx = 1.0 / n
    lo, hi = min(vals), max(vals)
    denom = _lipschitz(phi, lo, hi) / dx + 2.0 * _lipschitz(g, lo, hi) / (dx * dx)
    return 0.5 / denom if denom > 0.0 else math.inf


def pair_batch(seed: int, size: str = "full") -> list[dict]:
    """Pair scenarios whose total work does not depend on the seed.

    Each grid size is used equally often, every scenario takes ``steps``
    shared time steps (its horizon is set from the shared dt), and a fixed
    share of scenarios orders its two data so that the first run must be
    repeated with the smaller shared dt.
    """
    count, cells, steps = (42, (64, 128, 256), 200) if size == "full" else (3, (16, 32, 64), 10)
    rng = random.Random(f"pair_batch/{seed}")
    grid = [cells[i % len(cells)] for i in range(count)]
    rng.shuffle(grid)
    reruns = set(rng.sample(range(count), 2 * count // 7))
    batch = []
    for i, n in enumerate(grid):
        while True:
            phi, g = _random_flux(rng), _random_diffusion(rng)
            first, second = _random_sine(rng), _random_sine(rng)
            cap_a, cap_b = _step_cap(phi, g, first, n), _step_cap(phi, g, second, n)
            if math.isfinite(cap_a + cap_b) and abs(cap_a - cap_b) > 1e-6 * cap_a:
                break
        if (cap_b < cap_a) != (i in reruns):
            first, second = second, first
        t_end = (steps - 0.5) * min(cap_a, cap_b)
        batch.append({
            "name": f"pair_{i:02d}",
            "phi": phi,
            "g": g,
            "initial": first,
            "initial_b": second,
            "grid": {"n_cells": n},
            "scheme": {"t_end": t_end, "snapshot_times": _snapshots(t_end, 9)},
            "checks": ["conservation", "contraction", "t_nonexpansive"],
            "seed": seed,
        })
    return batch


WORKLOADS = {
    "band_squeeze": band_squeeze,
    "wide_snapshots": wide_snapshots,
    "pair_batch": pair_batch,
}


def generate(workload: str, seed: int, size: str = "full") -> str:
    """JSON text of the workload's scenario batch for ``seed``."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    return json.dumps(WORKLOADS[workload](seed, size), indent=1) + "\n"
