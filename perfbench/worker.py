"""Run one scenario batch in a fresh process and print one JSON line.

Usage: ``python3 perfbench/worker.py CONFIG OUT_DIR MODE`` with MODE
``plain`` (untraced) or ``trace``. The worker imports numpy first, then times
``import degenwave`` plus ``parse_config`` (setup) and ``run_suite`` (wall),
classifies each scenario, and reports its own peak resident memory. Untraced
batches run under a ``SpeedProbe``, so the harness can scale their times to a
reference CPU speed; the probes' own time is taken out of ``wall_s``. The
worker pins itself to one CPU, so the batch and its probes share it.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

import numpy as np  # imported before timing: setup_s excludes numpy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# properties the monotone scheme guarantees exactly; failing one is a failure
GUARANTEED = ("conservation", "contraction", "squeeze_bounds")


class SpeedProbe:
    """Samples the CPU's speed while a batch runs.

    Every ``interval`` seconds of wall time a SIGALRM handler times ``probe``:
    fixed work shaped like the program's (small-array numpy calls as in the
    step kernel, one mid-size array expression as in the checks, float
    formatting as in the CSV writer) that does not touch degenwave. The mean
    probe time tracks the speed the batch ran at, and ``total`` is the time
    the probes took from the batch.
    """

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.samples: list[float] = []
        self._small = np.linspace(0.1, 0.9, 400)
        self._mid = np.linspace(0.1, 0.9, 16384)
        self._breaks = np.array([0.0, 0.3, 0.6, 1.0])

    def probe(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        small = self._small
        for _ in range(8):
            k = np.searchsorted(self._breaks, small, side="right") - 1
            flux = np.where(k > 0, small * 2.0, small * small)
            small = np.clip(small - 0.01 * (flux - np.roll(flux, 1)), 0.1, 0.9)
        np.clip(self._mid - 0.01 * np.diff(self._mid * self._mid, append=0.0), 0.1, 0.9)
        ",".join(format(v, ".17g") for v in small[:64].tolist())
        self.samples.append(time.perf_counter() - t0)

    @property
    def total(self) -> float:
        return sum(self.samples)

    def mean(self) -> float:
        if not self.samples:   # a batch shorter than one interval
            self.probe()
        return sum(self.samples) / len(self.samples)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def _pin_to_one_cpu() -> None:
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def _import_package():
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("degenwave")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"degenwave imported from {pkg.__file__}, not from {SRC}")
    return pkg


def _classify(results) -> tuple[dict, list[str]]:
    verdicts, failed = {}, []
    for r in results:
        checks = {rep.name: bool(rep.passed) for rep in r.reports}
        broken = r.error is not None or any(
            (rep.extra or {}).get("error") is not None for rep in r.reports)
        guaranteed_failed = any(rep.name in GUARANTEED and not rep.passed for rep in r.reports)
        verdicts[r.name] = {"error": r.error is not None, "checks": checks}
        if broken or guaranteed_failed:
            failed.append(r.name)
    return verdicts, failed


def main(argv: list[str]) -> int:
    config, out_dir, mode = argv
    _pin_to_one_cpu()
    text = Path(config).read_text(encoding="utf-8")
    tracer = None
    speed = SpeedProbe()
    t0 = time.perf_counter()
    _import_package()
    scenarios = importlib.import_module("degenwave.scenarios")
    lipschitz_on = getattr(importlib.import_module("degenwave.piecewise"), "lipschitz_on", None)
    if mode == "trace":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    cfgs = scenarios.parse_config(text)
    cfgs = cfgs if isinstance(cfgs, list) else [cfgs]
    t1 = time.perf_counter()
    results = None
    try:
        if tracer is None:
            with speed:
                summary = scenarios.run_suite(cfgs, out_dir)
        else:
            summary = tracer.timed("root", scenarios.run_suite, cfgs, out_dir)
        results = summary.results
    except Exception as e:  # a crashing batch is reported as all scenarios failed
        print(f"run_suite raised {type(e).__name__}: {e}", file=sys.stderr)
    t2 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if results is None:
        verdicts, failed = {}, [c.name for c in cfgs]
    else:
        verdicts, failed = _classify(results)
    record = {
        "setup_s": t1 - t0,
        "wall_s": t2 - t1 - speed.total,
        "peak_rss_mb": peak_rss_mb,
        "probe_s": speed.mean(),
        "probes": len(speed.samples),
        "attempted": len(cfgs),
        "failed": failed,
        "verdicts": verdicts,
    }
    if tracer is not None:
        layers = tracer.metrics(lipschitz_on)
        _, root_total, root_self = tracer.totals.get("root", (0, t2 - t1, t2 - t1))
        layers["trace.uncovered_frac"] = root_self / root_total if root_total else 0.0
        record["layers"] = layers
        record["absent"] = tracer.absent
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
