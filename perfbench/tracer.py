"""Outside-in span tracer for the degenwave layers.

Spans are recorded from the benchmark by replacing functions of the
``degenwave`` modules with timing wrappers after import; no file of the
package changes. A span's self time is its duration minus the durations of
the spans it directly contains. Every hook is optional: when a name is gone
(private helpers get fused or renamed), its hook is skipped, reported in
``absent``, and the metrics that need it are left out instead of failing.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time

CHECKS = {
    "conservation_monitor": "conservation",
    "decay_metric": "decay",
    "cutoff_convergence": "cutoff_convergence",
    "entropy_residual": "entropy_residual",
    "squeeze_bounds": "squeeze_bounds",
    "extract_profile": "profile",
    "contraction_monitor": "contraction",
    "t_nonexpansive_from_runs": "t_nonexpansive",
}

# (span name, module, attribute) for module-level functions; every module of
# the package that imported the function by name gets the wrapper too.
FUNCTION_HOOKS = [
    ("piecewise.setup", "degenwave.piecewise", "lipschitz_on"),
    ("piecewise.setup", "degenwave.piecewise", "monotone_split"),
    ("piecewise.setup", "degenwave.piecewise", "maximal_affine_interval"),
    ("piecewise.setup", "degenwave.piecewise", "maximal_constant_interval"),
    ("structure.analyze", "degenwave.structure", "analyze"),
    ("solver.kernel", "degenwave.solver", "_apply_step"),
    ("solver.run", "degenwave.solver", "run"),
    ("grid", "degenwave.grid", "l1_distance"),
    ("grid", "degenwave.grid", "positive_part_distance"),
    ("grid", "degenwave.grid", "l1_to_constant"),
    ("grid", "degenwave.grid", "mean"),
    ("grid", "degenwave.grid", "total_variation"),
    ("grid", "degenwave.grid", "shift"),
    ("grid", "degenwave.grid", "best_shift"),
    ("scenarios.parse", "degenwave.scenarios", "parse_config"),
    ("scenarios.run_scenario", "degenwave.scenarios", "run_scenario"),
    ("scenarios.write", "degenwave.scenarios", "_write_snapshots_csv"),
    ("scenarios.write", "degenwave.scenarios", "_write_series_csv"),
    ("scenarios.write", "degenwave.scenarios", "_write_profile_csv"),
    ("scenarios.write", "degenwave.scenarios", "_write_text_atomic"),
] + [(f"diagnostics.{check}", "degenwave.diagnostics", fn) for fn, check in CHECKS.items()]

# (span name, class attribute) on degenwave.piecewise.PiecewiseFunction
METHOD_HOOKS = [
    ("piecewise.kernel_eval", "_eval_unchecked"),
    ("piecewise.eval", "eval"),
    ("piecewise.eval", "__call__"),
]

SPAN_METRICS = {  # span name -> the suffixes reported for it
    "piecewise.kernel_eval": ("calls", "self_s", "us_per_call"),
    "piecewise.eval": ("calls", "self_s"),
    "piecewise.setup": ("calls", "self_s"),
    "structure.analyze": ("calls", "self_s"),
    "solver.kernel": ("calls", "self_s"),
    "solver.run": ("calls", "self_s"),
    "grid": ("calls", "self_s"),
    "scenarios.parse": ("self_s",),
    "scenarios.write": ("calls", "self_s", "bytes", "files"),
    "scenarios.run_scenario": ("calls", "self_s"),
    **{f"diagnostics.{check}": ("calls", "self_s") for check in CHECKS.values()},
}
# spans whose metrics also need a particular hooked attribute to mean what they say
REQUIRES = {
    "piecewise.kernel_eval": "_apply_step",
    "scenarios.write": "_write_text_atomic",
}


class Tracer:
    """Keeps a span stack and per-name totals in memory for one batch."""

    def __init__(self):
        self.stack: list[list] = []            # [name, child time]
        self.totals: dict[str, list] = {}      # name -> [calls, total_s, self_s]
        self.write_bytes = 0
        self.write_files = 0
        self.runs: list[tuple] = []            # (phi, g, values, params, steps)
        self.run_errors = 0
        self.installed: set[str] = set()       # span names with a live hook
        self.hooked_attrs: set[str] = set()    # attribute names that were wrapped
        self.absent: list[str] = []

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [name, 0.0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list, duration: float) -> None:
        self.stack.pop()
        tot = self.totals.setdefault(frame[0], [0, 0.0, 0.0])
        tot[0] += 1
        tot[1] += duration
        tot[2] += duration - frame[1]
        if self.stack:
            self.stack[-1][1] += duration

    def timed(self, name: str, fn, *args, **kwargs):
        frame = self._enter(name)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame, time.perf_counter() - t0)

    def _skip(self, name: str) -> bool:
        """Nested calls join the enclosing span instead of opening their own."""
        if not self.stack:
            return False
        top = self.stack[-1][0]
        if name == "piecewise.kernel_eval":
            return top != "solver.kernel"
        if name.startswith("diagnostics."):
            return any(f[0].startswith("diagnostics.") for f in self.stack)
        return top == name

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._skip(name):
                return fn(*args, **kwargs)
            return tracer.timed(name, fn, *args, **kwargs)

        return traced

    # -- special hooks ------------------------------------------------------

    def _wrap_atomic_write(self, fn):
        traced = self.wrap("scenarios.write", fn)
        tracer = self

        def write(path, text, *args, **kwargs):
            tracer.write_bytes += len(text.encode("utf-8")) if isinstance(text, str) else len(text)
            tracer.write_files += 1
            return traced(path, text, *args, **kwargs)

        return write

    def _wrap_run(self, fn):
        traced = self.wrap("solver.run", fn)
        signature = inspect.signature(fn)
        tracer = self

        def run(*args, **kwargs):
            result = traced(*args, **kwargs)
            try:
                bound = signature.bind(*args, **kwargs).arguments
                tracer.runs.append((bound["phi"], bound["g"], bound["u0"].values,
                                    bound["params"], result.step_count))
            except (AttributeError, KeyError, TypeError):
                tracer.run_errors += 1
            return result

        return run

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every hookable name that exists in the imported package."""
        for name, modname, attr in FUNCTION_HOOKS:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                module = None
            orig = getattr(module, attr, None)
            if orig is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            if attr == "_write_text_atomic":
                new = self._wrap_atomic_write(orig)
            elif attr == "run":
                new = self._wrap_run(orig)
            else:
                new = self.wrap(name, orig)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "degenwave":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, new)
            self.installed.add(name)
            self.hooked_attrs.add(attr)
        cls = getattr(sys.modules.get("degenwave.piecewise"), "PiecewiseFunction", None)
        for name, attr in METHOD_HOOKS:
            orig = cls.__dict__.get(attr) if cls is not None else None
            if orig is None:
                self.absent.append(f"degenwave.piecewise.PiecewiseFunction.{attr}")
                continue
            setattr(cls, attr, self.wrap(name, orig))
            self.installed.add(name)
            self.hooked_attrs.add(attr)

    # -- reporting ----------------------------------------------------------

    def _available(self, span: str) -> bool:
        required = REQUIRES.get(span)
        return span in self.installed and (required is None or required in self.hooked_attrs)

    def metrics(self, lipschitz_on) -> dict[str, float]:
        """Per-layer metrics of the traced batch; ``lipschitz_on`` is the unwrapped query."""
        out: dict[str, float] = {}
        for span, suffixes in SPAN_METRICS.items():
            if not self._available(span):
                continue
            calls, total, self_s = self.totals.get(span, (0, 0.0, 0.0))
            values = {"calls": calls, "self_s": self_s,
                      "us_per_call": 1e6 * total / calls if calls else 0.0,
                      "bytes": self.write_bytes, "files": self.write_files}
            for suffix in suffixes:
                out[f"{span}.{suffix}"] = values[suffix]
        if "solver.run" in self.installed and self.runs and not self.run_errors:
            out.update(self._solver_counts(lipschitz_on))
        return out

    def _solver_counts(self, lipschitz_on) -> dict[str, float]:
        steps = sum(r[4] for r in self.runs)
        keys = {(phi, g, values.tobytes(), params) for phi, g, values, params, _ in self.runs}
        run_total = self.totals.get("solver.run", (0, 0.0, 0.0))[1]
        out = {
            "solver.steps": steps,
            "solver.trajectories": len(keys),
            "solver.useful_run_ratio": len(keys) / len(self.runs),
            "solver.cell_steps": sum(r[2].size * r[4] for r in self.runs),
            "solver.us_per_step": 1e6 * run_total / steps if steps else 0.0,
        }
        if lipschitz_on is None:
            return out
        ratios = []
        for phi, g, values, _, _ in self.runs:
            lo, hi = float(values.min()), float(values.max())
            dx = 1.0 / values.size
            transport = lipschitz_on(phi, lo, hi) / dx
            if transport > 0.0:
                ratios.append(2.0 * lipschitz_on(g, lo, hi) / (dx * dx) / transport)
        out["solver.dt_binding_ratio"] = statistics.median(ratios) if ratios else 0.0
        return out
