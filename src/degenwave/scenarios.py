"""Scenario configs (JSON), execution, and artifact persistence.

A scenario bundles the model pair, initial data, grid, scheme controls, and
a list of named checks. Configs are plain JSON, floats round-trip through
their shortest decimal form, and every artifact write is atomic (temp file
plus rename), so repeated runs of the same config are byte-identical. CSV
floats are ``repr`` bytes: a file of at least ``_VECTOR_CSV_MIN_VALUES``
floats is written by the certified vectorized formatter in ``floatfmt``,
which falls back to ``repr`` for every value it cannot certify.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from .errors import CoverageError, SchemaError
from .grid import MAX_CELLS, MIN_CELLS, Field, Grid
from .piecewise import PiecewiseFunction, burgers, constant, identity, linear
from .solver import RunResult, SchemeParams, run_many
from .structure import require_coverage

DEFAULT_SNAPSHOT_COUNT = 33
_VECTOR_CSV_MIN_VALUES = 2**14  # below this many floats, repr beats floatfmt's first call

# Every named check: name -> (accepted params, needs initial_b, callable). A
# callable takes (result, result_b, params, out) and returns a CheckReport; the
# runs carry their model. It looks its diagnostics function up at call time, so
# a wrapper installed on the module later (a profiler, a test stub) is the one
# that runs.
CHECKS = {
    "conservation": ((), False, lambda r, rb, p, out: diag.conservation_monitor(r)),
    "decay": (("threshold",), False, lambda r, rb, p, out: diag.decay_metric(r, **p)),
    "cutoff_convergence": (("threshold",), False,
                           lambda r, rb, p, out: diag.cutoff_convergence(r, **p)),
    "entropy_residual": ((), False, lambda r, rb, p, out: diag.entropy_residual(r)),
    "squeeze_bounds": (("shift_upper", "shift_lower"), False,
                       lambda r, rb, p, out: diag.squeeze_bounds(r, **p)),
    "profile": (("t_lo", "threshold"), False, lambda r, rb, p, out: _profile_check(r, p, out)),
    "contraction": ((), True, lambda r, rb, p, out: diag.contraction_monitor(r, rb)),
    "t_nonexpansive": ((), True, lambda r, rb, p, out: diag.t_nonexpansive_from_runs(r, rb)),
}
SCENARIO_FIELDS = ("name", "phi", "g", "initial", "initial_b", "grid", "scheme", "checks", "seed")
_INITIAL_PARAMS = {  # parameters of the object-valued initial-data kinds, with defaults
    "sine": {"mean": 0.0, "amplitude": 0.0, "frequency": 1.0},
    "step": {"left": None, "right": None, "split": None},
}
_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")
_NUM = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_TERM_RE = re.compile(
    rf"^(?:(?P<coef>{_NUM})\*)?(?P<fn>sin|cos)\((?P<freq>{_NUM})\)$|^(?P<const>{_NUM})$"
)


@dataclass(frozen=True)
class CheckSpec:
    name: str
    params: tuple[tuple[str, float], ...] = ()

    def param_dict(self) -> dict:
        return dict(self.params)


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    phi: PiecewiseFunction
    g: PiecewiseFunction
    initial: str                  # JSON text of the initial-data spec
    grid_cells: int
    scheme: SchemeParams
    checks: tuple[CheckSpec, ...] = ()
    initial_b: str | None = None
    seed: int = 0


@dataclass
class ScenarioResult:
    name: str
    reports: list[diag.CheckReport]
    error: str | None = None
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return self.error is None and all(r.passed for r in self.reports)


@dataclass
class SuiteSummary:
    results: list[ScenarioResult]
    overall_pass: bool


def _number(value, path: str) -> float:
    """``value`` as a float, or a SchemaError at ``path`` unless it is a finite JSON number."""
    # bool is an int subclass; the bound also rejects nan, inf and ints beyond float range
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise SchemaError(path, f"expected a finite number, got {value!r}")
    return float(value)


# -- initial-data builders -----------------------------------------------------


def _parse_expression(text: str, path: str) -> list[tuple[float, str, float]]:
    """Sums of scaled sin/cos/constants, e.g. ``0.5 + 0.25*sin(1) - 0.1*cos(2)``.

    Terms are joined by ``+`` or ``-`` surrounded by spaces; ``sin(k)`` means
    sin(2 pi k x) at cell centers.
    """
    tokens = re.split(r"\s+([+\-])\s+", text.strip())
    if not tokens or not tokens[0]:
        raise SchemaError(path, "empty expression")
    terms = []
    sign = 1.0
    for i, tok in enumerate(tokens):
        if i % 2 == 1:
            sign = 1.0 if tok == "+" else -1.0
            continue
        m = _TERM_RE.match(tok.strip())
        if not m:
            raise SchemaError(path, f"cannot parse term {tok!r}")
        if m.group("const") is not None:
            terms.append((sign * float(m.group("const")), "const", 0.0))
        else:
            coef = float(m.group("coef")) if m.group("coef") else 1.0
            terms.append((sign * coef, m.group("fn"), float(m.group("freq"))))
        sign = 1.0
    return terms


def build_initial(spec: dict, grid: Grid, path: str = "/initial") -> Field:
    """Materialize an initial-data spec on a grid (values at cell centers)."""
    if not isinstance(spec, dict) or len(spec) != 1:
        raise SchemaError(path, "expected exactly one of sine/step/cells/expression")
    ((kind, body),) = spec.items()
    x = grid.cell_centers()
    if kind in _INITIAL_PARAMS:
        if not isinstance(body, dict):
            raise SchemaError(f"{path}/{kind}", "expected an object of parameters")
        for key in body:
            if key not in _INITIAL_PARAMS[kind]:
                raise SchemaError(f"{path}/{kind}/{key}", f"{kind} does not accept {key!r}")
    # overflowing data is reported below as a config error, without numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "sine":
            mean, amp, freq = (_number(body.get(key, default), f"{path}/sine/{key}")
                               for key, default in _INITIAL_PARAMS["sine"].items())
            vals = mean + amp * np.sin(2.0 * np.pi * freq * x)
        elif kind == "step":
            left, right, split = (_number(body.get(key), f"{path}/step")
                                  for key in _INITIAL_PARAMS["step"])
            vals = np.where(x < split, left, right)
        elif kind == "cells":
            if not isinstance(body, list):
                raise SchemaError(f"{path}/cells", "expected a list of numbers")
            if len(body) != grid.n_cells:
                raise SchemaError(f"{path}/cells",
                                  f"expected {grid.n_cells} values, got {len(body)}")
            vals = np.array([_number(v, f"{path}/cells/{i}") for i, v in enumerate(body)])
        elif kind == "expression":
            vals = np.zeros_like(x)
            for coef, fn, freq in _parse_expression(str(body), f"{path}/expression"):
                if fn == "const":
                    vals = vals + coef
                elif fn == "sin":
                    vals = vals + coef * np.sin(2.0 * np.pi * freq * x)
                else:
                    vals = vals + coef * np.cos(2.0 * np.pi * freq * x)
        else:
            raise SchemaError(path, f"unknown initial-data kind {kind!r}")
    if not np.isfinite(vals).all():
        raise SchemaError(f"{path}/{kind}", "initial values must be finite")
    return Field(grid, vals)


# -- function specs ------------------------------------------------------------


def _build_function(spec, path: str) -> PiecewiseFunction:
    if not isinstance(spec, dict):
        raise SchemaError(path, "expected an object")
    if "kind" in spec:
        kind = spec["kind"]

        def num(key, default):
            return _number(spec.get(key, default), f"{path}/{key}")

        lo = num("lo", -2.0)
        hi = num("hi", 2.0)
        try:
            if kind == "burgers":
                return burgers(lo, hi)
            if kind == "linear":
                return linear(num("slope", 1.0), num("intercept", 0.0), lo, hi)
            if kind == "identity":
                return identity(lo, hi)
            if kind == "constant":
                return constant(num("value", 0.0), lo, hi)
        except ValueError as e:
            raise SchemaError(path, str(e)) from e
        raise SchemaError(f"{path}/kind", f"unknown kind {kind!r}")
    if "breakpoints" not in spec or "pieces" not in spec:
        raise SchemaError(path, "need either kind or breakpoints+pieces")
    if not isinstance(spec["breakpoints"], list):
        raise SchemaError(f"{path}/breakpoints", "expected a list of numbers")
    pieces = spec["pieces"]
    if not isinstance(pieces, list) or not all(isinstance(p, list) for p in pieces):
        raise SchemaError(f"{path}/pieces", "expected a list of coefficient lists")
    monotone = spec.get("monotone", False)
    if not isinstance(monotone, bool):
        raise SchemaError(f"{path}/monotone", f"expected true or false, got {monotone!r}")
    breakpoints = tuple(_number(b, f"{path}/breakpoints/{i}")
                        for i, b in enumerate(spec["breakpoints"]))
    coeffs = tuple(tuple(_number(c, f"{path}/pieces/{i}/{j}") for j, c in enumerate(p))
                   for i, p in enumerate(pieces))
    try:
        return PiecewiseFunction(breakpoints, coeffs, monotone)
    except ValueError as e:
        sub = "breakpoints" if "breakpoint" in str(e) else "pieces"
        raise SchemaError(f"{path}/{sub}", str(e)) from e


# -- config parsing -------------------------------------------------------------


def _parse_scenario(doc: dict, path: str) -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise SchemaError(path, "scenario must be an object")
    name = doc.get("name")
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise SchemaError(f"{path}/name",
                          "name must match [A-Za-z0-9._-]+ (used as a directory)")
    for key in doc:
        if key not in SCENARIO_FIELDS:
            raise SchemaError(f"{path}/{key}", "unknown field")
    if "phi" not in doc or "g" not in doc:
        raise SchemaError(path, "phi and g are required")
    phi = _build_function(doc["phi"], f"{path}/phi")
    g = _build_function(doc["g"], f"{path}/g")
    if not g.monotone_nondecreasing:
        raise SchemaError(f"{path}/g/monotone",
                          "the diffusion function must be monotone nondecreasing")
    grid_spec = doc.get("grid")
    if not isinstance(grid_spec, dict) or "n_cells" not in grid_spec:
        raise SchemaError(f"{path}/grid", "grid.n_cells is required")
    n_cells = grid_spec["n_cells"]
    if not isinstance(n_cells, int) or not MIN_CELLS <= n_cells <= MAX_CELLS:
        raise SchemaError(f"{path}/grid/n_cells",
                          f"n_cells must be an integer in [{MIN_CELLS}, {MAX_CELLS}]")
    scheme_spec = doc.get("scheme")
    if not isinstance(scheme_spec, dict) or "t_end" not in scheme_spec:
        raise SchemaError(f"{path}/scheme", "scheme.t_end is required")
    t_end = _number(scheme_spec["t_end"], f"{path}/scheme/t_end")
    cfl = _number(scheme_spec.get("cfl_safety", 0.5), f"{path}/scheme/cfl_safety")
    times = scheme_spec.get("snapshot_times")
    if times is None:
        if t_end > 0.0:
            times = [i * t_end / (DEFAULT_SNAPSHOT_COUNT - 1)
                     for i in range(DEFAULT_SNAPSHOT_COUNT)]
        else:
            times = [0.0]
    if not isinstance(times, list):
        raise SchemaError(f"{path}/scheme/snapshot_times", "expected a list of times")
    times = [_number(t, f"{path}/scheme/snapshot_times/{i}") for i, t in enumerate(times)]
    try:
        scheme = SchemeParams(t_end=t_end, cfl_safety=cfl, snapshot_times=tuple(times))
    except ValueError as e:
        sub = "cfl_safety" if "cfl" in str(e) else (
            "snapshot_times" if "snapshot" in str(e) else "t_end")
        raise SchemaError(f"{path}/scheme/{sub}", str(e)) from e
    if "initial" not in doc:
        raise SchemaError(f"{path}/initial", "initial data spec is required")
    grid = Grid(n_cells)
    u0 = build_initial(doc["initial"], grid, f"{path}/initial")
    fields = [u0]
    initial_b = None
    if "initial_b" in doc:
        fields.append(build_initial(doc["initial_b"], grid, f"{path}/initial_b"))
        initial_b = json.dumps(doc["initial_b"])
    for f0 in fields:
        try:
            require_coverage(phi, g, f0)
        except CoverageError as e:
            raise SchemaError(f"{path}/{e.function}", str(e)) from e
    checks: list[CheckSpec] = []
    if not isinstance(doc.get("checks", []), list):
        raise SchemaError(f"{path}/checks", "expected a list of checks")
    for i, entry in enumerate(doc.get("checks", [])):
        cpath = f"{path}/checks/{i}"
        if isinstance(entry, str):
            entry = {"name": entry}
        if not isinstance(entry, dict) or "name" not in entry:
            raise SchemaError(cpath, "check must be a name or an object with one")
        cname = entry["name"]
        if not isinstance(cname, str) or cname not in CHECKS:
            raise SchemaError(f"{cpath}/name", f"unknown check {cname!r}")
        allowed, needs_b, _ = CHECKS[cname]
        if needs_b and initial_b is None:
            raise SchemaError(f"{cpath}/name",
                              f"{cname} needs a second initial condition (initial_b)")
        params = []
        for key, val in entry.items():
            if key == "name":
                continue
            if key not in allowed:
                raise SchemaError(f"{cpath}/{key}",
                                  f"{cname} does not accept parameter {key!r}")
            value = _number(val, f"{cpath}/{key}")
            if key == "t_lo" and value > t_end:  # no snapshot would be left to judge
                raise SchemaError(f"{cpath}/t_lo", f"t_lo {value!r} lies past t_end {t_end!r}")
            params.append((key, value))
        checks.append(CheckSpec(cname, tuple(sorted(params))))
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise SchemaError(f"{path}/seed", "seed must be an integer")
    return ScenarioConfig(
        name=name, phi=phi, g=g, initial=json.dumps(doc["initial"]),
        grid_cells=n_cells, scheme=scheme, checks=tuple(checks),
        initial_b=initial_b, seed=seed,
    )


def parse_config(text):
    """Parse a UTF-8 JSON document into one config or a list of configs."""
    try:
        doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except ValueError as e:  # bad JSON or UTF-8, or an integer literal past 4300 digits
        raise SchemaError("/", f"invalid JSON: {e}") from e
    if isinstance(doc, list):
        return [_parse_scenario(entry, f"/{i}") for i, entry in enumerate(doc)]
    return _parse_scenario(doc, "")


def serialize_config(cfg: ScenarioConfig) -> dict:
    doc = {
        "name": cfg.name,
        "phi": cfg.phi.to_dict(),
        "g": cfg.g.to_dict(),
        "initial": json.loads(cfg.initial),
        "grid": {"n_cells": cfg.grid_cells},
        "scheme": {
            "t_end": cfg.scheme.t_end,
            "cfl_safety": cfg.scheme.cfl_safety,
            "snapshot_times": list(cfg.scheme.snapshot_times),
        },
        "checks": [{"name": c.name, **c.param_dict()} for c in cfg.checks],
        "seed": cfg.seed,
    }
    if cfg.initial_b is not None:
        doc["initial_b"] = json.loads(cfg.initial_b)
    return doc


def config_to_json(cfg) -> str:
    if isinstance(cfg, list):
        return json.dumps([serialize_config(c) for c in cfg], indent=2)
    return json.dumps(serialize_config(cfg), indent=2)


# -- execution -------------------------------------------------------------------


def _write_text_atomic(path: Path, data: str | bytes) -> None:
    """Write ``data`` (text as UTF-8) to ``path`` through a temp file and a rename."""
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    try:
        tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _csv_text(header: list[str], rows) -> str:
    """One line per row of plain floats, each written as ``repr`` (shortest round trip)."""
    lines = header + [",".join(map(repr, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _write_csv(path: Path, header: list[str], matrix: np.ndarray) -> None:
    """Write the rows of a float matrix under ``header``, each float as its ``repr`` text."""
    if matrix.size < _VECTOR_CSV_MIN_VALUES:
        data = _csv_text(header, matrix.tolist()).encode()
    else:
        from .floatfmt import csv_bytes  # imported on first use: small runs never load it
        data = csv_bytes(matrix, "".join(line + "\n" for line in header).encode())
    _write_text_atomic(path, data)


def _write_snapshots_csv(path: Path, result: RunResult) -> None:
    _write_csv(path, [], np.column_stack([result.times, [f.values for _, f in result.snapshots]]))


def _write_series_csv(path: Path, series) -> None:
    _write_csv(path, ["time,value"], np.asarray(series, dtype=float))


def _write_profile_csv(path: Path, profile: Field) -> None:
    _write_csv(path, ["x,value"], np.column_stack([profile.grid.cell_centers(), profile.values]))


def _failed_report(name: str, exc: Exception) -> diag.CheckReport:
    return diag.CheckReport(name, observed=math.inf, threshold=0.0,
                            extra={"error": f"{type(exc).__name__}: {exc}"})


def _profile_check(result: RunResult, p: dict, out: Path) -> diag.CheckReport:
    """The ``profile`` check, which also writes the profile to profile.csv."""
    rep = diag.extract_profile(result, **p)
    _write_profile_csv(out / "profile.csv", diag.traveling_profile(result))
    return rep


def _run_checks(cfg: ScenarioConfig, result: RunResult,
                result_b: RunResult | None, out: Path) -> list[diag.CheckReport]:
    reports: list[diag.CheckReport] = []
    for spec in cfg.checks:
        try:
            rep = CHECKS[spec.name][2](result, result_b, spec.param_dict(), out)
        except Exception as e:  # a failed check must not abort the batch
            rep = _failed_report(spec.name, e)
        reports.append(rep)
        if rep.series is not None:
            _write_series_csv(out / f"series_{spec.name}.csv", rep.series)
    return reports


def run_scenario(cfg: ScenarioConfig, out_dir) -> ScenarioResult:
    """Execute one scenario and write its artifacts under ``out_dir/<name>/``."""
    started = time.perf_counter()
    out = Path(out_dir) / cfg.name
    out.mkdir(parents=True, exist_ok=True)
    grid = Grid(cfg.grid_cells)
    u0 = build_initial(json.loads(cfg.initial), grid)
    error = None
    reports: list[diag.CheckReport] = []
    try:
        fields = [u0]
        if cfg.initial_b is not None:
            # both trajectories advance with one shared admissible step so the
            # pair checks compare states at identical times
            fields.append(build_initial(json.loads(cfg.initial_b), grid))
        results = run_many(cfg.phi, cfg.g, fields, cfg.scheme)
        structures = [r.structure for r in results]  # analysis errors are run errors too
    except Exception as e:  # a failed run must not abort the batch
        error = f"{type(e).__name__}: {e}"
        reports = [_failed_report(spec.name, e) for spec in cfg.checks]
    else:
        for suffix, res, st in zip(("", "_b"), results, structures):
            _write_snapshots_csv(out / f"snapshots{suffix}.csv", res)
            _write_text_atomic(out / f"structure{suffix}.json",
                               json.dumps(st.to_dict(), indent=2) + "\n")
        result, result_b = results[0], results[1] if len(results) > 1 else None
        reports = _run_checks(cfg, result, result_b, out)
    payload = [r.to_dict() for r in reports]
    if error is not None:
        payload = {"error": error, "checks": payload}
    _write_text_atomic(out / "checks.json", json.dumps(payload, indent=2) + "\n")
    return ScenarioResult(cfg.name, reports, error,
                          time.perf_counter() - started)


def run_suite(cfgs: list[ScenarioConfig], out_dir) -> SuiteSummary:
    """Run a batch of scenarios in config order and write summary.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = [run_scenario(cfg, out) for cfg in cfgs]
    overall = all(r.passed for r in results)
    summary = {
        "scenarios": [
            {
                "name": r.name,
                "checks": [
                    {"name": c.name, "passed": c.passed,
                     "observed": c.observed, "threshold": c.threshold}
                    for c in r.reports
                ],
            }
            for r in results
        ],
        "overall_pass": overall,
    }
    _write_text_atomic(out / "summary.json", json.dumps(summary, indent=2) + "\n")
    return SuiteSummary(results, overall)
