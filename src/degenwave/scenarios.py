"""Scenario configs (JSON), execution, and artifact persistence.

A scenario bundles the model pair, initial data, grid, scheme controls, and
a list of named checks. Configs are plain JSON, floats round-trip through
their shortest decimal form, and every artifact write is atomic (temp file
plus rename), so repeated runs of the same config are byte-identical. CSV
floats are ``repr`` bytes: a file of at least ``_VECTOR_CSV_MIN_VALUES``
floats is streamed to its temp file block by block by the certified
vectorized formatter in ``floatfmt``, which falls back to ``repr`` for every
value it cannot certify.
"""

from __future__ import annotations

import json
import math
import os
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from .errors import CflViolationError, CoverageError, OutOfRangeError, SchemaError
from .grid import MAX_ABS, MAX_CELLS, MIN_CELLS, Field, Grid
from .piecewise import PiecewiseFunction, burgers, constant, identity, linear
from .solver import RunResult, SchemeParams, require_step_budget, run, shared_dt
from .structure import analyze, require_coverage

DEFAULT_SNAPSHOT_COUNT = 33
# Files of fewer floats are written by repr. floatfmt is faster from about 200
# floats (9 x 24: 60 against 65 us, best of 200 on one AMD EPYC core) and
# slower only on series files (9 x 2: 50 against 7 us) and its import, which
# builds its tables (about 1.3 ms). Using it for small files lowers perfbench's
# speed probe and so raises pair_batch's scaled wall_s (+9.5%, higher in 6 of 6
# alternating pairs), while its unscaled wall_s fell in only 3 of the 6 (ROADMAP
# items 1 and 17).
_VECTOR_CSV_MIN_VALUES = 2**14

# Every named check: name -> (accepted params, needs initial_b, callable). A
# callable takes (config, result, result_b, params, out) and returns a
# CheckReport; the runs carry their model. It looks its diagnostics function up
# at call time, so a wrapper installed on the module later (a profiler, a test
# stub) is the one that runs.
CHECKS = {
    "conservation": ((), False, lambda c, r, b, p, o: diag.conservation_monitor(r)),
    "decay": (("threshold",), False, lambda c, r, b, p, o: diag.decay_metric(r, **p)),
    "cutoff_convergence": (("threshold",), False,
                           lambda c, r, b, p, o: diag.cutoff_convergence(r, **p)),
    "entropy_residual": ((), False, lambda c, r, b, p, o: diag.entropy_residual(r)),
    "squeeze_bounds": (("shift_upper", "shift_lower"), False,
                       lambda c, r, b, p, o: _squeeze_check(c, r)),
    "profile": (("t_lo", "threshold"), False, lambda c, r, b, p, o: _profile_check(r, p, o)),
    "contraction": ((), True, lambda c, r, b, p, o: diag.contraction_monitor(r, b)),
    "t_nonexpansive": ((), True, lambda c, r, b, p, o: diag.t_nonexpansive_from_runs(r, b)),
}
# The keys of every config object, each read by _read. A number key maps to its
# default: _REQUIRED if the object must set it, None if the library picks it.
_REQUIRED = object()
SCENARIO_FIELDS = ("name", "phi", "g", "initial", "initial_b", "grid", "scheme", "checks", "seed")
_GRID_FIELDS = ("n_cells",)
_SCHEME_NUMBERS = {"t_end": _REQUIRED, "cfl_safety": None}  # and snapshot_times
_EXPLICIT_FIELDS = ("breakpoints", "pieces", "monotone")  # a function without a kind
_RANGE = {"lo": None, "hi": None}
_FUNCTION_KINDS = {  # kind -> (builder, its number parameters)
    "burgers": (burgers, _RANGE),
    "identity": (identity, _RANGE),
    "linear": (linear, {**_RANGE, "slope": 1.0, "intercept": None}),
    "constant": (constant, {**_RANGE, "value": 0.0}),
}
_INITIAL_PARAMS = {  # the initial-data kinds; sine and step are objects of numbers
    "sine": {"mean": 0.0, "amplitude": 0.0, "frequency": 1.0},
    "step": dict.fromkeys(("left", "right", "split"), _REQUIRED),
    "cells": None,
    "expression": None,
}
_NAME_RE = re.compile(r"(?!\.\.?$)[A-Za-z0-9._-]+")  # fullmatch; . and .. are not names
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
    initial: Field                # its grid is the scenario's grid
    scheme: SchemeParams
    checks: tuple[CheckSpec, ...] = ()
    initial_b: Field | None = None

    @property
    def fields(self) -> list[Field]:
        return [self.initial] if self.initial_b is None else [self.initial, self.initial_b]

    @cached_property
    def step(self) -> tuple[float, int]:
        """``(dt, steps)`` of ``fields``: their ``shared_dt``, so the pair checks
        compare states at identical times, within the step budget."""
        dt = shared_dt(self.phi, self.g, self.fields, self.scheme)
        return dt, require_step_budget(dt, self.scheme.t_end, self.initial.grid.n_cells)

    @cached_property
    def squeeze(self) -> tuple[float, tuple[tuple[float, Field], ...]] | None:
        """``(dt, squeeze_companions(initial))`` of ``squeeze_bounds``, or None:
        ``dt`` is ``min(step dt, shared_dt(companions))``, within the step budget."""
        p = next((c.param_dict() for c in self.checks if c.name == "squeeze_bounds"), None)
        if p is None:
            return None
        st = None if len(p) == 2 else analyze(self.phi, self.g, self.initial)
        companions = diag.squeeze_companions(self.initial, st, **p)
        dt = min(self.step[0], shared_dt(self.phi, self.g, [u for _, u in companions],
                                         self.scheme))
        require_step_budget(dt, self.scheme.t_end, self.initial.grid.n_cells)
        return dt, companions

    @property
    def trajectories(self) -> int:
        """The ``run`` calls of ``run_scenario``, a repeated base run included."""
        try:
            squeeze = self.squeeze
        except (OutOfRangeError, ValueError):  # the check fails before it steps
            return len(self.fields)
        return len(self.fields) + (0 if squeeze is None else 2 + (squeeze[0] != self.step[0]))


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
    """``value`` as a float, or a SchemaError at ``path`` unless it is a JSON number
    in [-MAX_ABS, MAX_ABS], the one range of every config number."""
    # bool is an int subclass; the bound also rejects nan and inf
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= MAX_ABS:
        raise SchemaError(path, f"expected a number in [-2^64, 2^64], got {value!r}")
    return float(value)


def _read(spec, path: str, owner: str, numbers: dict, others=()) -> dict:
    """The numbers of the config object ``spec`` at ``path``, defaults filled in.

    Any key outside ``numbers`` and ``others`` is a SchemaError at ``path/key``."""
    if not isinstance(spec, dict):
        raise SchemaError(path, "expected an object")
    for key in spec:
        if key not in numbers and key not in others:
            raise SchemaError(f"{path}/{key}",
                              f"unknown field: {owner} does not accept parameter {key!r}")
    values = {}
    for key, default in numbers.items():
        if key in spec:
            values[key] = _number(spec[key], f"{path}/{key}")
        elif default is _REQUIRED:
            raise SchemaError(f"{path}/{key}", f"{owner} requires {key!r}")
        elif default is not None:
            values[key] = default
    return values


# -- initial-data builders -----------------------------------------------------


def _parse_expression(text: str, path: str) -> list[tuple[float, str, float]]:
    """Sums of scaled sin/cos/constants, e.g. ``0.5 + 0.25*sin(1) - 0.1*cos(2)``.

    Terms are joined by ``+`` or ``-`` surrounded by spaces; ``sin(k)``, for an
    integer k, means sin(2 pi k x) at cell centers.
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
            terms.append((sign * _number(float(m.group("const")), path), "const", 0.0))
        else:
            coef = _number(float(m.group("coef")), path) if m.group("coef") else 1.0
            terms.append((sign * coef, m.group("fn"), _number(float(m.group("freq")), path)))
        sign = 1.0
    return terms


def build_initial(spec: dict, grid: Grid, path: str) -> Field:
    """Materialize initial data at cell centers (read-only); a ``sine`` is an expression."""
    _read(spec, path, "initial data", {}, _INITIAL_PARAMS)
    if len(spec) != 1:
        raise SchemaError(path, "expected exactly one of sine/step/cells/expression")
    ((kind, body),) = spec.items()
    x = grid.cell_centers()
    if _INITIAL_PARAMS[kind] is not None:
        p = _read(body, f"{path}/{kind}", kind, _INITIAL_PARAMS[kind])
    if kind == "step":
        vals = np.where(x < p["split"], p["left"], p["right"])
    elif kind == "cells":
        if not isinstance(body, list):
            raise SchemaError(f"{path}/cells", "expected a list of numbers")
        if len(body) != grid.n_cells:
            raise SchemaError(f"{path}/cells",
                              f"expected {grid.n_cells} values, got {len(body)}")
        vals = np.array([_number(v, f"{path}/cells/{i}") for i, v in enumerate(body)])
    else:
        if kind == "expression" and not isinstance(body, str):
            raise SchemaError(f"{path}/expression", "expected a string")
        terms = ([(p["mean"], "const", 0.0), (p["amplitude"], "sin", p["frequency"])]
                 if kind == "sine" else _parse_expression(body, f"{path}/expression"))
        vals = np.zeros_like(x)  # so a -0.0 mean gives +0.0 where the sine term is 0
        for coef, fn, freq in terms:
            if not freq.is_integer():  # the data would not be periodic on the circle
                raise SchemaError(f"{path}/sine/frequency" if kind == "sine" else
                                  f"{path}/expression", f"frequency {freq!r} is not an integer")
            if fn == "const":
                vals = vals + coef
            elif fn == "sin":
                vals = vals + coef * np.sin(2.0 * np.pi * freq * x)
            else:
                vals = vals + coef * np.cos(2.0 * np.pi * freq * x)
    try:  # terms in range can sum past it
        u0 = Field(grid, vals)
    except ValueError as e:
        raise SchemaError(f"{path}/{kind}", "initial values must lie in [-2^64, 2^64]") from e
    u0.values.flags.writeable = False  # a parsed config is immutable, its data included
    return u0


# -- function specs ------------------------------------------------------------


def _build_function(spec, path: str) -> PiecewiseFunction:
    if isinstance(spec, dict) and "kind" in spec:
        kind = spec["kind"]
        if not isinstance(kind, str) or kind not in _FUNCTION_KINDS:
            raise SchemaError(f"{path}/kind", f"unknown kind {kind!r}")
        build, numbers = _FUNCTION_KINDS[kind]
        params = _read(spec, path, kind, numbers, ("kind",))
        try:
            return build(**params)
        except ValueError as e:
            raise SchemaError(path, str(e)) from e
    _read(spec, path, "a function without a kind", {}, _EXPLICIT_FIELDS)
    if "breakpoints" not in spec or "pieces" not in spec:
        raise SchemaError(f"{path}/{'pieces' if 'breakpoints' in spec else 'breakpoints'}",
                          "need either kind or breakpoints+pieces")
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
    _read(doc, path, "a scenario", {}, SCENARIO_FIELDS)
    name = doc.get("name")
    if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
        raise SchemaError(f"{path}/name", "name must match [A-Za-z0-9._-]+ and not be "
                                          "'.' or '..' (used as a directory)")
    phi = _build_function(doc.get("phi"), f"{path}/phi")
    g = _build_function(doc.get("g"), f"{path}/g")
    if not g.monotone_nondecreasing:
        raise SchemaError(f"{path}/g/monotone",
                          "the diffusion function must be monotone nondecreasing")
    _read(doc.get("grid"), f"{path}/grid", "grid", {}, _GRID_FIELDS)
    n_cells = doc["grid"].get("n_cells")
    if not isinstance(n_cells, int) or not MIN_CELLS <= n_cells <= MAX_CELLS:
        raise SchemaError(f"{path}/grid/n_cells",
                          f"n_cells must be an integer in [{MIN_CELLS}, {MAX_CELLS}]")
    scheme_spec = doc.get("scheme")
    numbers = _read(scheme_spec, f"{path}/scheme", "scheme", _SCHEME_NUMBERS,
                    ("snapshot_times",))
    t_end = numbers["t_end"]
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
        scheme = SchemeParams(**numbers, snapshot_times=tuple(times))
    except ValueError as e:
        sub = "cfl_safety" if "cfl" in str(e) else (
            "snapshot_times" if "snapshot" in str(e) else "t_end")
        raise SchemaError(f"{path}/scheme/{sub}", str(e)) from e
    grid = Grid(n_cells)
    fields = [build_initial(doc.get("initial"), grid, f"{path}/initial")]
    if "initial_b" in doc:
        fields.append(build_initial(doc["initial_b"], grid, f"{path}/initial_b"))
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
        if any(c.name == cname for c in checks):  # its series_<name>.csv would be overwritten
            raise SchemaError(f"{cpath}/name", f"check {cname!r} is listed twice")
        allowed, needs_b, _ = CHECKS[cname]
        if needs_b and "initial_b" not in doc:
            raise SchemaError(f"{cpath}/name",
                              f"{cname} needs a second initial condition (initial_b)")
        params = _read(entry, cpath, cname, dict.fromkeys(allowed), ("name",))
        if params.get("t_lo", t_end) > t_end:  # no snapshot would be left to judge
            raise SchemaError(f"{cpath}/t_lo", f"t_lo {params['t_lo']!r} lies past t_end {t_end!r}")
        if params.get("shift_upper", 0.0) < 0.0:  # a companion below the run
            raise SchemaError(f"{cpath}/shift_upper", "shift_upper must be >= 0")
        if params.get("shift_lower", 0.0) > 0.0:  # a companion above the run
            raise SchemaError(f"{cpath}/shift_lower", "shift_lower must be <= 0")
        checks.append(CheckSpec(cname, tuple(sorted(params.items()))))
    seed = doc.get("seed", 0)  # accepted and checked, not stored
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise SchemaError(f"{path}/seed", "seed must be an integer")
    cfg = ScenarioConfig(
        name=name, phi=phi, g=g, initial=fields[0], scheme=scheme, checks=tuple(checks),
        initial_b=fields[1] if len(fields) > 1 else None,
    )
    try:  # every planned step, so a run over the step budget never starts
        cfg.step
    except CflViolationError as e:
        raise SchemaError(f"{path}/scheme/t_end", str(e)) from e
    try:  # plans the companions; data the model cannot analyze or step are left to the run
        cfg.trajectories
    except CflViolationError as e:
        i = [c.name for c in checks].index("squeeze_bounds")
        raise SchemaError(f"{path}/checks/{i}/name", f"squeeze_bounds companions: {e}") from e
    return cfg


def parse_config(text):
    """Parse a UTF-8 JSON document into one config or a nonempty list of configs."""
    try:
        doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except ValueError as e:  # bad JSON or UTF-8, or an integer literal past 4300 digits
        raise SchemaError("/", f"invalid JSON: {e}") from e
    if doc == []:  # a suite of no scenarios would pass while checking nothing
        raise SchemaError("/", "a list of scenarios must not be empty")
    if isinstance(doc, list):
        cfgs = [_parse_scenario(entry, f"/{i}") for i, entry in enumerate(doc)]
        for i, cfg in enumerate(cfgs):
            if any(c.name == cfg.name for c in cfgs[:i]):  # both would write into out/<name>/
                raise SchemaError(f"/{i}/name", f"scenario name {cfg.name!r} is used twice")
        return cfgs
    return _parse_scenario(doc, "")


# -- execution -------------------------------------------------------------------


@contextmanager
def _atomic_path(path: Path):
    """Yield a temp path beside ``path``, renamed to ``path`` when the block ends
    and deleted if it fails: the one rule of every artifact write."""
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_text_atomic(path: Path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path`` through a temp file and a rename."""
    with _atomic_path(path) as tmp:
        tmp.write_bytes(text.encode("utf-8"))  # write_text would translate newlines


def _write_csv(path: Path, header: list[str], matrix: np.ndarray) -> None:
    """Write the lines of ``header``, then one line per row of a float matrix, each
    float as its ``repr`` text (shortest round trip)."""
    head = "".join(line + "\n" for line in header)
    if matrix.size < _VECTOR_CSV_MIN_VALUES:
        _write_text_atomic(path, head + "".join(
            ",".join(map(repr, row)) + "\n" for row in matrix.tolist()))
        return
    from .floatfmt import csv_blocks  # imported on first use: small runs never load it
    with _atomic_path(path) as tmp, tmp.open("wb") as f:
        f.writelines(csv_blocks(matrix, head.encode()))


def _write_snapshots_csv(path: Path, result: RunResult) -> None:
    _write_csv(path, [], result.table)


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


def _squeeze_check(cfg: ScenarioConfig, result: RunResult) -> diag.CheckReport:
    """Steps the companions of ``cfg.squeeze``, and the base again at a smaller step."""
    dt, ((su, upper), (sl, lower)) = cfg.squeeze
    at_dt = lambda u0: run(cfg.phi, cfg.g, u0, cfg.scheme, _dt=dt)
    base = result if dt == result.dt else at_dt(cfg.initial)
    return diag.squeeze_bounds(base, (su, at_dt(upper)), (sl, at_dt(lower)))


def _run_checks(cfg: ScenarioConfig, result: RunResult,
                result_b: RunResult | None, out: Path) -> list[diag.CheckReport]:
    reports: list[diag.CheckReport] = []
    for spec in cfg.checks:
        try:
            rep = CHECKS[spec.name][2](cfg, result, result_b, spec.param_dict(), out)
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
    error = None
    reports: list[diag.CheckReport] = []
    try:
        results = [run(cfg.phi, cfg.g, u0, cfg.scheme, _dt=cfg.step[0]) for u0 in cfg.fields]
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
