import contextlib
import dataclasses
import hashlib
import importlib.util
import inspect
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenwave import (
    CflViolationError,
    CheckReport,
    Field,
    Grid,
    PiecewiseFunction,
    SchemaError,
    SchemeParams,
    constant,
    diagnostics,
    parse_config,
    run_scenario,
    run_suite,
    scenarios,
    solver,
)
from degenwave import cli as cli_module
from degenwave.cli import cli
from degenwave.grid import MAX_ABS, MAX_CELLS
from degenwave.scenarios import (
    CHECKS,
    _build_function,
    _write_profile_csv,
    _write_series_csv,
    _write_snapshots_csv,
    build_initial,
)
from degenwave.solver import RunResult, _Workspace, run
from degenwave.structure import analyze

ROOT = Path(__file__).resolve().parents[1]
BEYOND = math.nextafter(MAX_ABS, math.inf)
EDGE_RANGE = {"lo": -MAX_ABS, "hi": MAX_ABS}

MINIMAL = {
    "name": "burgers_min",
    "phi": {"kind": "burgers", "lo": -1, "hi": 1},
    "g": {"kind": "constant", "value": 0.0, "lo": -1, "hi": 1},
    "initial": {"sine": {"mean": 0.5, "amplitude": 0.25, "frequency": 1}},
    "grid": {"n_cells": 64},
    "scheme": {"t_end": 0.5},
    "checks": ["conservation"],
}


def minimal(**overrides):
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(overrides)
    return doc


def patch_everywhere(monkeypatch, original, replacement):
    """Replace ``original`` in every degenwave module that holds it by name."""
    for name, module in list(sys.modules.items()):
        if name.startswith("degenwave"):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)


class TestParsing:
    def test_minimal_defaults(self):
        cfg = parse_config(json.dumps(MINIMAL).encode())
        assert cfg.name == "burgers_min"
        assert cfg.scheme.cfl_safety == 0.5
        assert len(cfg.scheme.snapshot_times) == 33
        assert [c.name for c in cfg.checks] == ["conservation"]

    def test_t_end_at_the_range_edge_keeps_the_default_schedule(self):
        # a flat flux takes one step of t_end; i * t_end / 32 stays finite
        flat = {"phi": {"kind": "constant", "value": 0.2, "lo": -1, "hi": 1}}
        cfg = parse_config(json.dumps(minimal(**flat, scheme={"t_end": MAX_ABS})))
        assert cfg.scheme.snapshot_times == tuple(i * MAX_ABS / 32 for i in range(33))
        assert cfg.scheme.snapshot_times[-1] == MAX_ABS and cfg.step == (MAX_ABS, 1)
        # past the edge, listing the times does not help
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(minimal(
                **flat, scheme={"t_end": 1e308, "snapshot_times": [0.0, 1e308]})))
        assert err.value.path == "/scheme/t_end"

    def test_array_of_scenarios(self):
        cfgs = parse_config(json.dumps([MINIMAL, minimal(name="b2")]))
        assert isinstance(cfgs, list)
        assert [c.name for c in cfgs] == ["burgers_min", "b2"]

    def test_breakpoints_not_increasing(self):
        doc = minimal(phi={"breakpoints": [1.0, -1.0], "pieces": [[0.0, 1.0]]})
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(doc))
        assert err.value.path == "/phi/breakpoints"

    def test_cfl_out_of_bounds_rejected(self):
        doc = minimal(scheme={"t_end": 0.5, "cfl_safety": 1.5})
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(doc))
        assert err.value.path == "/scheme/cfl_safety"

    def test_nonmonotone_diffusion_rejected(self):
        doc = minimal(g={"breakpoints": [-1.0, 1.0], "pieces": [[0.0, 1.0]],
                         "monotone": False})
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(doc))
        assert err.value.path == "/g/monotone"

    def test_unknown_check(self):
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(minimal(checks=["no_such_check"])))
        assert err.value.path == "/checks/0/name"

    def test_pair_check_requires_second_initial(self):
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(minimal(checks=["contraction"])))
        assert err.value.path == "/checks/0/name"

    def test_initial_must_fit_covered_range(self):
        doc = minimal(initial={"sine": {"mean": 0.5, "amplitude": 0.6}})
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(doc))
        assert err.value.path.startswith("/phi")

    def test_cells_length_checked(self):
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(minimal(initial={"cells": [0.1, 0.2]})))
        assert err.value.path == "/initial/cells"

    def test_expression_grammar(self):
        doc = minimal(initial={"expression": "0.5 + 0.2*sin(1) - 0.1*cos(2)"})
        cfg = parse_config(json.dumps(doc))
        x = Grid(64).cell_centers()
        want = 0.5 + 0.2 * np.sin(2 * np.pi * x) - 0.1 * np.cos(4 * np.pi * x)
        assert cfg.initial.values == pytest.approx(want, abs=1e-15)

    def test_sine_is_its_expression_byte_for_byte(self):
        # a sine datum is the expression mean + amplitude*sin(frequency), summed by
        # the same loop; both give the bytes of mean + amplitude*sin(2 pi f x) but
        # where the mean is -0.0: the loop starts from +0.0 zeros, so its zero
        # cells are +0.0, as in the expression -0.0 + 0.0*sin(1)
        rng = np.random.default_rng(31)
        special = [0.0, -0.0, 1e3, -1e3]

        def number():
            return float(rng.choice(special)) if rng.random() < 0.3 else float(rng.uniform(-2, 2))

        data = [(int(2.0 ** rng.uniform(2, 14)),
                 {"mean": number(), "amplitude": number(), "frequency": int(rng.integers(1, 9))})
                for _ in range(1000)]
        for path in sorted((ROOT / "configs").glob("*.json")):
            docs = json.loads(path.read_text())
            for doc in docs if isinstance(docs, list) else [docs]:
                data += [(doc["grid"]["n_cells"], doc[key]["sine"])
                         for key in ("initial", "initial_b") if "sine" in doc.get(key, {})]
        assert len(data) == 1007
        data += [(8, {"mean": -0.0, "amplitude": -0.0}), (16, {"mean": -0.0, "amplitude": 0.5})]
        signed_zeros = 0
        for n, sine in data:
            grid = Grid(n)
            m, a, f = ({"mean": 0.0, "amplitude": 0.0, "frequency": 1, **sine}[k]
                       for k in ("mean", "amplitude", "frequency"))
            got = build_initial({"sine": sine}, grid, "/initial").values
            spelt = build_initial({"expression": f"{m!r} + {a!r}*sin({f!r})"}, grid, "/initial")
            closed = m + a * np.sin(2.0 * np.pi * f * grid.cell_centers())
            assert got.tobytes() == spelt.values.tobytes()
            if m != 0.0 or math.copysign(1.0, m) > 0.0:
                assert got.tobytes() == closed.tobytes()
            else:  # a -0.0 mean
                assert np.array_equal(got, closed) and not np.signbit(got[got == 0.0]).any()
                signed_zeros += closed.tobytes() != got.tobytes()
        assert signed_zeros > 0  # the -0.0 rule is seen, not vacuous

    def test_step_initial_data(self):
        doc = minimal(initial={"step": {"left": 0.3, "right": 0.7, "split": 0.4}})
        x = Grid(64).cell_centers()
        want = np.where(x < 0.4, 0.3, 0.7)
        assert parse_config(json.dumps(doc)).initial.values.tolist() == want.tolist()

    def test_expression_rejects_garbage(self):
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(minimal(initial={"expression": "exp(3*x)"})))
        assert err.value.path == "/initial/expression"

    @pytest.mark.parametrize("overrides, path", [
        ({"scheme": {"t_end": "abc"}}, "/scheme/t_end"),
        ({"scheme": {"t_end": 0.5, "snapshot_times": 5}}, "/scheme/snapshot_times"),
        ({"checks": 5}, "/checks"),
        ({"checks": [{"name": "decay", "threshold": "x"}]}, "/checks/0/threshold"),
        # `tol` is not a setting: any value of it is an unknown field
        ({"tol": "x"}, "/tol"),
        ({"tol": -1.0}, "/tol"),
        ({"phi": {"kind": "burgers", "lo": "x", "hi": 1}}, "/phi/lo"),
        ({"initial": {"sine": {"mean": 0.5, "amplitude": "x"}}}, "/initial/sine/amplitude"),
        ({"scheme": {"t_end": 0.5, "cfl_safety": "x"}}, "/scheme/cfl_safety"),
        ({"scheme": {"t_end": 0.5, "snapshot_times": [0.0, "x"]}},
         "/scheme/snapshot_times/1"),
        ({"initial": {"cells": [1e999] + [0.0] * 63}}, "/initial/cells/0"),
        ({"initial": {"expression": "1e999"}}, "/initial/expression"),
        ({"initial": {"step": {"left": 1e999, "right": 0, "split": 0.5}}},
         "/initial/step/left"),
        # numbers in range whose data are not
        pytest.param({"initial": {"sine": {"mean": MAX_ABS, "amplitude": MAX_ABS}}},
                     "/initial/sine", marks=pytest.mark.filterwarnings("error")),
        ({"initial_b": {"cells": [0.0] * 63 + [-1e999]}, "checks": ["contraction"]},
         "/initial_b/cells/63"),
        ({"scheme": {"t_end": 0.5, "snapshot_times": [0.0, float("nan")]}},
         "/scheme/snapshot_times/1"),
        ({"checks": [{"name": "decay", "threshold": float("inf")}]}, "/checks/0/threshold"),
        ({"initial": {"sine": {"mean": float("nan"), "amplitude": 0.25}}},
         "/initial/sine/mean"),
        # JSON booleans and numeric strings are not numbers
        ({"scheme": {"t_end": True}}, "/scheme/t_end"),
        ({"scheme": {"t_end": 0.5, "cfl_safety": "0.5"}}, "/scheme/cfl_safety"),
        ({"checks": [{"name": "decay", "threshold": False}]}, "/checks/0/threshold"),
        ({"initial": {"sine": {"mean": 0.5, "amplitude": "0.2"}}}, "/initial/sine/amplitude"),
        ({"initial": {"step": {"left": True, "right": 0.0, "split": 0.5}}},
         "/initial/step/left"),
        ({"initial": {"step": {"left": 0.1, "right": "0.2", "split": 0.5}}},
         "/initial/step/right"),
        ({"initial": {"step": {"left": 0.1, "right": 0.2}}}, "/initial/step/split"),
        ({"seed": True}, "/seed"),
        ({"tol": 10 ** 400}, "/tol"),
        # a misspelt parameter must not fall back to its default
        ({"initial": {"sine": {"mean": 0.5, "amplitud": 0.2}}}, "/initial/sine/amplitud"),
        ({"initial": {"step": {"left": 0.1, "right": 0.2, "split": 0.5, "width": 0.1}}},
         "/initial/step/width"),
        ({"checks": [{"name": ["decay"]}]}, "/checks/0/name"),
        pytest.param({"initial": {"expression": "18446744073709551616 + 18446744073709551616"}},
                     "/initial/expression", marks=pytest.mark.filterwarnings("error")),
        # explicit cells and model coefficients are JSON numbers too, and the
        # monotone flag is a JSON boolean
        ({"initial": {"cells": [True, "0.5"] + [0.1] * 62}}, "/initial/cells/0"),
        ({"initial": {"cells": [0.1, "0.5"] + [0.1] * 62}}, "/initial/cells/1"),
        ({"initial": {"cells": "0.5"}}, "/initial/cells"),
        ({"phi": {"breakpoints": [-1, True], "pieces": [["0", 1]]}}, "/phi/breakpoints/1"),
        ({"phi": {"breakpoints": [-1, 1], "pieces": [["0", 1]]}}, "/phi/pieces/0/0"),
        ({"g": {"breakpoints": [-1, 1], "pieces": [[0.0, False]], "monotone": True}},
         "/g/pieces/0/1"),
        ({"phi": {"breakpoints": [-1, 1], "pieces": [0.0]}}, "/phi/pieces"),
        ({"phi": {"breakpoints": {"lo": -1}, "pieces": [[0.0]]}}, "/phi/breakpoints"),
        ({"g": {"breakpoints": [-1, 1], "pieces": [[0.0, 1.0]], "monotone": "false"}},
         "/g/monotone"),
        # a profile window that starts after the run ends has nothing to judge
        ({"checks": ["decay", {"name": "profile", "t_lo": 100, "threshold": 0.0}]},
         "/checks/1/t_lo"),
        # grids too large to allocate are rejected before any allocation
        ({"grid": {"n_cells": 10 ** 400}}, "/grid/n_cells"),
        ({"grid": {"n_cells": 2 ** 62}}, "/grid/n_cells"),
        ({"grid": {"n_cells": MAX_CELLS + 1}}, "/grid/n_cells"),
        # the first piece ends at 4, the second starts at 0
        ({"phi": {"breakpoints": [-2, 0, 2], "pieces": [[2.0, 1.0], [0.0, 2.0]]}},
         "/phi/pieces"),
        # data in [0.25, 0.75] need g on [-0.75, 0.75]
        ({"g": {"kind": "constant", "value": 0.0, "lo": -0.5, "hi": 0.5}}, "/g"),
        # a repeated check would overwrite its series_<name>.csv
        ({"checks": ["profile", "decay", "profile"]}, "/checks/2/name"),
        ({"checks": [{"name": "decay", "threshold": 1.0}, "decay"]}, "/checks/1/name"),
        # a companion below (above) the run would make squeeze_bounds fail at run time
        ({"checks": [{"name": "squeeze_bounds", "shift_upper": -0.1}]}, "/checks/0/shift_upper"),
        ({"checks": [{"name": "squeeze_bounds", "shift_lower": 1e-9}]}, "/checks/0/shift_lower"),
        # a missing key is reported at the path it would have
        ({"phi": {"pieces": [[0.0, 1.0]]}}, "/phi/breakpoints"),
        ({"scheme": {"cfl_safety": 0.5}}, "/scheme/t_end"),
        # an expression is text, not a number that would run as a constant
        ({"initial": {"expression": 0.25}}, "/initial/expression"),
        ({"initial": {"expression": ["0.25"]}}, "/initial/expression"),
        ({"initial": {"expression": None}}, "/initial/expression"),
        # t_end past 2^64, with a flux that steps and with a flat one
        ({"scheme": {"t_end": 1e308}}, "/scheme/t_end"),
        ({"scheme": {"t_end": 5e307}}, "/scheme/t_end"),
        ({"phi": {"kind": "constant", "value": 0.2, "lo": -1, "hi": 1},
          "scheme": {"t_end": 1e308}}, "/scheme/t_end"),
        ({"scheme": {"t_end": -0.5}}, "/scheme/t_end"),
        ({"initial": {"expression": ""}}, "/initial/expression"),
        ({"initial": {"expression": "   "}}, "/initial/expression"),
        # initial data name exactly one kind
        ({"initial": {}}, "/initial"),
        ({"initial": {"sine": {"mean": 0.5}, "step": {"left": 0.4, "right": 0.6, "split": 0.5}}},
         "/initial"),
        ({"phi": {"kind": "cubic", "lo": -1, "hi": 1}}, "/phi/kind"),
        ({"phi": {"kind": "linear", "slope": 1.0, "lo": 1, "hi": -1}}, "/phi"),
        # one piece per breakpoint interval
        ({"phi": {"breakpoints": [-1, 0, 1], "pieces": [[0.0, 1.0]]}}, "/phi/breakpoints"),
        # a frequency that is not an integer gives data that are not periodic
        ({"initial": {"sine": {"mean": 0.5, "amplitude": 0.2, "frequency": 1.5}}},
         "/initial/sine/frequency"),
        ({"initial": {"expression": "0.5 + 0.2*sin(1.5)"}}, "/initial/expression"),
        ({"initial": {"expression": "0.5 - 0.1*cos(2) + 0.1*cos(0.25)"}}, "/initial/expression"),
        # a coefficient past 2^64, whose piece would overflow at its right end
        ({"phi": {"breakpoints": [-2, 0, 2], "pieces": [[2.0, 1e308], [0.0, 2.0]]}},
         "/phi/pieces/0/1"),
        # a name is a directory under --out: no separator, and neither . nor ..
        ({"name": "a/b"}, "/name"),
        ({"name": "."}, "/name"),
        ({"name": ".."}, "/name"),
        ({"name": "a\n"}, "/name"),
    ])
    def test_malformed_value_is_schema_error(self, overrides, path, tmp_path, capsys):
        doc = minimal(**overrides)
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(doc))
        assert err.value.path == path
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        assert cli(["analyze", "--config", str(cfg)]) == 2
        assert f"config error at {path}:" in capsys.readouterr().err

    def test_scenario_names(self, tmp_path):
        assert parse_config(json.dumps(minimal(name="a.b"))).name == "a.b"
        assert parse_config(json.dumps(minimal(name="..."))).name == "..."
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps([minimal(name="a.b"), minimal(name="..")]))
        assert err.value.path == "/1/name"
        # ".." would write into the parent of --out, "." into --out itself
        for name in ("..", "."):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(minimal(name=name)))
            with contextlib.redirect_stderr(io.StringIO()):
                assert cli(["run", "--config", str(cfg), "--out", str(tmp_path / "o" / "run")]) == 2
            assert not (tmp_path / "o").exists()

    # a config that holds one number out of range, at the pointer given
    RANGE_SLOTS = {
        "/initial/cells/0": lambda v: minimal(initial={"cells": [v] + [0.5] * 63}),
        "/phi/breakpoints/1": lambda v: minimal(phi={"breakpoints": [-1, v],
                                                     "pieces": [[0.0, 1.0]]}),
        "/phi/pieces/0/1": lambda v: minimal(phi={"breakpoints": [-1, 1],
                                                  "pieces": [[0.0, v]]}),
        "/scheme/t_end": lambda v: minimal(scheme={"t_end": v}),
        "/scheme/snapshot_times/1": lambda v: minimal(scheme={"t_end": 0.5,
                                                              "snapshot_times": [0.0, v]}),
        "/checks/0/threshold": lambda v: minimal(checks=[{"name": "decay", "threshold": v}]),
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [BEYOND, -BEYOND, math.nan, math.inf, -math.inf],
                             ids=["beyond", "minus_beyond", "nan", "inf", "minus_inf"])
    @pytest.mark.parametrize("path", sorted(RANGE_SLOTS))
    def test_number_out_of_range_is_exit_2_at_its_path(self, path, bad, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(self.RANGE_SLOTS[path](bad)))
        assert cli(["analyze", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"config error at {path}: expected a number in [-2^64, 2^64], got {bad!r}\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("coef", ["18446744073709555712", "1e999", "-1e999"])
    def test_expression_coefficient_out_of_range_is_exit_2(self, coef, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(minimal(initial={"expression": f"0.5 + {coef}*sin(1)"})))
        assert cli(["analyze", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(
            "config error at /initial/expression: expected a number in [-2^64, 2^64]")

    @pytest.mark.filterwarnings("error")
    def test_numbers_at_the_range_edge_are_accepted(self, tmp_path, capsys):
        # every kind of number at +-2^64: data, breakpoints, coefficients,
        # check parameters, times and expression coefficients
        docs = [
            minimal(phi={"breakpoints": [-MAX_ABS, 0, MAX_ABS], "pieces": [[-MAX_ABS, 1.0],
                                                                            [0.0, 1.0]]},
                    g={"kind": "constant", "value": MAX_ABS, **EDGE_RANGE},
                    initial={"cells": [MAX_ABS, -MAX_ABS] * 32},
                    checks=[{"name": "decay", "threshold": MAX_ABS},
                            {"name": "squeeze_bounds", "shift_lower": -MAX_ABS}]),
            minimal(phi={"kind": "constant", "value": -MAX_ABS, **EDGE_RANGE},
                    g={"kind": "constant", **EDGE_RANGE},
                    initial={"expression": "-18446744073709551616*sin(1)"},
                    scheme={"t_end": MAX_ABS, "snapshot_times": [0.0, MAX_ABS]}),
        ]
        sups = []
        for doc in docs:
            cfg = tmp_path / "edge.json"
            cfg.write_text(json.dumps(doc))
            assert cli(["analyze", "--config", str(cfg)]) == 0
            sups.append(json.loads(capsys.readouterr().out)["M"])
        assert sups[0] == MAX_ABS and 0.99 * MAX_ABS < sups[1] < MAX_ABS

    @pytest.mark.parametrize("overrides, path, message", [
        ({"tol": 1e-10}, "/tol", "unknown field"),
        ({"checks": [{"name": "entropy_residual", "comparison_constant": 10.0}]},
         "/checks/0/comparison_constant", "does not accept parameter"),
        ({"checks": [{"name": "cutoff_convergence", "band_lo": 0.2}]},
         "/checks/0/band_lo", "does not accept parameter"),
        ({"checks": [{"name": "cutoff_convergence", "band_hi": 0.8}]},
         "/checks/0/band_hi", "does not accept parameter"),
        ({"initial_b": {"sine": {"mean": 0.55, "amplitude": 0.2}},
          "checks": [{"name": "t_nonexpansive", "tolerance": 0.1}]},
         "/checks/0/tolerance", "does not accept parameter"),
    ])
    def test_removed_setting_is_exit_2(self, overrides, path, message, tmp_path, capsys):
        cfg = tmp_path / "old.json"
        cfg.write_text(json.dumps(minimal(**overrides)))
        assert cli(["analyze", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"config error at {path}:" in err and message in err

    @pytest.mark.parametrize("overrides, path", [
        ({"bogus": 1}, "/bogus"),
        ({"phi": {"kind": "burgers", "lo": -1, "hi": 1, "bogus": 1}}, "/phi/bogus"),
        ({"phi": {"breakpoints": [-1, 1], "pieces": [[0.0, 1.0]], "bogus": 1}}, "/phi/bogus"),
        ({"g": {"kind": "constant", "lo": -1, "hi": 1, "bogus": 1}}, "/g/bogus"),
        ({"g": {"breakpoints": [-1, 1], "pieces": [[0.0]], "monotone": True, "bogus": 1}},
         "/g/bogus"),
        ({"grid": {"n_cells": 64, "bogus": 1}}, "/grid/bogus"),
        ({"scheme": {"t_end": 0.5, "bogus": 1}}, "/scheme/bogus"),
        ({"initial": {"sine": {"mean": 0.5}, "bogus": 1}}, "/initial/bogus"),
        ({"initial": {"sine": {"mean": 0.5, "bogus": 1}}}, "/initial/sine/bogus"),
        ({"initial": {"step": {"left": 0.4, "right": 0.6, "split": 0.5, "bogus": 1}}},
         "/initial/step/bogus"),
        ({"checks": [{"name": "decay", "bogus": 1}]}, "/checks/0/bogus"),
        # misspelt keys must not fall back to their defaults
        ({"phi": {"kind": "linear", "slop": 2.0, "lo": -1, "hi": 1}}, "/phi/slop"),
        ({"phi": {"breakpoints": [-1, 1], "pieces": [[0.0, 1.0]], "monotne": False}},
         "/phi/monotne"),
        ({"phi": {"kind": "burgers", "breakpoints": [-1, 1], "lo": -1, "hi": 1}},
         "/phi/breakpoints"),
        ({"grid": {"n_cell": 64}}, "/grid/n_cell"),
        ({"scheme": {"t_end": 0.5, "cfl": 0.9}}, "/scheme/cfl"),
    ])
    def test_unknown_key_is_exit_2_at_its_path(self, overrides, path, tmp_path, capsys):
        doc = minimal(**overrides)
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(doc))
        assert err.value.path == path
        cfg = tmp_path / "typo.json"
        cfg.write_text(json.dumps(doc))
        assert cli(["analyze", "--config", str(cfg)]) == 2
        assert f"config error at {path}: unknown field" in capsys.readouterr().err

    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")),
                             ids=lambda p: p.name)
    def test_shipped_config_parses(self, path):
        assert parse_config(path.read_bytes())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shifts", [{"shift_upper": MAX_ABS},
                                        {"shift_upper": MAX_ABS, "shift_lower": 0.0}])
    def test_squeeze_companions_that_overflow_are_left_to_the_run(self, shifts):
        # u0 + 2^64 leaves the value range, Field's ValueError; the run reports it
        doc = minimal(phi={"kind": "constant", **EDGE_RANGE}, g={"kind": "constant", **EDGE_RANGE},
                      initial={"sine": {"mean": 0.5 * MAX_ABS}}, grid={"n_cells": 8},
                      checks=[{"name": "squeeze_bounds", **shifts}])
        cfg = parse_config(json.dumps(doc))
        assert cfg.checks[0].param_dict() == shifts
        assert cfg.trajectories == 1

    def test_seed_is_checked_not_stored(self):
        cfg = parse_config(json.dumps(minimal(seed=7)))
        assert not hasattr(cfg, "seed")

    def test_explicit_function_builds_the_same_function(self):
        # -u on [-1, 0], 2u on [0, 1]
        spec = {"breakpoints": [-1, 0, 1], "pieces": [[1.0, -1], [0, 2]], "monotone": False}
        f = _build_function(spec, "/phi")
        assert f.breakpoints == (-1.0, 0.0, 1.0)
        assert f.pieces == ((1.0, -1.0), (0.0, 2.0))
        assert not f.monotone_nondecreasing

    @pytest.mark.parametrize("d", [
        {"breakpoints": [-1, True], "pieces": [["0", 1.0]], "monotone": "false"},
        {"breakpoints": [-1, 1], "pieces": [[0.0, 1.0]], "monotone": "false"},
        {"breakpoints": [-1, True], "pieces": [[0.0, 1.0]]},
        {"breakpoints": [-1, "1"], "pieces": [[0.0, 1.0]]},
        {"breakpoints": [-1, 1], "pieces": [["0", 1.0]]},
        {"breakpoints": [-1, 1], "pieces": [[0.0, False]], "monotone": True},
    ])
    def test_from_dict_rejects_non_numbers_and_non_bool_flag(self, d):
        with pytest.raises(SchemaError):
            _build_function(d, "/phi")

    def test_non_finite_literal_in_suite_is_exit_2(self, tmp_path, capsys):
        # 1e999 parses to inf; it must stop the suite before any stepping
        cfg = tmp_path / "bad.json"
        doc = minimal(initial={"step": {"left": 12345.0, "right": 0.0, "split": 0.5}})
        cfg.write_text(json.dumps([doc]).replace("12345.0", "1e999"))
        assert cli(["suite", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "config error at /0/initial/step/left:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_scenario_name_is_exit_2(self, tmp_path, capsys):
        # both scenarios would write into out/same/
        docs = [minimal(name="same"), minimal(name="other"), minimal(name="same")]
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(docs))
        assert err.value.path == "/2/name"
        cfg = tmp_path / "batch.json"
        cfg.write_text(json.dumps(docs))
        assert cli(["suite", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "config error at /2/name:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_invalid_json(self):
        with pytest.raises(SchemaError):
            parse_config(b"{not json")

    @pytest.mark.parametrize("text", [
        b'{"name": "x", "tol": 1' + b"0" * 5000 + b"}",  # past the int digit limit
        b'{"name": "\xff"}',                               # not UTF-8
    ])
    def test_undecodable_document_is_schema_error(self, text, tmp_path, capsys):
        with pytest.raises(SchemaError) as err:
            parse_config(text)
        assert err.value.path == "/"
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(text)
        assert cli(["analyze", "--config", str(cfg)]) == 2
        assert "config error at /: invalid JSON" in capsys.readouterr().err


def _load_workloads():
    """perfbench/workloads.py, loaded by path so that no benchmark module lands on sys.path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()


@pytest.mark.parametrize("size", WORKLOADS.SIZES)
@pytest.mark.parametrize("workload", sorted(WORKLOADS.WORKLOADS))
def test_benchmark_batches_parse(workload, size):
    # a stricter schema must never reject the batches the benchmark feeds the program
    for seed in range(10):
        assert parse_config(WORKLOADS.generate(workload, seed, size))


# A 16-cell pair scenario that uses every check with every parameter.
FUZZ_BASE = {
    "name": "fuzz",
    "phi": {"breakpoints": [-1, 0, 1], "pieces": [[0.0, 1.0], [1.0, 1.0, 0.5]]},
    "g": {"kind": "constant", "value": 0.1, "lo": -1, "hi": 1},
    "initial": {"sine": {"mean": 0.3, "amplitude": 0.2, "frequency": 1}},
    "initial_b": {"cells": [0.1 * (i % 5) for i in range(16)]},
    "grid": {"n_cells": 16},
    "scheme": {"t_end": 0.1, "cfl_safety": 0.5, "snapshot_times": [0.0, 0.05, 0.1]},
    "checks": ["conservation", {"name": "decay", "threshold": 0.5},
               {"name": "cutoff_convergence", "threshold": 0.1}, "entropy_residual",
               {"name": "squeeze_bounds", "shift_upper": 0.1, "shift_lower": -0.1},
               {"name": "profile", "t_lo": 0.05, "threshold": 0.1},
               "contraction", "t_nonexpansive"],
    "seed": 0,
}
# no int in (64, MAX_CELLS], so no mutation asks for a large allocation
FUZZ_POOL = [None, True, False, 0, 1, -1, 2.5, 1e308, -1e308, 1e-320, "x", [], {},
             10 ** 400, 2 ** 62, -0.0, MAX_ABS, -MAX_ABS, BEYOND]


def _slots(doc, path=()):
    """The key path of every entry of a nested JSON document, containers included."""
    for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _slots(value, path + (key,))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_config_parses_or_fails_with_a_path(data, tmp_path_factory):
    """Configs one to three entries away from a valid one never escape as a traceback.

    Only parsing and ``analyze`` run, so no mutation steps the solver.
    """
    doc = json.loads(json.dumps(FUZZ_BASE))
    for _ in range(data.draw(st.integers(1, 3))):
        *parents, key = data.draw(st.sampled_from(list(_slots(doc))))
        target = doc
        for p in parents:
            target = target[p]
        target[key] = data.draw(st.sampled_from(FUZZ_POOL))
    text = json.dumps(doc)
    try:
        parse_config(text)
    except SchemaError as e:
        assert e.path == "" or e.path.startswith("/")
    cfg = tmp_path_factory.mktemp("fuzz") / "cfg.json"
    cfg.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli(["analyze", "--config", str(cfg)]) in (0, 2)


def test_fuzz_base_config_is_valid():
    cfg = parse_config(json.dumps(FUZZ_BASE))
    assert {c.name for c in cfg.checks} == set(CHECKS)
    assert {key for c in cfg.checks for key, _ in c.params} == {
        key for allowed, _, _ in CHECKS.values() for key in allowed}


class TestCheckRegistry:
    SECOND = {"sine": {"mean": 0.55, "amplitude": 0.2}}

    @pytest.mark.parametrize("name", sorted(CHECKS))
    def test_every_param_parses(self, name):
        # shift_lower is the one parameter that must not be positive
        params = {key: -0.25 if key == "shift_lower" else 0.25 for key in CHECKS[name][0]}
        doc = minimal(initial_b=self.SECOND, checks=[{"name": name, **params}])
        cfg = parse_config(json.dumps(doc))
        assert cfg.checks[0].name == name
        assert cfg.checks[0].param_dict() == params

    @pytest.mark.parametrize("name", sorted(CHECKS))
    def test_unlisted_param_is_rejected(self, name):
        doc = minimal(initial_b=self.SECOND, checks=[{"name": name, "bogus": 1.0}])
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(doc))
        assert err.value.path == "/checks/0/bogus"

    @pytest.mark.parametrize("name", [n for n, (_, needs_b, _) in CHECKS.items() if needs_b])
    def test_pair_check_without_initial_b(self, name):
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(minimal(checks=[name])))
        assert err.value.path == "/checks/0/name"

    def test_dispatch_looks_up_diagnostics_at_call_time(self, tmp_path, monkeypatch):
        stub = CheckReport("conservation", observed=0.125, threshold=0.5, extra={"stub": 1})
        monkeypatch.setattr(diagnostics, "conservation_monitor", lambda result: stub)
        cfg = parse_config(json.dumps(minimal(scheme={"t_end": 0.05}, grid={"n_cells": 16})))
        res = run_scenario(cfg, tmp_path)
        assert res.reports == [stub]
        checks = json.loads((tmp_path / "burgers_min" / "checks.json").read_text())
        assert checks == [json.loads(json.dumps(stub.to_dict()))]


class TestRunScenario:
    def scenario(self, **overrides):
        doc = minimal(scheme={"t_end": 0.25}, grid={"n_cells": 32},
                      checks=["conservation", {"name": "decay", "threshold": 1.0}])
        doc.update(overrides)
        return parse_config(json.dumps(doc))

    def test_writes_artifacts(self, tmp_path):
        res = run_scenario(self.scenario(), tmp_path)
        assert res.error is None
        base = tmp_path / "burgers_min"
        rows = (base / "snapshots.csv").read_text().strip().splitlines()
        # requested times coarser than dt collapse onto shared step snapshots
        assert 2 <= len(rows) <= 34
        times = [float(r.split(",")[0]) for r in rows]
        assert times[0] == 0.0 and times == sorted(times)
        assert all(len(r.split(",")) == 33 for r in rows)
        structure = json.loads((base / "structure.json").read_text())
        assert set(structure) == {"I", "M", "a", "b", "a_prime", "b_prime", "c",
                                  "degenerate_speed"}
        checks = json.loads((base / "checks.json").read_text())
        assert [c["name"] for c in checks] == ["conservation", "decay"]
        series = (base / "series_decay.csv").read_text().splitlines()
        assert series[0] == "time,value"

    def test_failing_check_does_not_crash(self, tmp_path):
        cfg = self.scenario(checks=[{"name": "decay", "threshold": 0.0}])
        res = run_scenario(cfg, tmp_path)
        assert res.error is None
        assert not res.passed
        checks = json.loads((tmp_path / "burgers_min" / "checks.json").read_text())
        assert checks[0]["passed"] is False

    def test_erroring_check_becomes_failed_report(self, tmp_path):
        # shift pushes the companion data outside the covered range; the check
        # errors but the scenario still completes and reports the rest
        cfg = self.scenario(checks=[{"name": "squeeze_bounds", "shift_upper": 5.0},
                                    "conservation"])
        res = run_scenario(cfg, tmp_path)
        assert res.error is None
        assert not res.passed
        checks = json.loads((tmp_path / "burgers_min" / "checks.json").read_text())
        assert checks[0]["name"] == "squeeze_bounds"
        assert checks[0]["passed"] is False
        assert "error" in checks[0]["extra"]
        assert checks[1]["name"] == "conservation" and checks[1]["passed"] is True

    WIDE = {"kind": "constant", **EDGE_RANGE}

    @pytest.mark.parametrize("model, check, error, digests", [
        # the default lower shift moves the lower companion below phi's range
        ({"phi": {"breakpoints": [-1, 0.9, 1.5], "pieces": [[0.0, 1.0], [1.9, 3.0]]},
          "g": {"kind": "constant", "value": 0.0, "lo": -1, "hi": 1.5},
          "initial": {"cells": [0.2, 0.4, 0.6, 0.8, 0.9, 0.7, 0.5, 0.3]}},
         "squeeze_bounds",
         "OutOfRangeError: [-1.2500000000000002, -0.5500000000000002] outside covered range "
         "[-1.0, 1.5]",
         ("09d4b8ad40da4d97a3b306938e2f1974526ba8fbc6e92f2bcbea1a79a2675f4e",
          "fca9f50a74dd03561f609c39344866eb33d102122c09190664d07e08dfd4ac3d")),
        # the base run and its analysis are in range; u0 + 2^64 is not
        ({"phi": WIDE, "g": WIDE, "initial": {"cells": [MAX_ABS, -MAX_ABS] * 4}},
         {"name": "squeeze_bounds", "shift_upper": MAX_ABS},
         "ValueError: field values must lie in [-2^64, 2^64]",
         ("fb527bd585b34e81faa43b5d1c05c74018a55a429b70079d709d39733ea01477",
          "fb2fe4bb501c4c459fe57f7ea482c48a27eafba272afe6c224aaa015dd3ec23a")),
    ], ids=["lower_out_of_range", "upper_overflows"])
    def test_companion_failure_fails_only_its_check(self, model, check, error, digests,
                                                    tmp_path):
        cfg = self.scenario(name="sq", grid={"n_cells": 8}, checks=["conservation", check],
                            **model)
        res = run_scenario(cfg, tmp_path)
        assert res.error is None
        assert [r.passed for r in res.reports] == [True, False]
        assert res.reports[1].extra == {"error": error}
        assert cfg.trajectories == 1  # the check fails before it steps a companion
        assert tuple(hashlib.sha256((tmp_path / "sq" / name).read_bytes()).hexdigest()
                     for name in ("checks.json", "snapshots.csv")) == digests

    def test_pair_scenario_shares_timestep(self, tmp_path):
        cfg = self.scenario(
            name="pairtest",
            initial_b={"sine": {"mean": 0.55, "amplitude": 0.3}},
            checks=["contraction", "t_nonexpansive"],
        )
        res = run_scenario(cfg, tmp_path)
        assert res.error is None, res.error
        assert res.passed
        assert (tmp_path / "pairtest" / "snapshots_b.csv").exists()
        assert (tmp_path / "pairtest" / "structure_b.json").exists()

    def test_initial_data_is_built_once_by_the_parser(self, tmp_path, monkeypatch, capsys):
        original, calls = scenarios.build_initial, []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        patch_everywhere(monkeypatch, original, counting)
        doc = minimal(scheme={"t_end": 0.25}, grid={"n_cells": 32},
                      initial_b={"sine": {"mean": 0.55, "amplitude": 0.3}},
                      checks=["contraction"])
        cfg = parse_config(json.dumps(doc))
        assert len(calls) == 2
        with pytest.raises(ValueError, match="read-only"):  # the frozen config's data too
            cfg.initial_b.values[0] = 0.0
        calls.clear()
        assert run_scenario(cfg, tmp_path).passed
        assert calls == []  # the run takes the parsed fields
        for data, want in ((MINIMAL, 1), (doc, 2)):
            calls.clear()
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(data))
            assert cli(["analyze", "--config", str(path)]) == 0
            assert len(calls) == want  # one per datum, all of them in the parser
        capsys.readouterr()

    def test_profile_writes_csv(self, tmp_path):
        cfg = self.scenario(name="prof", checks=["profile"])
        run_scenario(cfg, tmp_path)
        lines = (tmp_path / "prof" / "profile.csv").read_text().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 33

    def test_profile_check_is_the_library_report(self, tmp_path):
        # no t_lo in the config: the check and the library share the t_end / 2 default
        cfg = self.scenario(name="prof", checks=["profile"])
        run_scenario(cfg, tmp_path)
        result = run(cfg.phi, cfg.g, cfg.initial, cfg.scheme)
        rep = diagnostics.extract_profile(result)
        assert rep.series[0][0] >= 0.5 * cfg.scheme.t_end > result.times[1]
        (entry,) = json.loads((tmp_path / "prof" / "checks.json").read_text())
        assert json.dumps(entry) == json.dumps(rep.to_dict())
        _write_series_csv(tmp_path / "series.csv", rep.series)
        assert (tmp_path / "prof" / "series_profile.csv").read_bytes() == \
            (tmp_path / "series.csv").read_bytes()
        rows = np.loadtxt(tmp_path / "prof" / "profile.csv", delimiter=",", skiprows=1)
        profile = diagnostics.traveling_profile(result)
        assert np.array_equal(rows[:, 0], profile.grid.cell_centers())
        assert np.array_equal(rows[:, 1], profile.values)

    def test_determinism_byte_identical(self, tmp_path):
        cfg = self.scenario(checks=["conservation", "decay", "entropy_residual"])
        run_scenario(cfg, tmp_path / "one")
        run_scenario(cfg, tmp_path / "two")
        for fname in ("checks.json", "snapshots.csv", "structure.json"):
            a = (tmp_path / "one" / "burgers_min" / fname).read_bytes()
            b = (tmp_path / "two" / "burgers_min" / fname).read_bytes()
            assert a == b, fname


@pytest.mark.parametrize("name, count", [("acceptance_suite", 6), ("quick_suite", 4)])
def test_each_step_is_computed_once(name, count, tmp_path, monkeypatch):
    """One shared_dt per group of trajectories that share a step: each scenario's
    data, and the squeeze_bounds companions. The acceptance bundle's mixed_band
    gap E(t) to the plateau, as written, never rises."""
    calls, original = [], solver.shared_dt
    patch_everywhere(monkeypatch, original, lambda *args: calls.append(args) or original(*args))
    run_suite(parse_config((ROOT / "configs" / f"{name}.json").read_bytes()), tmp_path)
    assert len(calls) == count
    if name == "acceptance_suite":
        rows = np.loadtxt(tmp_path / "mixed_band" / "series_cutoff_convergence.csv",
                          delimiter=",", skiprows=1)
        assert rows.shape == (17, 2) and np.diff(rows[:, 1]).max() <= 1e-10


EDGE_VALUES = [-0.0, 5e-324, 1e-05, 1e16, MAX_ABS, 0.1, 1 / 3]
EDGE_TEXT = ["-0.0", "5e-324", "1e-05", "1e+16", "1.8446744073709552e+19", "0.1",
             "0.3333333333333333"]


def csv_of(header, rows) -> bytes:
    return "".join([line + "\n" for line in header]
                   + [",".join(map(repr, row)) + "\n" for row in rows]).encode()


def test_csv_writers_keep_repr_bytes(tmp_path):
    # the text repr(float(x)) gives for each value, numpy scalars included, in
    # files below and above the size at which the vectorized formatter takes over
    for n_cells in (len(EDGE_VALUES), scenarios._VECTOR_CSV_MIN_VALUES):
        grid = Grid(n_cells)
        x = grid.cell_centers()
        values = np.concatenate([EDGE_VALUES,
                                 0.4 + 0.3 * np.sin(2.0 * np.pi * x[len(EDGE_VALUES):])])
        text = [repr(float(v)) for v in values]
        assert text[:len(EDGE_VALUES)] == EDGE_TEXT
        field = Field(grid, values)
        times = (0.0, 1e-05, 1 / 3)
        result = RunResult(np.column_stack([times, [values] * len(times)]), grid,
                           phi=None, g=None, step_count=2,
                           dt=1e-05, params=SchemeParams(t_end=1 / 3, snapshot_times=times))
        _write_snapshots_csv(tmp_path / "snapshots.csv", result)
        assert (tmp_path / "snapshots.csv").read_bytes() == "".join(
            ",".join([t] + text) + "\n" for t in ("0.0", "1e-05", "0.3333333333333333")
        ).encode()

        series = tuple(zip(map(np.float64, values), reversed(values)))
        _write_series_csv(tmp_path / "series.csv", series)
        assert (tmp_path / "series.csv").read_bytes() == "".join(
            ["time,value\n"] + [f"{a},{b}\n" for a, b in zip(text, reversed(text))]
        ).encode()

        _write_profile_csv(tmp_path / "profile.csv", field)
        assert (tmp_path / "profile.csv").read_bytes() == csv_of(
            ["x,value"], zip(x.tolist(), values.tolist()))


def test_csv_formatter_is_chosen_by_value_count(tmp_path, monkeypatch):
    from degenwave import floatfmt

    sizes, real = [], floatfmt.csv_bytes

    def counting(matrix, head=b""):
        sizes.append(matrix.size)
        return real(matrix, head)

    monkeypatch.setattr(floatfmt, "csv_bytes", counting)
    cutoff = scenarios._VECTOR_CSV_MIN_VALUES
    for rows in (cutoff // 2 - 1, cutoff // 2):
        series = np.linspace(0.0, 1.0, 2 * rows).reshape(rows, 2)
        _write_series_csv(tmp_path / "series.csv", series)
        assert (tmp_path / "series.csv").read_bytes() == csv_of(["time,value"], series.tolist())
    assert sizes == [cutoff]


def test_small_suite_never_loads_the_formatter(tmp_path):
    code = ("import sys; from degenwave import parse_config, run_suite; "
            "run_suite([parse_config(sys.argv[1])], sys.argv[2]); "
            "assert 'degenwave.floatfmt' not in sys.modules")
    subprocess.run([sys.executable, "-c", code, json.dumps(MINIMAL), str(tmp_path)], check=True,
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert (tmp_path / "burgers_min" / "snapshots.csv").exists()


@pytest.mark.parametrize("failure", ["write", "replace"])
def test_failed_atomic_write_leaves_no_temp_file(tmp_path, monkeypatch, failure):
    def partial_write(self, data):
        Path.write_text(self, "partial")
        raise OSError("disk full")

    def failed_replace(src, dst):
        raise OSError("rename failed")

    if failure == "write":
        monkeypatch.setattr(Path, "write_bytes", partial_write)
    else:
        monkeypatch.setattr(scenarios.os, "replace", failed_replace)
    with pytest.raises(OSError):
        scenarios._write_text_atomic(tmp_path / "checks.json", b"[]\n")
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_takes_text_or_bytes(tmp_path):
    scenarios._write_text_atomic(tmp_path / "a.txt", "\u00b5s\n")
    scenarios._write_text_atomic(tmp_path / "b.txt", "\u00b5s\n".encode())
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes() == b"\xc2\xb5s\n"


class TestSuite:
    def configs(self):
        return parse_config(json.dumps([
            minimal(name="s1", scheme={"t_end": 0.2}, grid={"n_cells": 32},
                    checks=["conservation", {"name": "decay", "threshold": 1.0}]),
            minimal(name="s2", scheme={"t_end": 0.2}, grid={"n_cells": 32},
                    initial={"sine": {"mean": 0.4, "amplitude": 0.2}},
                    checks=["conservation", "entropy_residual"]),
        ]))

    def test_summary_schema(self, tmp_path):
        summary = run_suite(self.configs(), tmp_path)
        assert summary.overall_pass
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert set(doc) == {"scenarios", "overall_pass"}
        for sc in doc["scenarios"]:
            assert set(sc) == {"name", "checks"}
            for c in sc["checks"]:
                assert set(c) == {"name", "passed", "observed", "threshold"}
        assert [r.name for r in summary.results] == ["s1", "s2"]
        assert all(r.elapsed > 0.0 for r in summary.results)


class TestCli:
    def write(self, tmp_path, doc, name="cfg.json"):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    def test_analyze_prints_structure(self, tmp_path, capsys):
        code = cli(["analyze", "--config", self.write(tmp_path, MINIMAL)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["a"] == doc["b"] == doc["I"] == pytest.approx(0.5, abs=1e-12)

    def test_analyze_adds_the_cost_of_a_pair(self, tmp_path, capsys):
        # the wider datum b sets the shared step, and so the printed terms
        doc = minimal(initial_b={"sine": {"mean": 0.5, "amplitude": 0.45}})
        assert cli(["analyze", "--config", self.write(tmp_path, doc)]) == 0
        out = json.loads(capsys.readouterr().out)
        cfg = parse_config(json.dumps(doc))
        cost = out.pop("cost")
        assert out == analyze(cfg.phi, cfg.g, cfg.initial).to_dict()
        assert cost["binding"] == "Lphi/dx" and cost["2Lg/dx^2"] == 0.0
        assert cost["Lphi/dx"] == pytest.approx(64 * cfg.initial_b.values.max(), rel=1e-12)
        assert cost["dt"] == 0.5 * (1.0 / cost["Lphi/dx"])
        ra, rb = solver.run_many(cfg.phi, cfg.g, [cfg.initial, cfg.initial_b], cfg.scheme)
        assert ra.step_count == rb.step_count == cost["steps"] == cost["cell_updates"] / 64
        assert solver.shared_dt(cfg.phi, cfg.g, [cfg.initial], cfg.scheme) > cost["dt"]
        assert cost["trajectories"] == 2

    def test_analyze_predicts_the_steps_of_a_run_ending_off_a_step(self, tmp_path, capsys):
        # t_end / dt rounds to 112.00000000000001 here: ceil counts 113 steps,
        # but step 112 lies within the slack of t_end, and the run ends there
        doc = minimal(phi={"kind": "linear", "slope": 3, "lo": -1, "hi": 1},
                      g={"kind": "linear", "slope": 0.5, "lo": -1, "hi": 1},
                      grid={"n_cells": 32}, scheme={"t_end": 0.05})
        assert cli(["analyze", "--config", self.write(tmp_path, doc)]) == 0
        cost = json.loads(capsys.readouterr().out)["cost"]
        cfg = parse_config(json.dumps(doc))
        res = run(cfg.phi, cfg.g, cfg.initial, cfg.scheme)
        assert (cost["steps"], cost["cell_updates"]) == (res.step_count, 32 * res.step_count) \
            == (112, 3584)
        assert res.times[-1] == 0.049999999999999996

    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.json")),
                             ids=lambda p: p.name)
    def test_analyze_predicts_the_steps_of_shipped_runs(self, path, tmp_path, capsys,
                                                        monkeypatch):
        """``cost`` holds the steps and the ``run`` calls of each shipped scenario,
        and whether they step without the diffusion terms; no check steps: no
        run starts while a diagnostics function runs. Each step is computed
        once: one shared_dt per group of trajectories that share a step (the
        scenario's data, and the squeeze_bounds companions), and one step-limit
        derivation per member of a group."""
        known = {"mixed_band": (57600, "2Lg/dx^2"), "burgers_decay": (12000, "Lphi/dx")}
        trajectories = {"burgers_decay": 1, "transport_wave": 1, "transport_pair": 2,
                        "heat_decay": 1, "mixed_band": 3, "det_burgers": 4, "det_mixed": 1,
                        "det_pair": 2}
        # bundle -> (shared_dt calls, step-limit derivations) over parse_config + run_scenario
        totals = {"acceptance_suite.json": (6, 8), "quick_suite.json": (4, 6),
                  "burgers_decay.json": (1, 1)}
        made, runs, inside, shared, limits = [], [], [], [], []
        counted, shared_dt, cfl_terms = {}, solver.shared_dt, solver._cfl_terms
        patch_everywhere(monkeypatch, shared_dt,
                         lambda *args: shared.append(args) or shared_dt(*args))
        monkeypatch.setattr(solver, "_cfl_terms",
                            lambda *args: limits.append(args) or cfl_terms(*args))
        monkeypatch.setattr(solver, "_Workspace",
                            lambda *args: made.append(_Workspace(*args)) or made[-1])

        def watched(fn):
            def wrapper(*args, **kwargs):
                inside.append(fn.__name__)
                try:
                    return fn(*args, **kwargs)
                finally:
                    inside.pop()
            return wrapper

        for fn in [f for f in vars(diagnostics).values()
                   if inspect.isfunction(f) and f.__module__ == diagnostics.__name__]:
            patch_everywhere(monkeypatch, fn, watched(fn))
        patch_everywhere(monkeypatch, run, lambda *args, **kw: runs.append(
            (tuple(inside), run(*args, **kw))) or runs[-1][1])
        docs = json.loads(path.read_text())
        for doc in docs if isinstance(docs, list) else [docs]:
            assert cli(["analyze", "--config", self.write(tmp_path, doc)]) == 0
            cost = json.loads(capsys.readouterr().out)["cost"]
            shared.clear()
            limits.clear()
            cfg = parse_config(json.dumps(doc))
            made.clear()
            runs.clear()
            assert run_scenario(cfg, tmp_path).passed
            squeezed = any(c.name == "squeeze_bounds" for c in cfg.checks)
            counted[cfg.name] = (len(shared), len(limits))
            assert counted[cfg.name] == (1 + squeezed, len(cfg.fields) + 2 * squeezed)
            assert cost["trajectories"] == len(runs) == trajectories[cfg.name]
            assert [called_in for called_in, _ in runs] == [()] * len(runs)
            # the scenario's own data come first; the squeeze check's runs follow
            own = [r for _, r in runs[:len(cfg.fields)]]
            del made[len(own):]
            # pieces 1: every member steps without the piece lookup
            assert cost["pieces"] == (2 if cfg.name in ("mixed_band", "det_mixed") else 1)
            assert [ws.piece is not None for ws in made] == [cost["pieces"] == 1] * len(own)
            # flat_g: every member steps without the diffusion terms
            assert cost["flat_g"] == (cfg.name not in ("heat_decay", "mixed_band", "det_mixed"))
            assert [ws.diffusion is None for ws in made] == [cost["flat_g"]] * len(own)
            assert [(r.dt, r.step_count) for r in own] == [(cost["dt"], cost["steps"])] * len(own)
            assert cost["cell_updates"] == cost["steps"] * cfg.initial.grid.n_cells
            denom = cost["Lphi/dx"] + cost["2Lg/dx^2"]
            assert cost["dt"] == cfg.scheme.cfl_safety * (1.0 / denom)
            if cfg.name in known:
                assert (cost["steps"], cost["binding"]) == known[cfg.name]
        assert tuple(map(sum, zip(*counted.values()))) == totals[path.name]

    @staticmethod
    def wide(flux, edge, amplitude, **overrides):
        """A model of ``flux`` ("linear", slope 1, or "constant") and a flat g on
        [-edge, edge], with sine data of mean 0 and ``amplitude``."""
        rng = {"lo": -edge, "hi": edge}
        phi = {"kind": flux, **rng, **({"slope": 1.0} if flux == "linear" else {})}
        return minimal(name="big", phi=phi, g={"kind": "constant", "value": 0.0, **rng},
                       initial={"sine": {"mean": 0.0, "amplitude": amplitude}}, **overrides)

    def test_analyze_overflow_is_an_error_not_a_traceback(self, tmp_path, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise ValueError("the analysis failed")

        monkeypatch.setattr(cli_module, "analyze", failing)
        assert cli(["analyze", "--config", self.write(tmp_path, minimal())]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: ValueError: the analysis failed\n"

    def test_models_past_the_range_exit_2_at_their_first_number(self, tmp_path, capsys):
        # a linear flux over [-1e104, 1e104] would overflow analyze's span ** 3,
        # and a constant one over [-1.5e308, 1.5e308] would read as degenerate
        # (0 * inf is NaN); both ranges stop at their first number past 2^64
        for doc in (self.wide("linear", 1e104, 1e103), self.wide("constant", 1.5e308, 1e308)):
            config = self.write(tmp_path, doc)
            for command in (["analyze"], ["run", "--out", str(tmp_path / "out")]):
                assert cli([*command, "--config", config]) == 2
                out, err = capsys.readouterr()
                assert out == "" and err == ("config error at /phi/lo: expected a number in "
                                             f"[-2^64, 2^64], got {-doc['phi']['hi']!r}\n")
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flux, speed", [("linear", 1.0), ("constant", 0.0)])
    def test_models_at_the_range_edge_analyze_and_run(self, flux, speed, tmp_path, capsys):
        # the flux is affine on the whole window [-M, M], so the speed is its slope
        doc = self.wide(flux, MAX_ABS, 0.5 * MAX_ABS,
                        checks=["conservation", "entropy_residual", "squeeze_bounds", "profile"])
        config = self.write(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli(["analyze", "--config", config]) == 0
            report = json.loads(capsys.readouterr().out)
            assert (report["a"], report["b"], report["c"]) == (-report["M"], report["M"], speed)
            assert report["degenerate_speed"] is False
            assert 0.99 * 0.5 * MAX_ABS < report["M"] <= 0.5 * MAX_ABS
            cli(["run", "--config", config, "--out", str(tmp_path / "out")])
        assert capsys.readouterr().err == ""  # a run error would print "big: error: ..."
        checks = json.loads((tmp_path / "out" / "big" / "checks.json").read_text())
        assert [c["name"] for c in checks] == doc["checks"]
        assert all("error" not in c.get("extra", {}) for c in checks)

    def test_a_mean_whose_cell_sum_overflows(self, tmp_path, capsys):
        # 8 cells near 1e308 would overflow their fsum: such data are out of range
        wide = {"kind": "constant", "value": 0.0, **EDGE_RANGE}
        doc = minimal(name="big", phi=wide, g=wide, grid={"n_cells": 8},
                      initial={"sine": {"mean": 1e308, "amplitude": 1e307}})
        assert cli(["analyze", "--config", self.write(tmp_path, doc)]) == 2
        assert capsys.readouterr().err.startswith("config error at /initial/sine/mean:")
        # at the edge, the mean is the exactly rounded one
        doc["initial"]["sine"] = {"mean": 0.5 * MAX_ABS, "amplitude": 0.25 * MAX_ABS}
        config = self.write(tmp_path, doc)
        assert cli(["analyze", "--config", config]) == 0
        mean = json.loads(capsys.readouterr().out)["I"]
        x = Grid(8).cell_centers()
        values = 0.5 * MAX_ABS + 0.25 * MAX_ABS * np.sin(2.0 * np.pi * x)
        assert mean == math.fsum(values.tolist()) / 8
        # the run writes every artifact, the conservation series included
        cli(["run", "--config", config, "--out", str(tmp_path / "out")])
        assert capsys.readouterr().err == ""  # a run error would print "big: error: ..."
        files = sorted(p.name for p in (tmp_path / "out" / "big").iterdir())
        assert files == ["checks.json", "series_conservation.csv", "snapshots.csv",
                         "structure.json"]
        checks = json.loads((tmp_path / "out" / "big" / "checks.json").read_text())
        assert [c["name"] for c in checks] == ["conservation"]
        structure = json.loads((tmp_path / "out" / "big" / "structure.json").read_text())
        assert structure["I"] == mean

    def test_conservation_of_a_mean_whose_cell_sum_overflows(self, tmp_path, capsys):
        # at the range's edge the check sums each snapshot's cells exactly and
        # sees the conserved mean
        wide = {"kind": "constant", "value": 0.0, **EDGE_RANGE}
        doc = minimal(name="big", phi=wide, g=wide, grid={"n_cells": 8},
                      initial={"sine": {"mean": 0.75 * MAX_ABS, "amplitude": 0.25 * MAX_ABS}})
        assert cli(["run", "--config", self.write(tmp_path, doc),
                    "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""
        (check,) = json.loads((tmp_path / "out" / "big" / "checks.json").read_text())
        assert check["name"] == "conservation" and check["passed"]
        assert check["observed"] == 0.0 and "extra" not in check

    def test_pair_distances_whose_cell_sums_overflow(self, tmp_path, capsys):
        # |u - v| = 2^64 in all 8 cells: its cell sum and integral are exact
        wide = {"kind": "constant", "value": 0.0, **EDGE_RANGE}
        doc = minimal(name="big", phi=wide, g=wide, grid={"n_cells": 8},
                      initial={"cells": [MAX_ABS] * 8}, initial_b={"cells": [0.0] * 8},
                      checks=["conservation", "contraction", "t_nonexpansive", "profile"])
        assert cli(["run", "--config", self.write(tmp_path, doc),
                    "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""
        checks = json.loads((tmp_path / "out" / "big" / "checks.json").read_text())
        assert all(c["passed"] and "error" not in c.get("extra", {}) for c in checks)
        (t_nonexpansive,) = (c for c in checks if c["name"] == "t_nonexpansive")
        assert t_nonexpansive["observed"] == MAX_ABS

    def test_entropy_constants_of_data_spanning_the_float_range(self, tmp_path, capsys):
        # data across most of the value range, so that the constants with their
        # 10% margin stay inside the model: max - min = 1.6 * 2^64
        wide = {"kind": "constant", "value": 0.0, **EDGE_RANGE}
        doc = minimal(name="big", phi=wide, g=wide, grid={"n_cells": 8},
                      initial={"cells": [0.8 * MAX_ABS, -0.8 * MAX_ABS] * 4},
                      checks=["entropy_residual"])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli(["run", "--config", self.write(tmp_path, doc),
                        "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""
        text = (tmp_path / "out" / "big" / "checks.json").read_text()
        (check,) = json.loads(text)
        assert "NaN" not in text and check["passed"] and "error" not in check["extra"]
        assert len({p["k"] for p in check["extra"]["pairs"]}) == 9

    def run_without_warnings(self, tmp_path, capsys, doc):
        """Exit code, stdout and checks.json of a run in which any RuntimeWarning is an error."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli(["run", "--config", self.write(tmp_path, doc),
                        "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert err == ""
        return code, out, json.loads((tmp_path / "out" / "big" / "checks.json").read_text())

    def test_entropy_residuals_that_are_nan_fail(self):
        # no config number reaches a NaN residual; a library g does, on data in
        # range: g = 1e308 (1 + u) is inf on [1, 1.5], and a NaN never passes
        g = PiecewiseFunction((0.0, 2.0), ((1e308, 1e308),), True)
        times = [0.0, 0.25, 0.5, 0.75, 1.0]
        values = np.random.default_rng(3).uniform(1.0, 1.5, size=(len(times), 16))
        res = RunResult(np.column_stack([times, values]), Grid(16),
                        PiecewiseFunction((0.0, 2.0), ((0.0, 1.0),)), g, step_count=4, dt=0.25,
                        params=SchemeParams(t_end=1.0, snapshot_times=times))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = diagnostics.entropy_residual(res)
        assert not rep.passed and (rep.observed, rep.threshold) == (math.inf, 1.0)
        assert all(math.isnan(p["residual"]) for p in rep.extra["pairs"])

    def test_pair_distances_that_overflow_fail(self, tmp_path, capsys):
        # |u - v| would reach 2e308 and overflow: such data are out of range. A
        # pair at +-2^63 has finite distances, and both checks judge them
        doc = self.wide("linear", 1.5e308, 1e308,
                        initial_b={"sine": {"mean": 0.0, "amplitude": -1e308}},
                        checks=["contraction", "t_nonexpansive"])
        assert cli(["run", "--config", self.write(tmp_path, doc),
                    "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error at /phi/lo:")
        doc = self.wide("linear", MAX_ABS, 0.5 * MAX_ABS,
                        initial_b={"sine": {"mean": 0.0, "amplitude": -0.5 * MAX_ABS}},
                        checks=["contraction", "t_nonexpansive"])
        code, out, checks = self.run_without_warnings(tmp_path, capsys, doc)
        assert code == 0
        contraction, t_nonexpansive = checks
        assert 0.5 * MAX_ABS < contraction["extra"]["l1_final"] <= MAX_ABS
        assert 0.5 * MAX_ABS < t_nonexpansive["extra"]["initial_distance"] <= MAX_ABS

    def digests_here_and_under(self, tmp_path, capsys, **env):
        """sha256 of every file that ``run`` writes for the quick bundle's
        det_burgers, in this process and in a subprocess whose environment adds ``env``."""
        bundle = json.loads((ROOT / "configs" / "quick_suite.json").read_text())
        config = self.write(tmp_path, next(d for d in bundle if d["name"] == "det_burgers"))
        assert cli(["run", "--config", config, "--out", str(tmp_path / "here")]) == 0
        capsys.readouterr()
        subprocess.run([sys.executable, "-m", "degenwave", "run", "--config", config,
                        "--out", str(tmp_path / "there")], check=True, capture_output=True,
                       env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env))
        return ({p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).digest()
                 for p in out.rglob("*") if p.is_file()}
                for out in (tmp_path / "here", tmp_path / "there"))

    def test_artifacts_do_not_depend_on_the_blas_kernel(self, tmp_path, capsys):
        # numpy's OpenBLAS, when built DYNAMIC_ARCH, picks its kernels by CPU;
        # Prescott's runs on any x86-64 CPU and rounds differently from newer ones
        here, prescott = self.digests_here_and_under(tmp_path, capsys,
                                                     OPENBLAS_CORETYPE="Prescott")
        assert len(here) == 8 and here == prescott

    def test_artifacts_do_not_depend_on_numpy_simd_dispatch(self, tmp_path, capsys):
        # numpy picks its SIMD kernels by CPU; on numpy 2.4 the AVX-512 exp rounds
        # differently from the AVX2 and baseline ones. Masking a feature the CPU
        # lacks, or one numpy does not know, only warns on import.
        here, masked = self.digests_here_and_under(
            tmp_path, capsys, NPY_DISABLE_CPU_FEATURES="AVX512_ICL X86_V4")
        assert len(here) == 8 and here == masked

    def test_run_exit_codes(self, tmp_path, capsys):
        ok = minimal(scheme={"t_end": 0.2}, grid={"n_cells": 32})
        code = cli(["run", "--config", self.write(tmp_path, ok),
                    "--out", str(tmp_path / "out")])
        assert code == 0
        bad = minimal(scheme={"t_end": 0.2}, grid={"n_cells": 32},
                      checks=[{"name": "decay", "threshold": 0.0}])
        code = cli(["run", "--config", self.write(tmp_path, bad, "bad.json"),
                    "--out", str(tmp_path / "out2")])
        assert code == 1
        # t_end 0 without snapshot_times: the run is its initial data
        still = minimal(scheme={"t_end": 0}, grid={"n_cells": 32})
        code = cli(["run", "--config", self.write(tmp_path, still, "still.json"),
                    "--out", str(tmp_path / "out3")])
        assert code == 0
        capsys.readouterr()

    @pytest.mark.parametrize("initial, path", [
        ({"sine": {"mean": 0.5, "amplitude": 0.2, "frequency": 1.5}}, "/initial/sine/frequency"),
        ({"expression": "0.5 + 0.2*sin(1.5)"}, "/initial/expression"),
        ({"expression": "0.5 + 0.1*cos(-2.5)"}, "/initial/expression"),
    ])
    def test_non_integer_frequency_is_exit_2(self, initial, path, tmp_path, capsys):
        # sin(2 pi 1.5 x) jumps between the last cell and the first
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(minimal(initial=initial)))
        assert err.value.path == path
        code = cli(["run", "--config", self.write(tmp_path, minimal(initial=initial)),
                    "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"config error at {path}: frequency " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_error_exit_2(self, tmp_path, capsys):
        doc = minimal(scheme={"t_end": 0.2, "cfl_safety": 1.5})
        code = cli(["run", "--config", self.write(tmp_path, doc),
                    "--out", str(tmp_path / "out")])
        assert code == 2
        assert "/scheme/cfl_safety" in capsys.readouterr().err
        # run takes one scenario; an array of them is for suite
        code = cli(["run", "--config", self.write(tmp_path, [minimal()], "array.json"),
                    "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error at /: ")

    @pytest.mark.parametrize("command", ["run", "suite"])
    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_unusable_out_is_exit_2(self, command, out, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        code = cli([command, "--config", self.write(tmp_path, minimal(scheme={"t_end": 0.05})),
                    "--out", str(tmp_path / out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_unknown_subcommand_exit_2(self, capsys):
        assert cli(["frobnicate"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["analyze", "suite"])
    def test_empty_bundle_is_exit_2(self, command, tmp_path, capsys):
        # a suite of no scenarios checks nothing, so it must not read as a pass
        out = ["--out", str(tmp_path / "out")] if command == "suite" else []
        assert cli([command, "--config", self.write(tmp_path, []), *out]) == 2
        assert capsys.readouterr().err.startswith("config error at /: ")
        assert not (tmp_path / "out").exists()
        with pytest.raises(SchemaError) as err:
            parse_config("[]")
        assert err.value.path == "/"

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert cli(["analyze", "--config", str(tmp_path / "nope.json")]) == 2
        capsys.readouterr()

    def test_suite_exit_reflects_overall(self, tmp_path, capsys):
        docs = [minimal(name="a", scheme={"t_end": 0.2}, grid={"n_cells": 32}),
                minimal(name="b", scheme={"t_end": 0.2}, grid={"n_cells": 32},
                        checks=[{"name": "decay", "threshold": 0.0}])]
        code = cli(["suite", "--config", self.write(tmp_path, docs),
                    "--out", str(tmp_path / "out")])
        assert code == 1
        assert (tmp_path / "out" / "summary.json").exists()
        capsys.readouterr()

    def test_pair_prints_run_error(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise CflViolationError("no admissible step")

        monkeypatch.setattr(scenarios, "run", fail)
        doc = minimal(name="p", scheme={"t_end": 0.2}, grid={"n_cells": 32},
                      initial_b={"sine": {"mean": 0.55, "amplitude": 0.2}}, checks=[])
        code = cli(["run", "--config", self.write(tmp_path, doc),
                    "--out", str(tmp_path / "out")])
        assert code == 1
        assert "p: error: CflViolationError: no admissible step" in capsys.readouterr().err

    def test_flat_data_analyze_and_run(self, tmp_path, capsys):
        # five cells of 0.3 have the fsum mean 0.30000000000000004, above their sup norm
        doc = minimal(name="flat", initial={"sine": {"mean": 0.3, "amplitude": 0.0}},
                      grid={"n_cells": 5}, scheme={"t_end": 0.2})
        path = self.write(tmp_path, doc)
        assert cli(["analyze", "--config", path]) == 0
        assert json.loads(capsys.readouterr().out)["I"] == 0.3
        assert cli(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()

    def test_squeeze_companion_inside_model_range(self, tmp_path, capsys):
        # phi covers [-1, 1.5] and the upper companion's data [0.549, 1.249] with it
        doc = minimal(name="sq", phi={"breakpoints": [-1, 0.9, 1.5],
                                      "pieces": [[0.0, 1.0], [1.9, 3.0]]},
                      g={"kind": "constant", "value": 0.0, "lo": -1, "hi": 1.5},
                      initial={"sine": {"mean": 0.55, "amplitude": 0.35}},
                      checks=[{"name": "squeeze_bounds", "shift_lower": -0.3}])
        code = cli(["run", "--config", self.write(tmp_path, doc),
                    "--out", str(tmp_path / "out")])
        assert code == 0
        (check,) = json.loads((tmp_path / "out" / "sq" / "checks.json").read_text())
        assert check["passed"] and check["observed"] == 0.0
        # with the default lower shift the lower companion leaves the model's range
        doc["checks"] = ["squeeze_bounds"]
        code = cli(["run", "--config", self.write(tmp_path, doc, "default.json"),
                    "--out", str(tmp_path / "out")])
        assert code == 1
        (check,) = json.loads((tmp_path / "out" / "sq" / "checks.json").read_text())
        assert check["extra"]["error"].startswith("OutOfRangeError")
        capsys.readouterr()

    def test_analysis_error_is_a_run_error(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("no structure")

        monkeypatch.setattr(solver, "analyze", fail)
        doc = minimal(name="p", scheme={"t_end": 0.2}, grid={"n_cells": 32},
                      initial_b={"sine": {"mean": 0.55, "amplitude": 0.2}},
                      checks=["conservation", "contraction"])
        code = cli(["run", "--config", self.write(tmp_path, doc),
                    "--out", str(tmp_path / "out")])
        assert code == 1
        assert "p: error: ValueError: no structure" in capsys.readouterr().err
        checks = json.loads((tmp_path / "out" / "p" / "checks.json").read_text())
        assert checks["error"] == "ValueError: no structure"
        assert [c["passed"] for c in checks["checks"]] == [False, False]

    @pytest.mark.parametrize("model, message", [
        # the steepest slope a config can give: dt = 0.5 / (2^64 * 16)
        ({"phi": {"kind": "linear", "slope": MAX_ABS, "lo": -1, "hi": 1},
          "scheme": {"t_end": 0.01}},
         "time step 1.6940658945086007e-21 needs 5.9e+18 steps to reach t_end, "
         "more than MAX_STEPS = 100000000"),
        # the same for the second data alone, whose step the pair shares
        ({"phi": {"breakpoints": [-1, 0, 1], "pieces": [[0.0], [0.0, MAX_ABS]]},
          "initial": {"sine": {"mean": -0.5, "amplitude": 0.2}},
          "initial_b": {"sine": {"mean": 0.5, "amplitude": 0.2}}},
         "time step 1.6940658945086007e-21 needs 5.9e+19 steps to reach t_end, "
         "more than MAX_STEPS = 100000000"),
        # about 1.3e9 steps
        ({"g": {"kind": "linear", "slope": 1, "lo": -1, "hi": 1},
          "initial": {"cells": [0.25, 0.75] * 2048}, "grid": {"n_cells": 4096},
          "scheme": {"t_end": 20}},
         "time step 1.4899797076683654e-08 needs 1.34e+09 steps to reach "
         "t_end, more than MAX_STEPS = 100000000"),
        # within MAX_STEPS, but 78,644 steps of 2^20 cells are 8.2e10 cell updates
        ({"grid": {"n_cells": 2 ** 20}, "scheme": {"t_end": 0.05}},
         "time step 6.357828776051177e-07 needs 78644 steps of 1048576 cells to reach "
         "t_end, 8.25e+10 cell updates, more than MAX_CELL_STEPS = 40000000000"),
    ], ids=["steep", "steep_b", "too_many_steps", "too_much_work"])
    def test_step_budget_is_a_config_error(self, model, message, tmp_path, capsys):
        small = {"grid": {"n_cells": 16}, "scheme": {"t_end": 0.1}}
        docs = [minimal(name="fine", **small), minimal(name="bad", **{**small, **model})]
        code = cli(["suite", "--config", self.write(tmp_path, docs),
                    "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"config error at /1/scheme/t_end: {message}\n" == capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # rejected before any stepping

    @staticmethod
    def steep_squeeze(slope, check):
        """g is flat on the data [0.2, 0.8] and has ``slope`` on [1, 2], where the
        upper companion of ``squeeze_bounds`` reaches (its default shift is 0.3)."""
        return minimal(name="steep", phi={"kind": "linear", "slope": 2},
                       g={"breakpoints": [-2, 1, 2], "pieces": [[0.0], [0.0, slope]],
                          "monotone": True},
                       initial={"sine": {"mean": 0.5, "amplitude": 0.3}},
                       grid={"n_cells": 64}, scheme={"t_end": 1}, checks=[check])

    @pytest.mark.parametrize("check", [{"name": "squeeze_bounds", "shift_upper": 0.5},
                                       "squeeze_bounds"], ids=["given_shift", "default_shift"])
    def test_squeeze_companions_are_in_the_step_budget(self, check, tmp_path, capsys):
        # the base run takes 256 steps; the upper companion steps at 6.1e-9
        doc = self.steep_squeeze(1e4, check)
        with pytest.raises(SchemaError) as err:
            parse_config(json.dumps(doc))
        assert err.value.path == "/checks/0/name"
        assert "needs 1.64e+08 steps to reach t_end" in str(err.value)
        code = cli(["run", "--config", self.write(tmp_path, doc), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "config error at /checks/0/name: squeeze_bounds companions: time step 6.1")
        assert not (tmp_path / "out").exists()  # rejected before any stepping
        doc["checks"] = ["conservation"]
        assert parse_config(json.dumps(doc))

    def test_parse_budgets_the_step_squeeze_bounds_runs_at(self, tmp_path, monkeypatch):
        budgeted = []

        def recording(dt, *args):
            budgeted.append(dt)
            return solver.require_step_budget(dt, *args)

        monkeypatch.setattr(scenarios, "require_step_budget", recording)
        doc = self.steep_squeeze(1000.0, "squeeze_bounds")
        doc["scheme"] = {"t_end": 1e-5}
        res = run_scenario(parse_config(json.dumps(doc)), tmp_path)
        assert res.error is None
        (rep,) = res.reports
        assert budgeted[1] == rep.extra["shared_dt"] < budgeted[0]

    @pytest.mark.parametrize("model, message", [
        # no config number overflows a run; a library g does, on data in range:
        # c + c is not finite, so neither is the Laplacian
        ({"g": constant(1e308, -1, 1)}, "ValueError: field values must lie in [-2^64, 2^64]"),
        ({"g": constant(-1e308, -1, 1)}, "ValueError: field values must lie in [-2^64, 2^64]"),
    ])
    def test_run_exception_is_reported_and_suite_continues(self, model, message,
                                                           tmp_path, capsys):
        small = {"grid": {"n_cells": 16}, "scheme": {"t_end": 0.1}}
        cfgs = parse_config(json.dumps([minimal(name=name, **small)
                                        for name in ("fine", "bad", "after")]))
        cfgs[1] = dataclasses.replace(cfgs[1], **model)
        assert not run_suite(cfgs, tmp_path / "out").overall_pass
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert [sc["name"] for sc in summary["scenarios"]] == ["fine", "bad", "after"]
        bad = json.loads((tmp_path / "out" / "bad" / "checks.json").read_text())
        assert bad["error"] == message
        for sc in summary["scenarios"]:
            assert all(c["passed"] for c in sc["checks"]) == (sc["name"] != "bad")
        capsys.readouterr()

    @pytest.mark.skipif(shutil.which("degenwave") is None,
                        reason="console script not installed")
    def test_console_script(self, tmp_path):
        cfg = self.write(tmp_path, MINIMAL)
        out = subprocess.run(["degenwave", "analyze", "--config", cfg],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert json.loads(out.stdout)["degenerate_speed"] is True

    def test_python_m_degenwave(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        good = self.write(tmp_path, MINIMAL)
        bad = self.write(tmp_path, minimal(grid={"n_cells": 2}), "bad.json")
        for module in ("degenwave", "degenwave.cli"):
            ok, err = (subprocess.run([sys.executable, "-m", module, "analyze", "--config", cfg],
                                      capture_output=True, text=True, env=env)
                       for cfg in (good, bad))
            assert ok.returncode == 0
            assert json.loads(ok.stdout)["degenerate_speed"] is True
            assert err.returncode == 2
            assert err.stderr == ("config error at /grid/n_cells: n_cells must be an integer "
                                  f"in [4, {MAX_CELLS}]\n")

    def test_shipped_quick_bundle_is_green(self, tmp_path, capsys):
        bundle = Path(__file__).resolve().parent.parent / "configs" / "quick_suite.json"
        code = cli(["suite", "--config", str(bundle), "--out", str(tmp_path / "out")])
        assert code == 0
        doc = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert doc["overall_pass"] is True
        capsys.readouterr()
