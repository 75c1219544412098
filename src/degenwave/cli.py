"""Command-line entry point.

Subcommands:

* ``run --config FILE --out DIR``: one scenario, artifacts under DIR/<name>/.
* ``suite --config FILE --out DIR``: a batch (object or array) plus summary.json.
* ``analyze --config FILE``: print the structure report as JSON, no stepping,
  with the predicted cost of the run under ``cost``.

Exit codes: 0 all checks passed, 1 some check failed, 2 configuration error,
an unusable output directory, or an ``analyze`` whose analysis fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import scenarios
from .errors import DegenwaveError, SchemaError
from .scenarios import ScenarioConfig, ScenarioResult
from .solver import predict_cost
from .structure import analyze


def _load(path: str):
    try:
        text = Path(path).read_bytes()
    except OSError as e:
        raise SchemaError("/", f"cannot read config file: {e}") from e
    return scenarios.parse_config(text)


def _load_single(path: str) -> ScenarioConfig:
    cfg = _load(path)
    if isinstance(cfg, list):
        raise SchemaError("/", "expected a single scenario object, got an array")
    return cfg


def _report(result: ScenarioResult) -> int:
    for rep in result.reports:
        print(f"{result.name}/{rep.name}: {'pass' if rep.passed else 'FAIL'} "
              f"(observed={rep.observed:g}, threshold={rep.threshold:g})")
    if result.error:
        print(f"{result.name}: error: {result.error}", file=sys.stderr)
    return 0 if result.passed else 1


def _cmd_run(args) -> int:
    return _report(scenarios.run_scenario(_load_single(args.config), args.out))


def _cmd_suite(args) -> int:
    cfg = _load(args.config)
    cfgs = cfg if isinstance(cfg, list) else [cfg]
    summary = scenarios.run_suite(cfgs, args.out)
    for res in summary.results:
        status = "pass" if res.passed else "FAIL"
        print(f"{res.name}: {status} ({len(res.reports)} checks, {res.elapsed:.2f}s)")
    print(f"overall: {'pass' if summary.overall_pass else 'FAIL'}")
    return 0 if summary.overall_pass else 1


def _cmd_analyze(args) -> int:
    cfg = _load_single(args.config)
    try:
        report = analyze(cfg.phi, cfg.g, cfg.initial)
        cost = predict_cost(cfg.phi, cfg.g, cfg.fields, *cfg.step)
    except ValueError as e:  # as a run reports its analysis errors
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    cost["trajectories"] = cfg.trajectories
    print(json.dumps({**report.to_dict(), "cost": cost}, indent=2))
    return 0


def cli(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="degenwave",
        description="Periodic degenerate convection-diffusion laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, needs_out in (
        ("run", _cmd_run, True),
        ("suite", _cmd_suite, True),
        ("analyze", _cmd_analyze, False),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        if needs_out:
            p.add_argument("--out", required=True)
        p.set_defaults(handler=fn)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        return args.handler(args)
    except SchemaError as e:
        print(f"config error at {e.path or '/'}: {e.message}", file=sys.stderr)
        return 2
    except (DegenwaveError, OSError) as e:  # OSError: --out cannot be made or written
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
