"""Smoke test: every demo and README example runs to completion against the current API."""

import dataclasses
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import degenwave
from degenwave.scenarios import CHECKS, SCENARIO_FIELDS, ScenarioConfig
from degenwave.solver import RunResult

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_burgers_decay.py", "02_traveling_wave.py",
                                  "03_structure_and_cutoff.py", "04_heat_oracle.py",
                                  "05_contraction_and_entropy.py"])
def test_demo_exits_cleanly(demo, tmp_path):
    (tmp_path / "demos").mkdir()   # where a demo saves its figure when matplotlib exists
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), MPLBACKEND="Agg")
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_python_examples_run_in_order(capsys):
    """README's ```python blocks run, in order, in one namespace, as written."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.S | re.M)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    capsys.readouterr()


def test_readme_schema_and_checks_match_the_parser():
    """README's schema block lists the scenario fields the parser accepts, and its
    checks paragraph lists every check of ``scenarios.CHECKS`` with its parameters."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    schema = re.search(r"^```jsonc\n(.*?)^```$", text, flags=re.S | re.M).group(1)
    assert set(re.findall(r'^  "(\w+)":', schema, flags=re.M)) == set(SCENARIO_FIELDS)
    paragraph = text.split("parameters in parentheses are optional):", 1)[1]
    paragraph = paragraph.split("Every report satisfies", 1)[0]
    listed = {name: tuple(re.findall(r"`(\w+)`", params))
              for name, params in re.findall(r"`(\w+)`(?:\s*\(([^)]*)\))?", paragraph)}
    assert listed == {name: allowed for name, (allowed, _, _) in CHECKS.items()}


def _readme_field_list(lead: str) -> list[str]:
    """The names in README's "Its fields are ..." sentence after ``lead``."""
    text = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    sentence = text.split(lead, 1)[1].split("Its fields are", 1)[1]
    return re.findall(r"`(\w+)`", sentence.split(".", 1)[0])


def test_readme_lists_the_run_result_fields():
    """README's RunResult paragraph names the dataclass fields, in order."""
    listed = _readme_field_list("A `RunResult` holds")
    assert listed == [f.name for f in dataclasses.fields(RunResult)]


def test_readme_lists_the_scenario_config_fields():
    """README's ScenarioConfig paragraph names the dataclass fields, in order."""
    listed = _readme_field_list("A parsed `ScenarioConfig` holds")
    assert listed == [f.name for f in dataclasses.fields(ScenarioConfig)]


def test_readme_public_api_is_the_package_exports():
    """README's "Public API" list names exactly the public non-module names of
    ``degenwave``; parenthesized names (a type's fields) are not exports."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("### Public API", 1)[1].split("`import degenwave` exports:", 1)[1]
    section = re.sub(r"\([^)]*\)", "", section.split("\n\n", 2)[1])
    exported = {name for name, value in vars(degenwave).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(re.findall(r"`(\w+)`", section)) == exported
