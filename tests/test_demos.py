"""Smoke test: every demo runs to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
