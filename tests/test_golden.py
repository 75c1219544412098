"""Byte identity of the quick bundle's artifacts against committed digests.

``golden/quick_suite.sha256`` holds the sha256 of every file that
``degenwave suite`` writes for ``configs/quick_suite.json``, plus the numpy
version and machine it was made on: ``np.sin`` in the initial data can
differ by one ulp between builds, so elsewhere the test skips. After a
change that is meant to alter artifacts, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from degenwave import parse_config, run_suite

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "quick_suite.json"
GOLDEN = Path(__file__).resolve().parent / "golden" / "quick_suite.sha256"


def environment() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


def bundle_digests(out: Path) -> dict:
    run_suite(parse_config(CONFIG.read_bytes()), out)
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def read_golden():
    env, digests = {}, {}
    for line in GOLDEN.read_text().splitlines():
        if line.startswith("# "):
            key, value = line[2:].split(" ", 1)
            env[key] = value
        elif line:
            digest, name = line.split("  ", 1)
            digests[name] = digest
    return env, digests


def test_quick_bundle_matches_golden_digests(tmp_path):
    env, want = read_golden()
    here = environment()
    mismatch = [f"{k} {env.get(k)} (golden) vs {v} (here)" for k, v in here.items()
                if env.get(k) != v]
    if mismatch:
        pytest.skip("golden digests were made elsewhere: " + "; ".join(mismatch))
    assert len(want) == 20
    assert bundle_digests(tmp_path) == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = bundle_digests(Path(tmp))
    lines = [f"# {k} {v}" for k, v in environment().items()]
    lines += [f"{digest}  {name}" for name, digest in digests.items()]
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
