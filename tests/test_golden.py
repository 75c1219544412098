"""Byte identity of the shipped bundles' artifacts against committed digests.

``golden/<bundle>.sha256`` holds the sha256 of every file that
``degenwave suite`` writes for ``configs/<bundle>.json``, plus the numpy
version and machine it was made on: ``np.sin`` in the initial data can
differ by one ulp between builds, so elsewhere the test skips. After a
change that is meant to alter artifacts, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

which prints every artifact whose digest differs from the committed file,
as ``<bundle>/<path> changed`` (or ``new``, or ``gone``).
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
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
BUNDLES = {"quick_suite": 20, "acceptance_suite": 30}  # bundle -> artifact count


def environment() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


def bundle_digests(bundle: str, out: Path) -> dict:
    run_suite(parse_config((ROOT / "configs" / f"{bundle}.json").read_bytes()), out)
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def read_golden(bundle: str):
    env, digests = {}, {}
    for line in (GOLDEN_DIR / f"{bundle}.sha256").read_text().splitlines():
        if line.startswith("# "):
            key, value = line[2:].split(" ", 1)
            env[key] = value
        elif line:
            digest, name = line.split("  ", 1)
            digests[name] = digest
    return env, digests


@pytest.mark.parametrize("bundle", sorted(BUNDLES))
def test_bundle_matches_golden_digests(bundle, tmp_path):
    env, want = read_golden(bundle)
    here = environment()
    mismatch = [f"{k} {env.get(k)} (golden) vs {v} (here)" for k, v in here.items()
                if env.get(k) != v]
    if mismatch:
        pytest.skip("golden digests were made elsewhere: " + "; ".join(mismatch))
    assert len(want) == BUNDLES[bundle]
    assert bundle_digests(bundle, tmp_path) == want


if __name__ == "__main__":
    lines = [f"# {k} {v}" for k, v in environment().items()]
    for bundle in BUNDLES:
        with tempfile.TemporaryDirectory() as tmp:
            digests = bundle_digests(bundle, Path(tmp))
        path = GOLDEN_DIR / f"{bundle}.sha256"
        old = read_golden(bundle)[1] if path.exists() else {}
        for name in sorted(old.keys() | digests.keys()):
            if old.get(name) != digests.get(name):
                how = "new" if name not in old else "gone" if name not in digests else "changed"
                print(f"{bundle}/{name} {how}")
        path.write_text("\n".join(lines + [f"{d}  {name}" for name, d in digests.items()])
                        + "\n")
        print(f"wrote {len(digests)} digests to {path}", file=sys.stderr)
