"""Tests of the benchmark itself: generators, metric names, hooks, tiny runs.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _worker(tmp_path, text: str, mode: str) -> dict:
    config = tmp_path / "batch.json"
    config.write_text(text)
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(config),
                           str(tmp_path / "out"), mode],
                          capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("size", workloads.SIZES)
def test_generator_is_deterministic_per_seed(workload, size):
    text = workloads.generate(workload, 7, size)
    assert workloads.generate(workload, 7, size) == text
    assert workloads.generate(workload, 8, size) != text
    # a fresh interpreter with another hash seed produces the same bytes
    code = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); import workloads; "
            f"sys.stdout.write(workloads.generate({workload!r}, 7, {size!r}))")
    other = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, env={"PYTHONHASHSEED": "123"}).stdout
    assert other == text


def test_band_squeeze_seed_changes_data_not_step_count(tmp_path):
    steps = []
    initials = []
    for seed in (1, 2):
        text = workloads.generate("band_squeeze", seed)
        initials.append(json.loads(text)[0]["initial"])
        steps.append(_worker(tmp_path, text, "trace")["layers"]["solver.steps"])
    assert initials[0] != initials[1]
    assert steps[0] == steps[1] > 0


def test_pair_batch_work_does_not_depend_on_seed(tmp_path):
    counts = []
    for seed in (1, 2):
        layers = _worker(tmp_path, workloads.generate("pair_batch", seed, "tiny"), "trace")["layers"]
        counts.append((layers["solver.run.calls"], layers["solver.trajectories"]))
    assert counts[0] == counts[1]


def test_metric_names_are_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) and len(n) <= 64 for n in names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert run.unit_of(m["name"]) == m["unit"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_workload_runs_once(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == expected
    assert all(NAME_RE.match(n) for n in result["metrics"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        record = json.loads(proc.stdout.strip().splitlines()[-2])["record"]
        assert record["probe_s"] > 0
        assert set(record["unscaled"]) == set(run.SCALED)


def test_missing_private_hooks_drop_only_their_metrics(tmp_path):
    """A renamed private helper leaves its metrics absent; the rest still report."""
    config = tmp_path / "batch.json"
    config.write_text(workloads.generate("band_squeeze", 1, "tiny"))
    script = f"""
import json, sys
sys.path[:0] = [{str(BENCH)!r}, {str(ROOT / 'src')!r}]
import tracer
tracer.FUNCTION_HOOKS = [h for h in tracer.FUNCTION_HOOKS if h[2] not in
                         ("_apply_step", "_write_text_atomic")]
tracer.FUNCTION_HOOKS += [("solver.kernel", "degenwave.solver", "_apply_step_renamed"),
                          ("scenarios.write", "degenwave.scenarios", "_write_renamed")]
from degenwave import scenarios
from degenwave.piecewise import lipschitz_on
t = tracer.Tracer()
t.install()
scenarios.run_suite(scenarios.parse_config(open({str(config)!r}).read()), {str(tmp_path / 'out')!r})
print(json.dumps({{"layers": t.metrics(lipschitz_on), "absent": t.absent}}))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True, timeout=120)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert "degenwave.solver._apply_step_renamed" in out["absent"]
    layers = out["layers"]
    for gone in ("solver.kernel.calls", "piecewise.kernel_eval.calls", "scenarios.write.bytes"):
        assert gone not in layers
    assert layers["solver.steps"] > 0 and layers["solver.run.calls"] == 3


def test_unbuildable_checkout_fails_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for p in BENCH.glob("*.py"):
        (bench / p.name).write_text(p.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pair_batch",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
