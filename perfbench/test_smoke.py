"""Smoke test of the benchmark itself: tiny runs of every workload.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs for a fraction of a second on inputs scaled down to a
few percent, untraced and traced, and must print every metric that
BENCHMARK.json names, with its unit.  Inputs must repeat for one seed and
differ between seeds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import inputs

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seconds", "0.2", "--scale", "0.05"]
REPORTED = {
    "sweeps": {"error_rate"},
    "oracle": {"error_rate", "centroid_max_err", "slope_max_err", "quadrature_max_err"},
    "sampling": {"error_rate", "high_mass_draws_per_s", "low_mass_draws_per_s"},
    "cli": {"error_rate"},
}


def run_bench(workload: str, trace: int, seed: int = 1) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), *TINY],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_follow_the_seed(workload):
    one = inputs.build(workload, 1, 0.05)
    assert one == inputs.build(workload, 1, 0.05)
    assert one != inputs.build(workload, 2, 0.05)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric(workload, trace):
    report, result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    names = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in names}
    for m in names:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        assert "trace_overhead" in result["metrics"]
    else:
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0
        assert REPORTED[workload] <= set(report["metrics"])
    assert {"nproc", "cpu_model", "python", "numpy", "scipy", "mpmath",
            "git_commit", "TRUNC_CENTROID_THREADS"} <= set(report["machine"])


def test_sweeps_known_defect_is_counted():
    report, result = run_bench("sweeps", 0)
    assert result["failed"] == 2 * (result["attempted"] // 12)
    assert {(f["what"], f["error"]) for f in report["failures"]} == {
        ("bounds", "ZeroDivisionError"), ("derivative", "ZeroDivisionError")}
