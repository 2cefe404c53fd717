"""Smoke test of the benchmark harness: one short traced and one short
untraced run of ``perfbench/run.py``.  The traced run patches the package's
layer functions by name (``perfbench/traced.py``), so it fails when one of
them is renamed or stops being called where the harness expects it."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "growth_certify",
         "--seed", "1", "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-2000:]
    return result["metrics"]


@pytest.mark.parametrize("trace, section", [(1, "per_layer"), (0, "end_to_end")])
def test_growth_certify_reports_every_metric(trace, section):
    metrics = run_bench(trace)
    for name in (m["name"] for m in BENCHMARK[section]):
        assert name in metrics, name
        assert math.isfinite(metrics[name]["value"]), (name, metrics[name])
