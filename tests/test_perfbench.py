"""Smoke test of the benchmark harness: short traced and untraced runs of
``perfbench/run.py``.  The traced runs patch the package's layer functions
by name (``perfbench/traced.py``), so they fail when one of them is renamed
or stops being called where the harness expects it: the traced build times
every build phase, and the portrait run counts the map calls made under
``classify_escape`` through ``GlobalMap.eval3``."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# the build phases that ``build_maps`` calls through their module or class
# attributes, which the traced run patches
BUILD_PHASES = ("zorich.derive_beam_constants_s", "global_map.build_aprime_chart_s",
                "global_map.build_asecond_charts_s", "global_map.derive_translation_constant_s",
                "star_extend.validate_boundary_map_s")


def run_bench(trace, workload="growth_certify"):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
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
    if trace:
        # a phase that the build stopped calling through its attribute keeps
        # the span name that patching it registered, and reads 0.0
        for name in BUILD_PHASES:
            assert metrics[name]["value"] > 0.0, (name, metrics[name])


def test_traced_portrait_sees_the_map_calls():
    metrics = run_bench(1, "portrait")
    for name in (m["name"] for m in BENCHMARK["per_layer"]):
        assert math.isfinite(metrics[name]["value"]), (name, metrics[name])
    assert metrics["dynamics.classify_escape_map_calls"]["value"] > 0
