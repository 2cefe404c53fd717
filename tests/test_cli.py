import importlib
import json
import runpy
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest

import qrdyn
from qrdyn import cli
from qrdyn.global_map import build_report, constants_report_text

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_build_json_report(capsys, build):
    assert cli.entrypoint(["build", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    c = build.constants
    # the CLI builds with the same parameters as the shared fixture
    assert report["c0"] == c.c0
    assert report["L"] == c.L
    assert report["L_prime"] == build.L_prime
    assert report["K_F"] == c.K_F
    for key in ("exp_margin", "jac_margin", "norm_margin"):
        assert report[key] == getattr(c, key)
    assert report["validations"] == {cid: True for cid in
                                     ("A'", "A''1", "A''2", "A''3", "A''4")}
    assert report["cells"] == build.cells == 141
    assert report["min_cell_det"] == build.min_cell_det > 0.0
    assert report["K_slab"] == build.K_slab == pytest.approx(1.733e4, rel=1e-3)


def test_build_text_report(capsys, monkeypatch, build):
    monkeypatch.setattr(cli, "build_maps", lambda: build)
    assert cli.entrypoint(["build"]) == 0
    assert capsys.readouterr().out == constants_report_text(build)


def test_text_report_has_every_scalar_json_key(build):
    report = build_report(build)
    lines = constants_report_text(build).splitlines()
    scalars = [key for key, value in report.items() if not isinstance(value, dict)]
    # the scalar keys lead the text, in the JSON order, with their values
    assert [line.partition(" = ")[0] for line in lines[:len(scalars)]] == scalars
    for key, line in zip(scalars, lines):
        assert float(line.partition(" = ")[2]) == pytest.approx(report[key], rel=1e-11)
    assert not any(line.startswith("grid_resolution") for line in lines)


def test_module_entry_point(capsys, monkeypatch, build):
    monkeypatch.setattr(cli, "build_maps", lambda: build)
    monkeypatch.setattr(sys, "argv", ["qrdyn", "build", "--json"])
    with pytest.raises(SystemExit) as done:
        runpy.run_module("qrdyn", run_name="__main__")
    assert done.value.code == 0
    assert json.loads(capsys.readouterr().out)["L"] == build.constants.L


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as done:
        cli.entrypoint([])
    assert done.value.code == 2


def test_console_scripts_resolve():
    scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        fn = getattr(importlib.import_module(module), attr)
        assert callable(fn), f"console script {name} -> {target}"


def test_version_is_single_sourced(capsys):
    with pytest.raises(SystemExit) as done:
        cli.entrypoint(["--version"])
    assert done.value.code == 0
    assert capsys.readouterr().out == f"qrdyn {qrdyn.__version__}\n"
    # the package metadata reads the version from the package
    project = tomllib.loads(PYPROJECT.read_text())
    assert "version" not in project["project"]
    assert project["project"]["dynamic"] == ["version"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "qrdyn.__version__"}


# the build phases, named as the spans of the benchmark's traced run, and
# the stacking of the cell table, which that run does not time
PHASES = {"zorich.derive_beam_constants", "global_map.build_aprime_chart",
          "global_map.build_asecond_charts", "global_map.derive_translation_constant",
          "star_extend.validate_boundary_map"}


def test_build_report_times_each_phase(build):
    phase_s = build_report(build)["phase_s"]
    assert set(phase_s) == PHASES | {"global_map.CellTable"}
    per_layer = {m["name"] for m in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert {f"{name}_s" for name in PHASES} <= per_layer
    assert all(isinstance(s, float) and s > 0.0 for s in phase_s.values())
    # the text report leaves the dict out
    assert "phase_s" not in constants_report_text(build)


def test_build_report_lists_the_chart_lipschitz_constants(build):
    report = build_report(build)
    lipschitz = report["lipschitz"]
    assert list(lipschitz) == ["A'", "A''1", "A''2", "A''3", "A''4"]
    lines = set(constants_report_text(build).splitlines())
    for chart in build.g.charts:
        entry = lipschitz[chart.cell_id]
        # the oracle: numpy's SVD of every cell's linear part
        sigma = np.linalg.svd(chart.map.linear, compute_uv=False)
        assert entry["method"] == "cells-closed-form"
        assert entry["box"] == pytest.approx(sigma[:, 0].max(), rel=1e-12)
        assert entry["inverse"] == pytest.approx((1.0 / sigma[:, -1]).max(), rel=1e-12)
        # the text report prints the same entries
        for key, value in entry.items():
            text = value if key == "method" else f"{value:.6g}"
            assert f"chart.{chart.cell_id}.lipschitz_{key} = {text}" in lines
    # the report is plain JSON
    assert json.loads(json.dumps(report))["lipschitz"] == lipschitz
