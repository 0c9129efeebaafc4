"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest -q hqbench
"""

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hadaquant  # noqa: E402
import harness  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    w = harness.WORKLOADS[name]
    return dataclasses.replace(
        w, vectors=3, codec=2, mse_trials=2,
        ip_trials=2, rate_trials=2, unbiased_trials=min(w.unbiased_trials, 2), io_rounds=2,
        min_cycles=2,
    )


def test_spec_matches_harness():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_end_to_end_metrics_named_with_units(name, tmp_path, capsys):
    result = harness.run(tiny(name), 3, 0, False, tmp_path, ROOT)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == harness.END_TO_END_UNITS
    for key, m in metrics.items():
        assert math.isfinite(m["value"]) and m["value"] > 0, key
    out = capsys.readouterr().out
    for key, unit in harness.END_TO_END_UNITS.items():
        assert re.search(rf"^{key} = \S+ {re.escape(unit)}$", out, re.M), key
    assert "fail_ratio = 0/" in out and "row c0 inner-product/error" in out


def test_traced_run_reports_every_layer(tmp_path):
    result = harness.run(tiny("ingest-large"), 4, 0, True, tmp_path, ROOT)
    assert result["correct"]
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == harness.PER_LAYER_UNITS
    for layer in tracer.LAYERS:
        assert metrics[f"{layer}.self_share"]["value"] > 0, layer
    for fn in harness.HOME_PHASE:
        assert metrics[f"{fn}.calls_per_vec"]["value"] > 0, fn
    (trace_file,) = tmp_path.glob("trace-*.json")
    spans = json.loads(trace_file.read_text())["spans"]
    assert set(tracer.FUNCTIONS) <= set(spans["names"])
    # every binding is restored once the traced rounds end
    assert hadaquant.vquant.apply_hd is hadaquant.transform.apply_hd
    assert not hasattr(hadaquant.transform.apply_hd, "__wrapped__")


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "hqbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "hqbench/run.py", "--workload", "ingest-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_failed_checks_still_report_metrics(tmp_path, monkeypatch):
    monkeypatch.setattr(hadaquant, "encode", lambda code: b"")
    result = harness.run(tiny("ingest-large"), 5, 0, False, tmp_path, ROOT)
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["pass_ratio"]["value"] < 1
