"""Smoke test of the benchmark: every workload at tiny size.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
DECIDE = {"decide-random", "decide-hard"}


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def report(out):
    """The human-readable lines as {name: (value, unit)}, and the JSON line."""
    lines = out.stdout.strip().splitlines()
    printed = {}
    for text in lines[:-1]:
        fields = text.split()
        if len(fields) >= 3 and not text.startswith(("{", "  error:")):
            printed[fields[0]] = (fields[1], fields[2])
    return printed, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    out = run(workload, 0)
    assert out.returncode == 0, out.stderr
    printed, result = report(out)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    gated = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == gated
    named = dict(gated, error_share="ratio")
    if workload in DECIDE:
        named.update(decided_share="ratio", cert_worlds_total="count")
    if "op_p50_ms" in printed:
        named.update(op_p50_ms="ms", op_p90_ms="ms")
    else:
        assert "op_p50_ms, op_p90_ms: not reported" in out.stdout
    for name, unit in named.items():
        assert printed[name][1] == unit, name
    assert float(printed["error_share"][0]) == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload):
    out = run(workload, 1)
    assert out.returncode == 0, out.stderr
    printed, result = report(out)
    assert result["correct"] and result["failed"] == 0
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == layers
    for name, unit in layers.items():
        assert printed[name][1] == unit, name
    assert "missing seam" not in out.stdout


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run("decide-hard", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
