"""Smoke test of the benchmark: every workload, run for a second,
reports each metric named in BENCHMARK.json with its unit and has no
failed op; without the package sources the benchmark refuses to run.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = run_bench(HERE.parent, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.splitlines()
    info, result = json.loads(info_line)["info"], json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], info["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert info["failed_frac"] == 0 and info["golden_checked"]
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}


def test_layer_metrics_match_benchmark_spec():
    spec = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert spec == list(tracing.LAYER_METRICS)


def test_self_time_excludes_children():
    spans = [
        ["a", 0, 100, -1, None],
        ["b", 10, 40, 0, None],
        ["c", 20, 30, 1, None],
        ["b", 50, 60, 0, None],
    ]
    assert tracing.self_times(spans) == [60, 20, 10, 10]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "study", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
