"""The benchmark's own tests: small-size runs of every workload.

Run from the root of the repository::

    python3 -m pytest -q perfbench/test_perfbench.py

They check that every metric of ``BENCHMARK.json`` is printed with its
unit, that a corrupted result word is caught and counted as a failed
operation, that the traced run's self times fit in its wall time, and
that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, *extra: str, trace: int = 0, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def result_of(lines):
    return json.loads(lines[-1])


def detail_of(lines):
    return json.loads(next(line for line in lines
                           if line.startswith("detail: "))[len("detail: "):])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    proc, lines = run(workload)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = result_of(lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert printed["value"] > 0
    assert any(line.startswith("count ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_layers_and_self_times_fit(workload):
    proc, lines = run(workload, trace=1)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = result_of(lines)
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    detail = detail_of(lines)
    # Each lane (a cell that may run at once) contributes at most the
    # traced pass's wall time.
    assert 0 < detail["self_s_total"] <= (detail["traced_wall_s"]
                                          * detail["lanes"])
    assert result["metrics"]["sim.run_s"]["value"] > 0
    assert result["metrics"]["vm.functional_lookups"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_negative_control_is_counted_as_failed(workload):
    proc, lines = run(workload, "--negative-control")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = result_of(lines)
    assert result["failed"] >= 1
    assert result["failed"] < result["attempted"]
    # The operations that did not fail were still checked and correct.
    assert result["correct"] is True


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench-work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc, lines = run(WORKLOADS[0], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run is using it
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
