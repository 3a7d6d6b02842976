"""Tiny-size runs of every workload of the benchmark.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.  Each workload runs once untraced and once traced at
``--size tiny``; the run must print every metric ``BENCHMARK.json``
names, with its unit, and finish without a failed operation.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int, seed: int = 7):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float)), metric["name"]
        if not trace:
            assert got["value"] > 0, metric["name"]
    report = json.loads(
        (ROOT / ".bench_work" / "results"
         / f"{workload}-seed7-trace{trace}.json").read_text())
    assert report["error_ratio"] == 0
    assert report["flags"] == []
    if trace:
        assert "overhead" in report


def test_waterfall_names_the_dominant_layer():
    """The interpreter holds the largest share of ingest's time."""
    proc = _run(ROOT, "ingest", 1)
    assert proc.returncode == 0, proc.stderr[-2000:]
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    shares = {k: v["value"] for k, v in metrics.items() if k.endswith(".self_share")}
    assert max(shares, key=shares.get) == "interp.self_share"


def test_fails_without_the_program(tmp_path):
    """A directory holding only the benchmark exits nonzero, printing
    no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "ingest", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
