"""Smoke tests for the benchmark harness, at tiny sizes so they run in seconds.

    python -m pytest bench/test_smoke.py -q

They check the output contract (last line, metric names and units as listed
in BENCHMARK.json), not timings and not the library's correctness.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    res = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert res.returncode == 0, res.stderr
    last = json.loads(res.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1 and 0 <= last["failed"] <= last["attempted"]
    assert last["correct"] == (last["failed"] == 0)
    spec = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in last["metrics"].items()
    }
    assert all(math.isfinite(m["value"]) for m in last["metrics"].values())


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    res = _run(tmp_path, "--workload", "certify", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert res.returncode != 0
    assert res.stdout == ""
