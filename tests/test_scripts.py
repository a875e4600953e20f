"""The experiment scripts under ``scripts/`` run end to end on small inputs.

Each script is a consumer of the public API; running it in a subprocess
catches a renamed export or a changed signature that no unit test imports.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("constant_p_survey.py", ["--steps", "3"]),
        ("open_questions.py", ["--n-max", "20"]),
        ("oracle_check.py", ["--trials", "2", "--samples", "2000"]),
    ],
)
def test_script_runs(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("WALKDYN_TOL", None)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def _fake_report(directory, workload, seed, trace, jobs_per_s):
    names = ("setup_s", "jobs_per_s", "job_ms_p50", "job_ms_p90", "peak_rss_mb")
    metrics = {name: {"value": 1.0, "unit": "u"} for name in names}
    metrics["jobs_per_s"]["value"] = jobs_per_s
    env = {"cpu": "test", "nproc": 1, "python": "3", "numpy": "2", "seconds": 36.0}
    out = directory / ".bench_out"
    out.mkdir(parents=True, exist_ok=True)
    report = {"environment": env, "metrics": metrics, "attempted": 10, "failed": 0}
    (out / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(report))


def test_bench_summary_pairs_the_two_sides(tmp_path):
    sides = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    for seed, (before, after) in enumerate([(10.0, 20.0), (12.0, 11.0), (11.0, 11.0)], 1):
        _fake_report(sides["parent"], "orbit", seed, 0, before)
        _fake_report(sides["change"], "orbit", seed, 0, after)
    _fake_report(sides["change"], "orbit", 4, 0, 30.0)  # no parent run: not a pair
    (sides["change"] / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_summary.py"), str(sides["parent"]),
         str(sides["change"]), "--parent-sha", "a", "--change-sha", "b"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    orbit = json.loads(proc.stdout)["workloads"]["orbit"]
    assert orbit["seeds"] == [1, 2, 3]
    jobs = orbit["end_to_end"]["jobs_per_s"]
    assert (jobs["change_wins"], jobs["change_losses"], jobs["ties"]) == (1, 1, 1)
    assert jobs["parent"]["median"] == 11.0 and jobs["change"]["median"] == 11.0
    assert jobs["change"]["runs"] == [20.0, 11.0, 11.0]
