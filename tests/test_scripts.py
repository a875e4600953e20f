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

from walkdyn.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


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


def _digest(workload, seed, jobs, *flags):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "result_digest.py"), "--workload", workload,
         "--seed", str(seed), "--jobs", str(jobs), *flags],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_result_digest_is_a_function_of_the_jobs():
    first = _digest("certify", 1, 20)
    assert len(first) == 64 and int(first, 16) >= 0
    assert _digest("certify", 1, 20) == first
    assert _digest("certify", 2, 20) != first


def test_result_digest_per_job_names_each_job():
    # one line a job: its index, the digest of its result line and the job,
    # so a moved digest can be traced to the jobs that moved it; the lines
    # are those the total digest reads
    code = ("import hashlib, itertools, runpy, sys; s = runpy.run_path(sys.argv[1])"
            "; lines = [s['result_text'](j).encode() + b'\\n'"
            " for j in itertools.islice(s['J'].stream('certify', 1), 4)]"
            "; [print(i, hashlib.sha256(x).hexdigest(), s['J'].describe(j)) for i, (x, j)"
            " in enumerate(zip(lines, s['J'].stream('certify', 1)))]"
            "; print(hashlib.sha256(b''.join(lines)).hexdigest())")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "scripts" / "result_digest.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *per_job, total = proc.stdout.splitlines()
    assert len(per_job) == 4 and per_job[3].startswith("3 ")
    assert _digest("certify", 1, 4, "--per-job").splitlines() == per_job
    assert _digest("certify", 1, 4) == total


@pytest.mark.parametrize(
    "argv, shows",
    [
        (["certify", "fhc", "--pseq", "const:0.6"], "needs --lambda"),
        # an exception the CLI does not catch, from a handler replaced in process
        (["kernel", "--pseq", "const:0.75"], "raised ZeroDivisionError"),
    ],
)
def test_result_digest_reads_a_cli_jobs_errors(argv, shows):
    # a cli job's error text and any exception it raises enter its result
    code = ("import runpy, sys; script = runpy.run_path(sys.argv[1])"
            "; script['cli']._HANDLERS['kernel'] = lambda *_: 1 / 0"
            "; print(script['result_text']({'kind': 'cli', 'argv': sys.argv[2:]}))")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "scripts" / "result_digest.py"), *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert shows in proc.stdout


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


def _within_gates(doc):
    w = doc["result"]["witness"]
    w["certified_ratio"] *= 1 + 1e-14
    w["inverse_residual"] *= 3  # round-off witnesses may move under their gates
    w["forward_norms"][10] *= 5


def _past_tolerance(doc):
    doc["result"]["witness"]["backward_norms"][3] *= 1 + 1e-9


def _verdict(doc):
    doc["result"]["holds"] = "undetermined"


def _witness_over_gate(doc):
    doc["result"]["witness"]["inverse_residual"] = 2e-10


def _norm_before_annihilation(doc):
    doc["result"]["witness"]["forward_norms"][2] *= 1 + 1e-9


def _length(doc):
    doc["result"]["witness"]["backward_norms"].pop()


def _key(doc):
    del doc["result"]["witness"]["measured_ratio"]


def _residual_moved(doc):
    doc["result"]["witness"]["inverse_residual"] *= 3


def _tail_norm_moved(doc):
    doc["result"]["witness"]["forward_norms"][10] *= 5  # past annihilation_index 6


def _scaled_tail_moved(doc):
    doc["result"]["witness"]["forward_scaled_tail"] = 1.0


# a report at a huge lam: |lam|**n passes the float range and forward_norms
# holds "inf", where the rescaling raised OverflowError
HUGE_LAM = ["certify", "fhc", "--pseq", "const:0.75", "--lam", "1e20"]
# a report whose forward_norms head holds "inf": the tail gate is inf, and
# no witness is exempt under a gate that is not finite
HUGER_LAM = ["certify", "fhc", "--pseq", "const:0.75", "--lam", "1e62"]

_COMPARE_CASES = [
    (_within_gates, 0, None),
    (_past_tolerance, 1, None),
    (_verdict, 1, None),
    (_witness_over_gate, 1, None),
    (_norm_before_annihilation, 1, None),
    (_length, 1, None),
    (_key, 1, None),
    (_residual_moved, 0, HUGE_LAM),
    # the rescaled tail sum is inf there, so the report's forward_scaled_tail judges it
    (_tail_norm_moved, 0, HUGE_LAM),
    (_scaled_tail_moved, 1, HUGER_LAM),
]


@pytest.mark.parametrize(
    "edit, code, base", _COMPARE_CASES, ids=[f"{e.__name__}-{c}" for e, c, _ in _COMPARE_CASES]
)
def test_compare_goldens(tmp_path, capsys, edit, code, base):
    """``base`` is the argv of the report compared, None for golden certify_fhc_yes."""
    old, new = tmp_path / "old", tmp_path / "new"
    for side in (old, new):
        side.mkdir()
        (side / "kernel_const.json").write_text((GOLDEN / "kernel_const.json").read_text())
    if base is None:
        text = (GOLDEN / "certify_fhc_yes.json").read_text()
    else:
        main(base)
        text = capsys.readouterr().out
    (old / "certify_fhc_yes.json").write_text(text)
    doc = json.loads(text)
    edit(doc)
    (new / "certify_fhc_yes.json").write_text(json.dumps(doc, indent=2))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_goldens.py"), str(old), str(new)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code, proc.stdout + proc.stderr
    assert "kernel_const.json: identical" in proc.stdout


def _added(commands):
    commands.append({"name": "kernel_new", "argv": ["kernel", "--pseq", "const:0.6"], "exit": 0})


def _changed(commands):
    commands[0]["argv"] = commands[0]["argv"] + ["--format", "csv"]


def _removed(commands):
    del commands[0]


@pytest.mark.parametrize("edit, code", [(_added, 0), (_changed, 1), (_removed, 1)])
def test_compare_goldens_lets_commands_be_added_only(tmp_path, edit, code):
    # a new golden is no re-recorded one; a changed or missing command is
    old, new = tmp_path / "old", tmp_path / "new"
    commands = json.loads((GOLDEN / "commands.json").read_text())
    for side in (old, new):
        side.mkdir()
    (old / "commands.json").write_text(json.dumps(commands))
    edit(commands)
    (new / "commands.json").write_text(json.dumps(commands))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_goldens.py"), str(old), str(new)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code, proc.stdout + proc.stderr
    if code == 0:
        assert proc.stdout == "commands.json: ok, added kernel_new\n"
