"""The experiment scripts under ``scripts/`` run end to end on small inputs.

Each script is a consumer of the public API; running it in a subprocess
catches a renamed export or a changed signature that no unit test imports.
"""

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
