"""Smoke tests: the cross-check scripts run to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("verify_enumeration.py", ["--max-n", "8", "--seeds", "1"]),
        ("oracle_crosscheck.py", ["--max-m", "4"]),
    ],
)
def test_script_exits_zero(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
