"""Smoke tests: the certification script runs to completion on small inputs
and refuses bad arguments with the CLI's exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "script, args",
    [
        ("verify_enumeration.py", ["--max-n", "8", "--seeds", "1"]),
    ],
)
def test_script_exits_zero(script, args):
    done = run_script(script, args)
    assert done.returncode == 0, done.stdout + done.stderr


@pytest.mark.parametrize(
    "args, code, message",
    [
        (["--seeds", "0"], 2, "input error: --seeds must be at least 1, got 0"),
        (["--max-n", "2"], 2, "input error: --max-n must be at least 3, got 2"),
        (["--max-n", "25"], 4, "refused: --max-n=25 exceeds the order cap of 24"),
    ],
)
def test_verify_enumeration_refuses_bad_arguments(args, code, message):
    done = run_script("verify_enumeration.py", args)
    assert (done.returncode, done.stdout, done.stderr) == (code, "", message + "\n")
