"""Smoke tests: the certification script runs to completion on small inputs
and refuses bad arguments with the CLI's exit codes."""

import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from antimagic import cli

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


def test_verify_enumeration_prints_a_replayable_failure(capsys, monkeypatch):
    # claim3 made to fail on the one caterpillar of order 3, with seeds 0 and 1
    check_claims = cli.check_claims

    def failing_claim3(c, ol, trace):
        claims = check_claims(c, ol, trace)
        return [(name, passed and not (name == "claim3" and c.m == 2)) for name, passed in claims]

    monkeypatch.setattr(cli, "check_claims", failing_claim3)
    monkeypatch.setattr(sys, "argv", ["verify_enumeration.py", "--max-n", "4", "--seeds", "2"])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(ROOT / "scripts" / "verify_enumeration.py"), run_name="__main__")
    assert done.value.code == 1
    out = capsys.readouterr().out.splitlines()
    fails = [line for line in out if line.startswith("FAIL")]
    assert fails == [
        'FAIL {"line": "2", "seed": 0, "violations": ["claim3"]}',
        'FAIL {"line": "2", "seed": 1, "violations": ["claim3"]}',
    ]
    assert re.fullmatch(r"checked 3 instances x 2 seeds in \d+\.\d s CPU, \d+ us each", out[-2])
