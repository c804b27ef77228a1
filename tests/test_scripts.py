"""Smoke tests for the study scripts under scripts/, which call the public API."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("name, args, label", [
    ("accuracy_sweep.py", ("J", "--s", "0.5", "--w", "1j"), "worst gap"),
    ("limit_study.py", ("--levels", "3"), "|difference|"),
])
def test_script_runs(name, args, label):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    match = re.search(re.escape(label) + r"\s*:\s*(\S+)", proc.stdout)
    assert match, proc.stdout
    assert math.isfinite(float(match.group(1)))
