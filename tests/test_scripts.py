"""Smoke tests for the scripts under scripts/."""

import json
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


def test_limit_study_defaults_match_closed_form():
    """At l_value_limit's own ladder the extrapolated limit is the closed form
    to rounding (4.8e-19 apart; 6 levels left it 7.3e-10 relative off)."""
    proc = run_script("limit_study.py")
    assert proc.returncode == 0, proc.stderr
    closed = complex(re.search(r"closed form\s*:\s*(\S+)", proc.stdout).group(1))
    diff = float(re.search(r"\|difference\|\s*:\s*(\S+)", proc.stdout).group(1))
    assert diff <= 1e-15 * abs(closed), proc.stdout


def test_compare_reports(tmp_path):
    from maassl import verify

    reports, summary = verify.run_suite(verify.default_suite(), "bend_*")
    data = verify.report_json(reports, summary)
    parent, change = tmp_path / "parent.json", tmp_path / "change.json"
    parent.write_text(json.dumps(data))
    proc = run_script("compare_reports.py", str(parent), str(parent))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    changed = data["checks"][2]
    changed["lhs"][0] = math.nextafter(changed["lhs"][0], math.inf)
    change.write_text(json.dumps(data))
    proc = run_script("compare_reports.py", str(parent), str(change))
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[0] == changed["id"]
    assert "1 of 4 checks differ" in proc.stdout
    data["checks"][0]["message"] = "precondition: moved"
    change.write_text(json.dumps(data))
    proc = run_script("compare_reports.py", str(parent), str(change))
    assert proc.returncode == 1
    assert "  message: '' -> 'precondition: moved'" in proc.stdout
    assert "2 of 4 checks differ" in proc.stdout


def test_kernel_timings():
    proc = run_script("kernel_timings.py", "--number", "1", "--repeat", "1")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["kernel", "case", "N", "us/call"]
    kernels = [row.split()[0] for row in rows]
    assert [kernels.count(k) for k in ("lerch_sum", "eval_at", "integrate_segment",
                                       "segment_pairing", "exp_int_E", "hurwitz_zeta",
                                       "digamma", "r_remainder", "remainder_ray",
                                       "ray_integral_bend", "l_value", "l_star",
                                       "l_value_limit")] == [
        18, 9, 1, 2, 4, 2, 1, 6, 2, 2, 3, 1, 3]
    assert [row.split()[1] for row in rows if row.startswith("exp_int_E")] == [
        "scalar", "scalar/order", "scalar/near-cut", "vector"]
    assert [row.split()[1] for row in rows if row.startswith(("l_value ", "l_star"))] == [
        "hB", "J", "synth4", "J/s=0.5"]
    assert [row.split()[1] for row in rows if row.startswith("segment_pairing")] == [
        "J/lerch/cold", "J/lerch/warm"]
    assert [row.split()[1] for row in rows if row.startswith("l_value_limit")] == [
        "hB/m=2", "J/m=0", "synth4/m=0"]
    assert [row.split()[1] for row in rows if row.startswith("r_remainder")] == [
        "hB/one_dim", "hB/double_integral", "hB/kept",
        "hC/one_dim", "hC/double_integral", "hC/kept"]
    assert [row.split()[1] for row in rows if row.startswith("remainder_ray")] == [
        "hB/p=1", "hC/p=1"]
    assert [row.split()[1] for row in rows if row.startswith("ray_integral_bend")] == [
        "a=-1/w=1", "a=2/w=1+i"]
    assert all(0 < float(row.split()[-1]) < math.inf for row in rows)
