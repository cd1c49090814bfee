"""The scripts under benchmarks/ still run: a short run of each must exit 0."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=60)


def test_bench_ab_against_its_own_sources_plans_alike():
    done = run_script("benchmarks/bench_ab.py", "--base", str(ROOT), "--plans", "8")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "identical plans: 8;" in lines[2]
    assert lines[3].startswith("generate_scenario: median this ")
    assert lines[4].startswith("load_scenario (40 devices, seed 1): median this ")
    assert all(line.endswith(" of 8") for line in lines[3:])


def test_bench_dp_runs_every_shape():
    done = run_script("benchmarks/bench_dp.py", "--repeats", "1")
    assert done.returncode == 0, done.stderr
    rows = done.stdout.splitlines()[1:]
    assert len(rows) == 8
    assert rows[-1].split()[8] == "–"  # the both-slack shape keeps no capacity axis


def test_bench_io_times_every_piece():
    done = run_script("benchmarks/bench_io.py", "--repeats", "3")
    assert done.returncode == 0, done.stderr
    rows = done.stdout.splitlines()[1:]
    assert [row.split()[0] for row in rows] == [
        "load_scenario", "load_plan", "fleet_costs", "check_stages", "replan", "save_trace",
        "load_trace",
    ]
