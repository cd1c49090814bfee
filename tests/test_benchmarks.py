"""The scripts under benchmarks/ still run (a short run of each must exit 0), and bench_ab is fair."""

import collections
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import relaydiff

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=60)


def test_bench_ab_against_its_own_sources_plans_alike():
    done = run_script("benchmarks/bench_ab.py", "--base", str(ROOT), "--plans", "8")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("identical worlds, plans, outcomes and traces on 8 inputs ")
    assert [line.split(":")[0] for line in lines[1:]] == [
        "select_devices_dp", "generate_scenario", "load_scenario", "load_plan",
        "simulate_pipeline", "save_trace", "load_trace",
    ]
    assert all(" median this " in line and line.endswith(" of 8") for line in lines[1:])


def test_bench_ab_runs_each_side_first_half_the_time_within_each_input_kind():
    spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "benchmarks" / "bench_ab.py")
    bench_ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_ab)
    inputs, this_first = collections.Counter(), collections.Counter()
    for i in range(1000):
        kind = bench_ab.plan_input(relaydiff, 0, i)[0]
        inputs[kind] += 1
        this_first[kind] += bench_ab.sides_in_order(i)[0] == "this"
    assert inputs == {500: 750, 40: 250}
    assert this_first == {500: 375, 40: 125}


def test_bench_dp_runs_every_shape():
    done = run_script("benchmarks/bench_dp.py", "--repeats", "1")
    assert done.returncode == 0, done.stderr
    rows = [row.split() for row in done.stdout.splitlines()[1:]]
    assert len(rows) == 8
    # The fifth and sixth shapes sit on either side of the table choice.
    assert (rows[4][4], rows[4][9]) == ("96", "grid")
    assert (rows[5][4], rows[5][9]) == ("104", "value")
    assert rows[-1][8] == "–"  # the both-slack shape keeps no capacity axis
