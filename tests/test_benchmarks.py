"""The scripts under benchmarks/ still run (a short run of each must exit 0), and bench_ab is fair."""

import collections
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import relaydiff
from relaydiff.kernel import reduce_knapsack

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
    names = [line.split(":")[0] for line in lines[1:]]
    assert names == [
        "select_devices_dp", "select_devices_dp n=500", "select_devices_dp n=40",
        "generate_scenario", "load_scenario", "load_plan", "simulate_pipeline", "save_trace",
        "load_trace", "import", "tables",
    ]
    assert all(" median this " in line and " ms, p90 " in line and " base median " in line
               for line in lines[1:-1])
    # Every fourth input is an n=40 one.
    inputs = {"select_devices_dp n=500": 6, "select_devices_dp n=40": 2}
    assert all(line.endswith(f" of {inputs.get(name, 8)}") for name, line in zip(names, lines[1:-1]))
    # Both sides are this checkout, so they fill the same tables; each kind's
    # plans are counted once per side.
    this, base = lines[-1].removeprefix("tables: ").split("; ")
    assert this.removeprefix("this ") == base.removeprefix("base ")
    for kind, count in zip(this.removeprefix("this ").split(", "), (6, 2)):
        words = kind.split()
        assert words[1::2] == ["grid", "value", "bits"] and sum(map(int, words[2::2])) == count


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_ab_runs_each_side_first_half_the_time_within_each_input_kind():
    bench_ab = load_script("bench_ab")
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
    assert len(rows) == 10
    # The fifth and sixth shapes sit on either side of the table choice.
    assert (rows[4][4], rows[4][9]) == ("96", "grid")
    assert (rows[5][4], rows[5][9]) == ("104", "value")
    assert rows[7][8:10] == ["–", "bits"]  # the both-slack shape keeps no capacity axis
    # The plan-cold-like shape keeps only the time axis, in a grid on its
    # 2000x2000 copy, though its fitting devices' energy passes the energy
    # capacity: the implied-axis rule dropped that axis, where the
    # total-fits rule would have kept it. On its 200x200 copy the one live
    # axis fills the bit table.
    assert rows[8][8:10] == ["t", "grid"]
    assert rows[9][8:10] == ["t", "bits"]
    shapes = load_script("bench_dp").shapes(0)
    for (unit_t, unit_e, sizes, cap_t, cap_e), table in zip(shapes[8:], ("grid", "bits")):
        facts = reduce_knapsack(unit_t, unit_e, sizes, cap_t, cap_e)
        assert unit_e[(unit_t <= cap_t) & (unit_e <= cap_e)].sum() > cap_e
        assert facts.caps == (cap_t, 0) and facts.table == table
