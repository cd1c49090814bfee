"""Time the work a recover-churn job does around the DP, one piece at a time.

A ``relaydiff simulate --fail-prob`` job loads a scenario and a plan,
checks the plan's stored stage costs against the scenario, builds the
scenario's stage costs once (``fleet_costs``, kept on the scenario) at its
first failure, re-plans after each failure on the surviving devices, and
writes the trace.
This script times each of those pieces on the world of relaybench's
recover-churn workload (40 devices, seed 1, its DP plan at 3 s / 300 J) and
prints the median of ``--repeats`` calls:

* ``load_scenario`` and ``load_plan``: the indented files ``save_scenario``
  and ``save_plan`` write;
* ``fleet_costs``: building the six phase-cost arrays of the available
  devices (``cost_model._fleet_costs``; ``fleet_costs`` builds them once per
  scenario and then returns the same object);
* ``check_stages``: the plan's stage costs against the scenario's, on a
  scenario without those arrays, as in a fresh ``simulate``;
* ``replan``: the re-plan after the plan's first device fails in compute,
  on ``fleet.subset`` of the other devices with the residual budgets;
* ``save_trace`` and ``load_trace``: the trace of that run.

Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_io.py
"""

import argparse
import math
import statistics
import tempfile
import time
from pathlib import Path

from relaydiff import (
    Budgets,
    FailureSpec,
    generate_scenario,
    load_plan,
    load_scenario,
    load_trace,
    save_plan,
    save_scenario,
    save_trace,
    select_devices_dp,
    simulate_pipeline,
)
from relaydiff.cost_model import _fleet_costs
from relaydiff.pipeline import check_stages
from relaydiff.scheduler import _select_dp

BUDGETS = Budgets(t_max_s=3.0, e_max_j=300.0)


def median_ms(call, repeats):
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1e3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=500)
    args = parser.parse_args()

    scenario = generate_scenario(40, (500.0, 500.0), seed=1)
    plan = select_devices_dp(scenario, BUDGETS)
    first, cost = plan.stages[0]
    trace = simulate_pipeline(scenario, plan, FailureSpec(injected=((first, "compute"),)))
    fleet = _fleet_costs(scenario)
    keep = fleet.ids != first
    residual = Budgets(
        t_max_s=BUDGETS.t_max_s - (cost.t_down_s + cost.t_cmp_s),
        e_max_j=BUDGETS.e_max_j - math.fsum([cost.e_down_j, cost.e_cmp_j]),
    )

    with tempfile.TemporaryDirectory() as tmp:
        scenario_path, plan_path, trace_path = (Path(tmp) / name for name in ("s", "p", "t"))
        save_scenario(scenario, scenario_path)
        save_plan(plan, plan_path)
        save_trace(trace, trace_path)
        pieces = [
            ("load_scenario", lambda: load_scenario(scenario_path)),
            ("load_plan", lambda: load_plan(plan_path)),
            ("fleet_costs", lambda: _fleet_costs(scenario)),
            ("check_stages", lambda: check_stages(scenario, plan)),
            ("replan", lambda: _select_dp(fleet.subset(keep), residual)),
            ("save_trace", lambda: save_trace(trace, trace_path)),
            ("load_trace", lambda: load_trace(trace_path)),
        ]
        print(f"{len(scenario.devices)} devices, {plan.n_stages} stages, "
              f"{len(trace.events)} trace events, median of {args.repeats}")
        for name, call in pieces:
            print(f"{name:>14} {median_ms(call, args.repeats):8.3f} ms")


if __name__ == "__main__":
    main()
