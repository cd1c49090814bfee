"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q relaybench
"""

from __future__ import annotations

import dataclasses

import pytest

import run

rd, _ = run.import_package()

from measure import NullRecorder, SpanRecorder, min_jobs_for, percentile, replay_self  # noqa: E402
from workloads import PlanCold, RecoverChurn, SweepGrid, check_plan, check_sweep_rows  # noqa: E402


# -- tail percentiles ----------------------------------------------------------


def test_percentile_is_nearest_rank_with_its_tail_count():
    p90 = percentile(range(1, 101), 0.9)
    assert (p90.value, p90.n, p90.beyond, p90.meets_tail_rule) == (90, 100, 10, True)
    assert percentile([3.0, 1.0, 2.0], 0.5).value == 2.0
    assert percentile([5.0], 0.9).value == 5.0


def test_job_count_rule():
    assert min_jobs_for(0.9) == 100
    assert min_jobs_for(0.5) == 20
    assert min_jobs_for(0.99) == 1000
    short = percentile(range(1, 100), 0.9)
    assert short.beyond == 9 and not short.meets_tail_rule
    with pytest.raises(ValueError):
        min_jobs_for(1.0)
    with pytest.raises(ValueError):
        percentile([], 0.9)


# -- self time -----------------------------------------------------------------


def test_replay_self_time():
    assert replay_self(10.0, [3.0, 2.5]) == 4.5
    assert replay_self(1.0, [0.75, 0.5]) == -0.25  # reported as measured


def test_recorder_nests_spans_and_null_recorder_records_nothing():
    rec = SpanRecorder()
    rec.job = "w:0"
    with rec.span("outer") as outer:
        with rec.span("inner"):
            pass
    inner = rec.closed()[1]
    assert inner.parent == outer.span.id and inner.job == "w:0"
    assert outer.span.start <= inner.start <= inner.end <= outer.span.end
    null = NullRecorder()
    with null.span("anything"):
        pass


# -- output checks -------------------------------------------------------------


def run_first_job(workload, reference, corrupt=None):
    """One job through the benchmark's loop; ``corrupt`` rewrites its output."""

    if corrupt is not None:
        job = workload.run
        workload.run = lambda inp: corrupt(job(inp))
    loop = run.Loop(workload, reference, traced=False)
    _, first = loop.setup()
    loop.run(first, 0.0, max_jobs=1)
    return loop


def swap_one_device(plan, scenario):
    """The plan with its first device replaced by an unselected one."""

    chosen = set(plan.device_ids)
    spare = next(d for d in scenario.devices if d.available and d.id not in chosen)
    stages = sorted([(spare.id, plan.stages[0][1])] + list(plan.stages[1:]), key=lambda s: s[0])
    return dataclasses.replace(plan, stages=tuple(stages))


def test_plan_with_a_swapped_device_is_rejected(tmp_path):
    reference = run.load_reference("plan-cold", 1)
    assert reference, "no recorded reference for seed 1"
    assert run_first_job(PlanCold(1, tmp_path, NullRecorder()), reference).failed == 0
    scenario = PlanCold(1, tmp_path, NullRecorder()).make_input(0)[0]
    loop = run_first_job(PlanCold(1, tmp_path, NullRecorder()), reference,
                         corrupt=lambda plan: swap_one_device(plan, scenario))
    assert loop.failed == 1
    assert any("reference" in p for p in loop.problems)


def test_plan_invariants_hold_for_any_seed_and_catch_a_swap():
    scenario = rd.generate_scenario(30, (500.0, 500.0), seed=123)
    budgets = rd.Budgets(t_max_s=2.0, e_max_j=200.0)
    plan = rd.select_devices_dp(scenario, budgets)
    assert check_plan(scenario, plan, budgets) == []
    assert check_plan(scenario, swap_one_device(plan, scenario), budgets)


def test_sweep_row_with_a_changed_objective_is_rejected(tmp_path):
    reference = run.load_reference("sweep-grid", 1)
    assert reference, "no recorded reference for seed 1"

    def bump_objective(rows):
        rows[0] = {**rows[0], "objective_bytes": rows[0]["objective_bytes"] + 1}
        return rows

    loop = run_first_job(SweepGrid(1, tmp_path, NullRecorder()), reference, corrupt=bump_objective)
    assert loop.failed == 1
    assert any("reference" in p for p in loop.problems)


def test_sweep_invariants_reject_swallowed_errors_and_dp_below_no_ds():
    spec = rd.SweepSpec(t_max_grid=(1.0, 2.0), e_max_grid=(100.0, 200.0))
    scenario = rd.generate_scenario(12, (500.0, 500.0), seed=7)
    rows = rd.run_sweep(spec, scenario=scenario)
    assert check_sweep_rows(rows, spec) == []
    dp = next(i for i, r in enumerate(rows) if r["method"] == "dp")
    swallowed = list(rows)
    swallowed[dp] = {**rows[dp], "feasible": False, "n_stages": 0, "objective_bytes": 0}
    assert any("swallowed" in p for p in check_sweep_rows(swallowed, spec))
    assert any("below no_ds" in p for p in check_sweep_rows(swallowed, spec))
    infeasible_split = [
        {**r, "feasible": False} if r["method"] == "split" and r["n_stages"] else r for r in rows
    ]
    assert check_sweep_rows(infeasible_split, spec) == []  # a modelled outcome


def test_recover_churn_rejects_a_bad_exit_code_and_a_changed_trace(tmp_path):
    reference = run.load_reference("recover-churn", 1)
    assert reference, "no recorded reference for seed 1"
    assert run_first_job(RecoverChurn(1, tmp_path, NullRecorder()), reference).failed == 0
    assert run_first_job(RecoverChurn(1, tmp_path, NullRecorder()), reference,
                         corrupt=lambda code: 3).failed == 1

    def other_outcome(code):
        # the failure-free trace of the same plan, written where the job wrote its own
        workload = RecoverChurn(1, tmp_path, NullRecorder())
        scenario = rd.load_scenario(workload.scenario_path)
        plan = rd.load_plan(workload.plan_path)
        rd.save_trace(rd.simulate_pipeline(scenario, plan), workload.trace_path)
        return 0

    loop = run_first_job(RecoverChurn(1, tmp_path, NullRecorder()), reference, corrupt=other_outcome)
    assert loop.failed == 1
