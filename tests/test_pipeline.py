"""Sequential pipeline execution, checkpointing, failure recovery, traces.

Fixture worlds are dyadic (see conftest), so trace aggregates are asserted
exactly: a failure-free run must reproduce its plan's totals bit-for-bit.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relaydiff import (
    Budgets,
    ConfigurationError,
    FailureSpec,
    LineageError,
    NO_FAILURES,
    RecoveryInfeasible,
    ValidationError,
    aggregate_latent_lineage,
    generate_scenario,
    load_trace,
    mark_unavailable,
    save_trace,
    select_devices_dp,
    select_devices_no_ds,
    select_devices_oracle,
    simulate_pipeline,
    trace_summary,
)
from relaydiff.cost_model import fleet_costs
from relaydiff.formats import trace_from_dict, trace_to_dict
from relaydiff.pipeline import Event, Timeline
from relaydiff.scenario import STAGE_PHASES

from conftest import DYADIC_DISC


def checkpoints(trace):
    return [e for e in trace.events if e.kind == "checkpoint"]


def kinds(trace):
    return [e.kind for e in trace.events]


def assert_sequential(trace):
    for prev, nxt in zip(trace.events, trace.events[1:]):
        assert nxt.t_start_s == prev.t_end_s


def test_two_stage_run_matches_hand_sum(two_stage_scenario):
    plan = select_devices_dp(two_stage_scenario, Budgets(2.0, 200.0), DYADIC_DISC)
    assert plan.device_ids == (0, 1)
    trace = simulate_pipeline(two_stage_scenario, plan)
    # per stage (t_down, t_cmp, t_up) = (0.25, 0.5, 0.25)
    assert trace.t_total_s == 2.0
    assert trace.t_tran_s == 1.0
    assert trace.t_cmp_s == 1.0
    assert trace.tran_fraction == 0.5
    assert len(checkpoints(trace)) == 2
    assert trace.stages_completed == 2
    assert trace.replans == 0
    assert trace.completed and trace.feasible
    assert kinds(trace) == [
        "download", "compute", "upload", "checkpoint",
        "download", "compute", "upload", "checkpoint",
    ]
    assert_sequential(trace)


def test_failure_free_accounting_is_exact(three_device_scenario, fixture_budgets, fixture_disc):
    plan = select_devices_dp(three_device_scenario, fixture_budgets, fixture_disc)
    trace = simulate_pipeline(three_device_scenario, plan)
    assert trace.t_total_s == plan.t_total_s
    assert trace.e_total_j == plan.e_total_j
    assert trace.t_total_s == trace.t_tran_s + trace.t_cmp_s
    assert 0.0 <= trace.tran_fraction <= 1.0
    assert len(checkpoints(trace)) == plan.n_stages
    assert aggregate_latent_lineage(trace) == list(plan.device_ids)
    assert_sequential(trace)


def test_empty_plan_gives_empty_trace(three_device_scenario):
    plan = select_devices_dp(three_device_scenario, Budgets(0.0, 0.0))
    trace = simulate_pipeline(three_device_scenario, plan)
    assert trace.events == ()
    assert trace.t_total_s == 0.0 and trace.e_total_j == 0.0
    assert trace.tran_fraction == 0.0
    assert trace.stages_completed == 0
    assert trace.completed and trace.feasible
    assert aggregate_latent_lineage(trace) == []


def test_event_amounts_carry_bytes_and_steps(two_stage_scenario):
    plan = select_devices_dp(two_stage_scenario, Budgets(2.0, 200.0), DYADIC_DISC)
    trace = simulate_pipeline(two_stage_scenario, plan)
    for event in trace.events:
        if event.kind in ("download", "upload", "checkpoint"):
            assert event.amount == two_stage_scenario.latent_bytes
        elif event.kind == "compute":
            assert event.amount == two_stage_scenario.steps_per_stage


def test_compute_failure_recovers_on_spare(recovery_scenario, recovery_budgets):
    plan = select_devices_dp(recovery_scenario, recovery_budgets)
    assert plan.device_ids == (0, 1)
    trace = simulate_pipeline(
        recovery_scenario, plan, FailureSpec(injected=((1, "compute"),))
    )
    assert kinds(trace) == [
        "download", "compute", "upload", "checkpoint",   # stage 1 on device 0
        "download", "compute", "failure", "replan",      # device 1 dies mid-stage
        "download", "compute", "upload", "checkpoint",   # spare device 2 redoes it
    ]
    # the failed phase is still paid for: 1.0 + 0.75 lost + 0.5 on the spare
    assert trace.t_total_s == 2.25
    assert trace.e_total_j == 1.9375
    assert trace.stages_completed == 2
    assert trace.replans == 1
    assert trace.completed and trace.feasible
    assert aggregate_latent_lineage(trace) == [0, 2]
    failure = next(e for e in trace.events if e.kind == "failure")
    assert failure.device_id == 1
    assert failure.duration_s == 0.0
    assert_sequential(trace)


def test_upload_failure_reexecutes_stage_elsewhere(recovery_scenario, recovery_budgets):
    plan = select_devices_dp(recovery_scenario, recovery_budgets)
    trace = simulate_pipeline(
        recovery_scenario,
        plan,
        FailureSpec(injected=((1, "upload"),)),
        budgets=Budgets(2.75, 200.0),
    )
    # three upload events were paid for, but only two produced checkpoints
    assert sum(k == "upload" for k in kinds(trace)) == 3
    assert len(checkpoints(trace)) == 2
    assert trace.t_total_s == 2.5
    assert trace.stages_completed == 2
    assert aggregate_latent_lineage(trace) == [0, 2]


def test_infeasible_recovery_raises_with_partial_trace(recovery_scenario, recovery_budgets):
    plan = select_devices_dp(recovery_scenario, recovery_budgets)
    with pytest.raises(RecoveryInfeasible, match="no feasible continuation") as excinfo:
        simulate_pipeline(recovery_scenario, plan, FailureSpec(injected=((1, "upload"),)))
    trace = excinfo.value.trace
    assert trace is not None
    assert not trace.completed
    assert trace.stages_completed == 1
    assert trace.replans == 1
    assert len(checkpoints(trace)) == 1
    assert trace.t_total_s == 2.0  # all elapsed work is accounted for
    with pytest.raises(LineageError):
        aggregate_latent_lineage(trace)


def test_random_failures_are_deterministic(recovery_scenario, recovery_budgets):
    plan = select_devices_dp(recovery_scenario, recovery_budgets)
    spec = FailureSpec(per_stage_prob=0.5, rng_seed=3)

    def run():
        try:
            return simulate_pipeline(recovery_scenario, plan, spec)
        except RecoveryInfeasible as exc:
            return exc.trace

    assert run() == run()


def test_failure_spec_validation():
    with pytest.raises(ValidationError, match="phase"):
        FailureSpec(injected=((1, "explode"),))
    with pytest.raises(ValidationError, match="duplicate"):
        FailureSpec(injected=((1, "compute"), (1, "upload")))
    with pytest.raises(ValidationError, match="per_stage_prob"):
        FailureSpec(per_stage_prob=1.0)
    for seed in (-1, True, 1.0):
        with pytest.raises(ValidationError, match=r"failures\.rng_seed: must be a non-negative"):
            FailureSpec(rng_seed=seed)


def test_injected_failure_must_target_plan_device(recovery_scenario, recovery_budgets):
    plan = select_devices_dp(recovery_scenario, recovery_budgets)
    with pytest.raises(ConfigurationError, match="not in the plan"):
        simulate_pipeline(recovery_scenario, plan, FailureSpec(injected=((2, "compute"),)))


def test_event_validation():
    with pytest.raises(ValidationError, match="kind"):
        Event(0.0, 1.0, "teleport", 0, 0)
    with pytest.raises(ValidationError, match="precedes"):
        Event(1.0, 0.5, "compute", 0, 5)


def test_trace_roundtrip(tmp_path, recovery_scenario, recovery_budgets):
    plan = select_devices_dp(recovery_scenario, recovery_budgets)
    trace = simulate_pipeline(
        recovery_scenario, plan, FailureSpec(injected=((1, "compute"),))
    )
    path = tmp_path / "trace.json"
    save_trace(trace, path)
    assert load_trace(path) == trace


def test_trace_load_validation(recovery_scenario, recovery_budgets):
    plan = select_devices_dp(recovery_scenario, recovery_budgets)
    trace = simulate_pipeline(recovery_scenario, plan)

    def corrupted(mutate):
        data = trace_to_dict(trace)
        mutate(data)
        return data

    cases = [
        (lambda d: d.update(t_tran_s=1e9), r"trace.t_tran_s"),
        (lambda d: d["events"][0].update(kind="teleport"), r"kind"),
        (lambda d: d["events"][0].pop("amount"), r"amount"),
        (lambda d: d.update(stages_completed=-1), r"stages_completed"),
        (lambda d: d.update(completed="yes"), r"completed"),
        (lambda d: d.pop("completed"), r"^trace\.completed: missing required field$"),
        (lambda d: d.update(method=5), r"^trace\.method: expected a string, got int$"),
        (lambda d: d.update(method=None), r"^trace\.method: expected a string, got NoneType$"),
        (lambda d: d.update(method=["dp"]), r"^trace\.method: expected a string, got list$"),
        (lambda d: d.pop("method"), r"^trace\.method: missing required field$"),
        (lambda d: d.update(method="xyz"), r"^trace\.method: must be one of "
                                           r"\('dp', 'oracle', 'no_ds', 'split'\), got 'xyz'$"),
        (lambda d: d.update(method=""), r"^trace\.method: must be one of .*, got ''$"),
    ]
    for mutate, pattern in cases:
        with pytest.raises(ValidationError, match=pattern):
            trace_from_dict(corrupted(mutate))
    # Every plan method loads; the CLI's split test loads a split trace.
    for method in ("oracle", "no_ds"):
        assert trace_from_dict(corrupted(lambda d: d.update(method=method))).method == method


def test_trace_summary_is_flat(two_stage_scenario):
    plan = select_devices_dp(two_stage_scenario, Budgets(2.0, 200.0), DYADIC_DISC)
    summary = trace_summary(simulate_pipeline(two_stage_scenario, plan))
    assert summary == {
        "method": "dp",
        "stages_completed": 2,
        "replans": 0,
        "t_total_s": 2.0,
        "e_total_j": 1.75,
        "t_tran_s": 1.0,
        "t_cmp_s": 1.0,
        "tran_fraction": 0.5,
        "completed": True,
        "feasible": True,
    }


def test_trace_loader_rejects_and_recomputes_time_totals(recovery_scenario, recovery_budgets):
    plan = select_devices_dp(recovery_scenario, recovery_budgets)
    trace = simulate_pipeline(
        recovery_scenario, plan, FailureSpec(injected=((1, "compute"),))
    )
    for name, tampered in (("t_total_s", 999.0), ("tran_fraction", 7.0)):
        data = trace_to_dict(trace)
        data[name] = tampered
        with pytest.raises(ValidationError, match=f"trace.{name}"):
            trace_from_dict(data)

    # Within the 1e-12 tolerance the file loads, with the recomputed values.
    data = trace_to_dict(trace)
    data["t_total_s"] *= 1 + 1e-14
    data["tran_fraction"] *= 1 - 1e-14
    loaded = trace_from_dict(data)
    assert loaded.t_total_s == trace.t_total_s == loaded.t_tran_s + loaded.t_cmp_s
    assert loaded.tran_fraction == trace.tran_fraction


def test_plan_from_another_scenario_is_rejected():
    plan = select_devices_dp(generate_scenario(20, seed=1), Budgets(2.0, 200.0))
    assert plan.stages
    with pytest.raises(ValidationError, match="another scenario"):
        simulate_pipeline(generate_scenario(20, seed=2), plan)


def _recovered_trace(recovery_scenario, recovery_budgets):
    plan = select_devices_dp(recovery_scenario, recovery_budgets)
    trace = simulate_pipeline(recovery_scenario, plan, FailureSpec(injected=((1, "compute"),)))
    assert trace.completed and trace.replans == 1
    return trace


def test_recovered_trace_roundtrips_through_the_loader(recovery_scenario, recovery_budgets):
    trace = _recovered_trace(recovery_scenario, recovery_budgets)
    assert set(kinds(trace)) >= {"checkpoint", "failure", "replan"}
    assert trace_from_dict(trace_to_dict(trace)) == trace


def test_trace_loader_rejects_a_timeline_that_does_not_start_at_zero(
    recovery_scenario, recovery_budgets
):
    data = trace_to_dict(_recovered_trace(recovery_scenario, recovery_budgets))
    data["events"][0]["t_start_s"] = 2.0**-10
    with pytest.raises(ValidationError, match=r"events\[0\].t_start_s"):
        trace_from_dict(data)


def test_trace_loader_rejects_a_gap_between_events(recovery_scenario, recovery_budgets):
    data = trace_to_dict(_recovered_trace(recovery_scenario, recovery_budgets))
    event = data["events"][4]
    event["t_start_s"] = (event["t_start_s"] + event["t_end_s"]) / 2
    with pytest.raises(ValidationError, match=r"events\[4\].t_start_s"):
        trace_from_dict(data)


def test_trace_loader_rejects_markers_that_take_time(recovery_scenario, recovery_budgets):
    trace = _recovered_trace(recovery_scenario, recovery_budgets)
    for kind in ("checkpoint", "failure", "replan"):
        data = trace_to_dict(trace)
        i = kinds(trace).index(kind)
        data["events"][i]["t_end_s"] += 0.25
        with pytest.raises(ValidationError, match=rf"events\[{i}\]: a {kind} marker"):
            trace_from_dict(data)


def test_trace_loader_recounts_stages_and_replans(recovery_scenario, recovery_budgets):
    trace = _recovered_trace(recovery_scenario, recovery_budgets)
    for name in ("stages_completed", "replans"):
        data = trace_to_dict(trace)
        data[name] += 1
        with pytest.raises(ValidationError, match=f"trace.{name}"):
            trace_from_dict(data)

    # A run is complete unless its last event is a re-plan that found no continuation.
    plan = select_devices_dp(recovery_scenario, recovery_budgets)
    with pytest.raises(RecoveryInfeasible) as info:
        simulate_pipeline(recovery_scenario, plan, FailureSpec(injected=((1, "upload"),)))
    partial = info.value.trace
    assert trace_from_dict(trace_to_dict(partial)) == partial
    for saved, completed in ((trace, False), (partial, True)):
        data = trace_to_dict(saved)
        data["completed"] = completed
        with pytest.raises(ValidationError) as info:
            trace_from_dict(data)
        assert str(info.value) == f"trace.completed: {completed} inconsistent with events ({not completed})"


# Each plan method's public selector, spelled out apart from the scheduler's table.
_REFERENCE_SELECTORS = {"dp": select_devices_dp, "no_ds": select_devices_no_ds,
                        "oracle": select_devices_oracle}


budget_ulps = st.sampled_from([0, 1, 2, 64])


def _ulps_above(value, count):
    for _ in range(count):
        value = math.nextafter(value, math.inf)
    return value


@settings(max_examples=60, deadline=None)
@given(
    world=st.integers(min_value=0, max_value=10**6),
    n_devices=st.integers(min_value=2, max_value=12),
    per_stage_prob=st.floats(min_value=0.5, max_value=0.95),
    rng_seed=st.integers(min_value=0, max_value=10**6),
    t_ulps=budget_ulps,
    e_ulps=budget_ulps,
    method=st.sampled_from(sorted(_REFERENCE_SELECTORS)),
)
def test_recovery_stays_within_budgets_near_exhaustion(
    world, n_devices, per_stage_prob, rng_seed, t_ulps, e_ulps, method
):
    # Budgets at or a few ulps above the plan's own totals leave re-plans
    # residual budgets near zero, where a 1-ulp fsum split would show.
    scenario = generate_scenario(n_devices, seed=world)
    plan = _REFERENCE_SELECTORS[method](scenario, Budgets(3.0, 300.0))
    budgets = Budgets(_ulps_above(plan.t_total_s, t_ulps), _ulps_above(plan.e_total_j, e_ulps))
    failures = FailureSpec(per_stage_prob=per_stage_prob, rng_seed=rng_seed)
    try:
        trace = simulate_pipeline(scenario, plan, failures, budgets=budgets)
    except RecoveryInfeasible as exc:
        assert exc.trace is not None and exc.trace.completed is False
        return
    assert trace.completed and trace.feasible
    assert trace.t_total_s <= budgets.t_max_s
    assert trace.e_total_j <= budgets.e_max_j


def test_timeline_accounts_by_kind_and_keeps_nonzero_energy():
    timeline = Timeline()
    timeline.emit("download", 0, 0.5, 8, 0.25)
    timeline.emit("compute", 0, 0.25, 1, 2.0)
    timeline.emit("checkpoint", 0, 0.0, 8)
    timeline.emit("upload", 0, 0.125, 8, 0.0, 0.125)
    spent = timeline.totals()
    assert (spent.t_total_s, spent.e_total_j) == (0.875, 2.375)
    trace = timeline.trace(1, 0, True, Budgets(0.875, 2.375), "dp")
    assert [e.t_start_s for e in trace.events] == [0.0, 0.5, 0.75, 0.75]
    assert (trace.t_tran_s, trace.t_cmp_s, trace.t_total_s) == (0.625, 0.25, 0.875)
    assert (trace.e_total_j, trace.feasible, trace.completed) == (2.375, True, True)
    assert not timeline.trace(1, 0, True, Budgets(0.875, 2.25), "dp").feasible


def _reference_run(scenario, plan, failures):
    """The recovery rule, spelled out: after each failure, the public selector
    of ``plan.method`` plans the residual budgets on a copy of the scenario
    whose used and failed devices are marked unavailable (DP on its default
    grid). Returns the trace and whether the run completed."""

    rng = np.random.default_rng(failures.rng_seed)
    timeline = Timeline()
    retired, stages_completed, replans = set(), 0, 0
    queue = list(plan.stages)
    while queue:
        dev_id, cost = queue.pop(0)
        fail_phase = None
        if rng.random() < failures.per_stage_prob:
            fail_phase = STAGE_PHASES[int(rng.integers(0, len(STAGE_PHASES)))]
        phases = (
            ("download", cost.t_down_s, cost.e_down_j, scenario.latent_bytes),
            ("compute", cost.t_cmp_s, cost.e_cmp_j, scenario.steps_per_stage),
            ("upload", cost.t_up_s, cost.e_up_j, scenario.latent_bytes),
        )
        for kind, duration, energy, amount in phases:
            timeline.emit(kind, dev_id, duration, amount, energy)
            if kind == fail_phase:
                break
        retired.add(dev_id)
        if fail_phase is None:
            timeline.emit("checkpoint", dev_id, 0.0, scenario.latent_bytes)
            stages_completed += 1
            continue
        timeline.emit("failure", dev_id, 0.0, 0)
        spent = timeline.totals()
        residual = Budgets(max(plan.budgets.t_max_s - spent.t_total_s, 0.0),
                           max(plan.budgets.e_max_j - spent.e_total_j, 0.0))
        select = _REFERENCE_SELECTORS[plan.method]
        queue = list(select(mark_unavailable(scenario, retired), residual).stages)
        replans += 1
        timeline.emit("replan", None, 0.0, 0)
        if not queue:
            return timeline.trace(stages_completed, replans, False, plan.budgets, plan.method), False
    return timeline.trace(stages_completed, replans, True, plan.budgets, plan.method), True


def _churn_worlds():
    """Seeded fleets, some with devices unavailable from the start, some with rate overrides."""

    for seed in range(4):
        scenario = generate_scenario(12 + 4 * seed, seed=seed)
        yield f"plain-{seed}", scenario
        yield f"unavailable-{seed}", mark_unavailable(scenario, {seed, seed + 5, seed + 9})
        overrides = {dev_id: (2.0 ** (20 + dev_id % 4), 2.0 ** (21 + dev_id % 3))
                     for dev_id in range(seed, len(scenario.devices), 3)}
        link = dataclasses.replace(scenario.link, rate_override_bps=overrides)
        yield f"overrides-{seed}", dataclasses.replace(scenario, link=link)


@pytest.mark.parametrize("name, scenario", list(_churn_worlds()))
def test_recovery_replans_as_the_reference_rule(name, scenario):
    # Every method's run re-plans with that method.
    for method, select in _REFERENCE_SELECTORS.items():
        plan = select(scenario, Budgets(3.0, 300.0))
        # Alone among these plans, no_ds's is empty on overrides-0: its first
        # device misses the budgets.
        assert plan.method == method
        assert bool(plan.stages) is not ((name, method) == ("overrides-0", "no_ds"))
        replans = 0
        for rng_seed in range(25):
            failures = FailureSpec(per_stage_prob=0.4, rng_seed=rng_seed)
            expected, completed = _reference_run(scenario, plan, failures)
            if completed:
                assert simulate_pipeline(scenario, plan, failures) == expected
            else:
                with pytest.raises(RecoveryInfeasible) as info:
                    simulate_pipeline(scenario, plan, failures)
                assert info.value.trace == expected
            replans += expected.replans
        assert replans > 0 or not plan.stages


_NOT_GIVEN = object()


_EVENT_FIELD_CASES = [
    ("t_start_s", "0.0", "expected a number, got '0.0'"),
    ("t_start_s", None, "expected a number, got None"),
    ("t_start_s", _NOT_GIVEN, "missing required field"),
    ("t_end_s", "x", "expected a number, got 'x'"),
    ("t_end_s", True, "expected a number, got True"),
    ("t_end_s", _NOT_GIVEN, "missing required field"),
    ("kind", 5, "expected a string, got int"),
    ("kind", _NOT_GIVEN, "missing required field"),
    ("device_id", 1.0, "expected an integer or null"),
    ("device_id", "1", "expected an integer or null"),
    ("amount", 2.7, "expected an integer, got 2.7"),
    ("amount", "x", "expected an integer, got 'x'"),
    ("amount", None, "expected an integer, got None"),
    ("amount", True, "expected an integer, got True"),
    ("amount", _NOT_GIVEN, "missing required field"),
]


@pytest.mark.parametrize("name, value, message", [
    pytest.param(*case, id=f"{case[0]}-{'missing' if case[1] is _NOT_GIVEN else repr(case[1])}")
    for case in _EVENT_FIELD_CASES
])
def test_trace_event_fields_keep_their_types(recovery_scenario, recovery_budgets, name, value,
                                            message):
    data = trace_to_dict(_recovered_trace(recovery_scenario, recovery_budgets))
    if value is _NOT_GIVEN:
        del data["events"][1][name]
    else:
        data["events"][1][name] = value
    with pytest.raises(ValidationError) as info:
        trace_from_dict(data)
    assert str(info.value) == f"trace.events[1].{name}: {message}"


def test_trace_file_is_compact_sorted_json_and_indented_files_load(tmp_path, recovery_scenario,
                                                                   recovery_budgets):
    trace = _recovered_trace(recovery_scenario, recovery_budgets)
    path = tmp_path / "trace.json"
    save_trace(trace, path)
    text = path.read_text()
    assert text == json.dumps(trace_to_dict(trace), sort_keys=True, separators=(",", ":")) + "\n"
    assert load_trace(path) == trace
    path.write_text(json.dumps(trace_to_dict(trace), indent=2, sort_keys=True) + "\n")
    assert load_trace(path) == trace


def test_a_plan_stage_on_an_unavailable_device_is_rejected(recovery_scenario, recovery_budgets):
    plan = select_devices_dp(recovery_scenario, recovery_budgets)
    assert plan.device_ids == (0, 1)
    with pytest.raises(ValidationError) as info:
        simulate_pipeline(mark_unavailable(recovery_scenario, {1}), plan)
    assert str(info.value) == (
        "plan stage of device 1: the scenario marks the device unavailable; "
        "was the plan made for another scenario?"
    )
    with pytest.raises(ConfigurationError, match="no device with id 7"):
        simulate_pipeline(recovery_scenario, dataclasses.replace(
            plan, stages=((7, plan.stages[0][1]),), objective_bytes=0))


def test_a_failure_free_run_fills_the_fleet_costs_memo(default_scenario):
    # Checking a plan's stages takes the whole fleet's costs, so one run on a
    # fresh scenario leaves them on it, and every later run shares them.
    plan = select_devices_dp(default_scenario, Budgets(3.0, 300.0))
    scenario = dataclasses.replace(default_scenario)
    assert "_fleet" not in vars(scenario)
    trace = simulate_pipeline(scenario, plan)
    assert trace.completed and not trace.replans
    fleet = vars(scenario)["_fleet"]
    assert fleet is fleet_costs(scenario)
    assert simulate_pipeline(scenario, plan) == trace == simulate_pipeline(default_scenario, plan)
    assert vars(scenario)["_fleet"] is fleet


def test_traces_of_a_forty_device_world_round_trip_exactly(tmp_path):
    # The loader keeps the stored time sums; recomputing them from
    # t_end_s - t_start_s moved almost every long run by an ulp.
    scenario = generate_scenario(40, (500.0, 500.0), seed=1)
    plan = select_devices_dp(scenario, Budgets(3.0, 300.0))
    path = tmp_path / "trace.json"
    specs = [NO_FAILURES] + [FailureSpec(per_stage_prob=0.3, rng_seed=seed) for seed in range(200)]
    replans = 0
    for failures in specs:
        try:
            trace = simulate_pipeline(scenario, plan, failures)
        except RecoveryInfeasible as exc:
            trace = exc.trace
        save_trace(trace, path)
        assert load_trace(path) == trace
        replans += trace.replans
    assert replans > 100
