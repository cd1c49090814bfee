"""End-to-end command-line workflows and exit codes.

All commands run in-process through main(argv). Exit codes: 0 success,
2 usage (argparse raises SystemExit), 3 validation/configuration,
4 infeasible recovery.
"""

import dataclasses
import json
import time

import pytest

from relaydiff import (
    generate_scenario,
    load_plan,
    load_scenario,
    load_trace,
    mark_unavailable,
    save_scenario,
)
from relaydiff.cli import EXIT_OK, EXIT_RECOVERY, EXIT_USAGE, EXIT_VALIDATION, main


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A scenario and a dp plan shared by the command tests below."""

    path = tmp_path_factory.mktemp("cli")
    assert main([
        "gen-scenario", "--devices", "20", "--area", "500", "--seed", "42",
        "-o", str(path / "s.json"),
    ]) == EXIT_OK
    assert main([
        "schedule", "-s", str(path / "s.json"), "--t-max", "2.0", "--e-max", "200",
        "--method", "dp", "-o", str(path / "plan.json"),
    ]) == EXIT_OK
    return path


def test_gen_scenario_writes_the_described_file(workdir):
    scenario = load_scenario(workdir / "s.json")
    assert len(scenario.devices) == 20
    assert scenario.area_m == (500.0, 500.0)
    assert scenario.seed == 42


def test_gen_scenario_rerun_is_identical(workdir, tmp_path):
    args = ["gen-scenario", "--devices", "20", "--area", "500", "--seed", "42", "-o"]
    assert main(args + [str(tmp_path / "again.json")]) == EXIT_OK
    assert (tmp_path / "again.json").read_bytes() == (workdir / "s.json").read_bytes()


def test_gen_scenario_zero_devices_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["gen-scenario", "--devices", "0", "-o", str(tmp_path / "s.json")])
    assert excinfo.value.code == EXIT_USAGE


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == EXIT_USAGE


def test_schedule_emits_a_feasible_plan(workdir, capsys):
    plan = load_plan(workdir / "plan.json")
    assert plan.method == "dp"
    assert plan.t_total_s <= 2.0 and plan.e_total_j <= 200.0
    assert plan.n_stages >= 1


def test_schedule_zero_budget_is_an_empty_plan_not_an_error(workdir, tmp_path):
    out = tmp_path / "empty.json"
    code = main([
        "schedule", "-s", str(workdir / "s.json"), "--t-max", "0", "--e-max", "200",
        "-o", str(out),
    ])
    assert code == EXIT_OK
    assert load_plan(out).stages == ()


@pytest.mark.parametrize("budgets", [["5e-324", "200"], ["2.0", "5e-324"]], ids=["time", "energy"])
def test_schedule_subnormal_budget_is_an_empty_plan_not_an_error(workdir, tmp_path, capsys, budgets):
    # A budget over the default 200 units underflows to a 0.0 unit, which
    # the default grid replaces with 1.0 as for a zero budget.
    out = tmp_path / "empty.json"
    t_max, e_max = budgets
    code = main(["schedule", "-s", str(workdir / "s.json"), "--t-max", t_max, "--e-max", e_max,
                 "-o", str(out)])
    assert code == EXIT_OK, capsys.readouterr().err
    assert load_plan(out).stages == ()


def test_schedule_dt_requires_de(workdir, tmp_path):
    code = main([
        "schedule", "-s", str(workdir / "s.json"), "--t-max", "2.0", "--e-max", "200",
        "--dt", "0.01", "-o", str(tmp_path / "p.json"),
    ])
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("method", ["no_ds", "oracle"])
def test_schedule_grid_applies_to_dp_only(workdir, tmp_path, capsys, method):
    out = tmp_path / "p.json"
    code = main([
        "schedule", "--method", method, "-s", str(workdir / "s.json"), "--t-max", "2.0",
        "--e-max", "200", "--dt", "0.01", "--de", "1", "-o", str(out),
    ])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: --dt and --de apply to --method dp only\n"
    assert not out.exists()


def test_the_oracle_subcommand_is_gone(workdir, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["oracle", "-s", str(workdir / "s.json"), "--t-max", "2.0", "--e-max", "200",
              "-o", str(tmp_path / "oracle.json")])
    assert excinfo.value.code == EXIT_USAGE


def test_oracle_bounded_on_twenty_devices(workdir, tmp_path):
    # Up to 2^20 subsets, walked depth first; documented as well under a second
    started = time.perf_counter()
    code = main([
        "schedule", "--method", "oracle", "-s", str(workdir / "s.json"), "--t-max", "2.0",
        "--e-max", "200", "-o", str(tmp_path / "oracle.json"),
    ])
    elapsed = time.perf_counter() - started
    assert code == EXIT_OK
    assert elapsed < 60.0
    oracle_plan = load_plan(tmp_path / "oracle.json")
    dp_plan = load_plan(workdir / "plan.json")
    assert oracle_plan.objective_bytes >= dp_plan.objective_bytes


def test_simulate_failure_free_summary(workdir, tmp_path, capsys):
    out = tmp_path / "trace.json"
    code = main([
        "simulate", "-s", str(workdir / "s.json"), "-p", str(workdir / "plan.json"),
        "-o", str(out),
    ])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["t_total_s"] <= 2.0
    assert summary["feasible"] is True and summary["completed"] is True
    trace = load_trace(out)
    assert trace.replans == 0


def test_simulate_injected_failure_recovers(workdir, tmp_path, capsys):
    out = tmp_path / "failed.json"
    code = main([
        "simulate", "-s", str(workdir / "s.json"), "-p", str(workdir / "plan.json"),
        "--fail", "3:compute", "-o", str(out),
    ])
    assert code == EXIT_OK
    trace = load_trace(out)
    kinds = [e.kind for e in trace.events]
    assert "failure" in kinds and "replan" in kinds
    assert trace.replans == 1
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["replans"] == 1


def test_simulate_unrecoverable_failure_exits_4_with_partial_trace(workdir, tmp_path):
    # device 17 runs last in this plan; losing its compute leaves no headroom
    out = tmp_path / "partial.json"
    code = main([
        "simulate", "-s", str(workdir / "s.json"), "-p", str(workdir / "plan.json"),
        "--fail", "17:compute", "-o", str(out),
    ])
    assert code == EXIT_RECOVERY
    trace = load_trace(out)
    assert not trace.completed
    assert trace.replans == 1


def test_simulate_bad_fail_spec_is_a_usage_error(workdir):
    with pytest.raises(SystemExit) as excinfo:
        main([
            "simulate", "-s", str(workdir / "s.json"), "-p", str(workdir / "plan.json"),
            "--fail", "3compute",
        ])
    assert excinfo.value.code == EXIT_USAGE


def test_simulate_csv_summary_format(workdir, capsys):
    code = main([
        "simulate", "-s", str(workdir / "s.json"), "-p", str(workdir / "plan.json"),
        "--format", "csv",
    ])
    assert code == EXIT_OK
    header, row = capsys.readouterr().out.strip().splitlines()[-2:]
    assert header.split(",")[0] == "method"
    assert row.split(",")[0] == "dp"


def test_split_ten_steps_make_twenty_transfers(workdir, tmp_path, capsys):
    out = tmp_path / "split.json"
    code = main([
        "split", "-s", str(workdir / "s.json"), "--steps", "10", "-o", str(out),
    ])
    assert code == EXIT_OK
    trace = load_trace(out)
    transfers = [e for e in trace.events if e.kind in ("download", "upload")]
    assert len(transfers) == 20
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["method"] == "split"


def test_split_rejects_bad_fraction(workdir):
    code = main(["split", "-s", str(workdir / "s.json"), "--phi", "1.5"])
    assert code == EXIT_VALIDATION


def test_split_needs_both_devices(workdir):
    code = main(["split", "-s", str(workdir / "s.json"), "--device-a", "0"])
    assert code == EXIT_VALIDATION


def test_split_on_an_unavailable_device_is_a_validation_error(tmp_path, capsys):
    path = tmp_path / "marked.json"
    save_scenario(mark_unavailable(generate_scenario(6, seed=3), {1}), path)
    code = main(["split", "-s", str(path), "--device-a", "1", "--device-b", "2"])
    assert code == EXIT_VALIDATION
    assert "split device 1: the scenario marks the device unavailable" in capsys.readouterr().err
    assert main(["split", "-s", str(path), "--device-a", "0", "--device-b", "2"]) == EXIT_OK


def test_sweep_writes_sorted_deterministic_csv(workdir, tmp_path, capsys):
    args = [
        "sweep", "-s", str(workdir / "s.json"), "--t-grid", "1.0,2.0",
        "--e-grid", "200", "--methods", "dp,no_ds,split",
    ]
    assert main(args + ["-o", str(tmp_path / "a.csv")]) == EXIT_OK
    assert main(args + ["-o", str(tmp_path / "b.csv")]) == EXIT_OK
    first = (tmp_path / "a.csv").read_bytes()
    assert first == (tmp_path / "b.csv").read_bytes()
    lines = first.decode().splitlines()
    assert len(lines) == 1 + 6
    assert lines[0].startswith("t_max_s,e_max_j,method,seed,")


def test_sweep_json_format(workdir, tmp_path):
    code = main([
        "sweep", "-s", str(workdir / "s.json"), "--t-grid", "2.0", "--e-grid", "200",
        "--methods", "dp", "--format", "json", "-o", str(tmp_path / "rows.json"),
    ])
    assert code == EXIT_OK
    rows = json.loads((tmp_path / "rows.json").read_text())
    assert len(rows) == 1 and rows[0]["method"] == "dp"


def test_sweep_zero_devices_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--devices", "0", "-o", str(tmp_path / "x.csv")])
    assert excinfo.value.code == EXIT_USAGE


def test_gen_scenario_negative_seed_is_a_validation_error(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert main(["gen-scenario", "--seed", "-1", "-o", str(out)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_sweep_negative_seed_is_a_validation_error(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main(["sweep", "--devices", "5", "--seed", "-1", "--t-grid", "2",
                 "--e-grid", "200", "-o", str(out)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("fail_prob", [[], ["--fail-prob", "0.3"]], ids=["no-prob", "prob"])
def test_simulate_negative_fail_seed_is_a_validation_error(workdir, tmp_path, capsys, fail_prob):
    out = tmp_path / "trace.json"
    code = main([
        "simulate", "-s", str(workdir / "s.json"), "-p", str(workdir / "plan.json"),
        "--fail-seed", "-1", *fail_prob, "-o", str(out),
    ])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: failures.rng_seed: must be a non-negative integer, got -1\n"
    )
    assert not out.exists()


def test_missing_scenario_file_is_a_validation_error(tmp_path):
    code = main([
        "schedule", "-s", str(tmp_path / "missing.json"), "--t-max", "2", "--e-max", "200",
        "-o", str(tmp_path / "p.json"),
    ])
    assert code == EXIT_VALIDATION


def test_directory_as_output_file_is_a_validation_error(tmp_path, capsys):
    code = main(["gen-scenario", "--devices", "5", "-o", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")


def test_directory_as_scenario_file_is_a_validation_error(tmp_path, capsys):
    code = main([
        "schedule", "-s", str(tmp_path), "--t-max", "2", "--e-max", "200",
        "-o", str(tmp_path / "p.json"),
    ])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")


def test_main_reuses_one_parser_without_carrying_arguments_over(workdir, tmp_path, monkeypatch):
    from relaydiff import cli

    injected = []
    real_simulate = cli.simulate_pipeline

    def recording_simulate(scenario, plan, failures, budgets):
        injected.append(failures.injected)
        return real_simulate(scenario, plan, failures, budgets)

    monkeypatch.setattr(cli, "simulate_pipeline", recording_simulate)
    common = ["simulate", "-s", str(workdir / "s.json"), "-p", str(workdir / "plan.json")]
    assert main(common + ["--fail", "3:compute", "-o", str(tmp_path / "a.json")]) == EXIT_OK
    assert main(common + ["-o", str(tmp_path / "b.json")]) == EXIT_OK
    assert injected == [((3, "compute"),), ()]
    assert load_trace(tmp_path / "a.json").replans == 1
    assert load_trace(tmp_path / "b.json").replans == 0
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


def test_simulate_plan_from_another_scenario_is_a_validation_error(workdir, tmp_path, capsys):
    assert main([
        "gen-scenario", "--devices", "20", "--area", "500", "--seed", "43",
        "-o", str(tmp_path / "other.json"),
    ]) == EXIT_OK
    code = main([
        "simulate", "-s", str(tmp_path / "other.json"), "-p", str(workdir / "plan.json"),
    ])
    assert code == EXIT_VALIDATION
    assert "another scenario" in capsys.readouterr().err


def test_simulate_a_plan_on_a_device_marked_unavailable_exits_3(workdir, tmp_path, capsys):
    data = json.loads((workdir / "s.json").read_text())
    dev_id = load_plan(workdir / "plan.json").device_ids[-1]
    data["devices"][dev_id]["available"] = False
    (tmp_path / "s.json").write_text(json.dumps(data))
    code = main(["simulate", "-s", str(tmp_path / "s.json"), "-p", str(workdir / "plan.json")])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: plan stage of device {dev_id}: the scenario marks the device unavailable; "
        "was the plan made for another scenario?\n"
    )


def test_simulate_a_plan_with_a_changed_objective_exits_3(workdir, tmp_path, capsys):
    data = json.loads((workdir / "plan.json").read_text())
    data["objective_bytes"] += 1
    (tmp_path / "p.json").write_text(json.dumps(data))
    out = tmp_path / "trace.json"
    code = main(["simulate", "-s", str(workdir / "s.json"), "-p", str(tmp_path / "p.json"),
                 "-o", str(out)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: plan.objective_bytes: {data['objective_bytes']} disagrees")
    assert err.endswith("was the plan made for another scenario?\n")
    assert not out.exists()


def test_simulate_a_plan_that_misses_its_own_budgets_exits_3(workdir, tmp_path, capsys):
    assert main(["schedule", "-s", str(workdir / "s.json"), "--t-max", "3.0", "--e-max", "300",
                 "-o", str(tmp_path / "p.json")]) == EXIT_OK
    plan = load_plan(tmp_path / "p.json")
    assert plan.t_total_s > 1
    data = json.loads((tmp_path / "p.json").read_text())
    data["budgets"]["t_max_s"] = 1
    (tmp_path / "p.json").write_text(json.dumps(data))
    expected = (f"error: plan.budgets: the stage costs' totals (t_total_s {plan.t_total_s}, "
                f"e_total_j {plan.e_total_j}) do not fit t_max_s 1.0, e_max_j 300.0\n")
    # Budget overrides judge the run; the plan is checked against its own budgets.
    for overrides in ([], ["--t-max", "5"]):
        out = tmp_path / "trace.json"
        code = main(["simulate", "-s", str(workdir / "s.json"), "-p", str(tmp_path / "p.json"),
                     *overrides, "-o", str(out)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == expected
        assert not out.exists()


def test_a_tampered_oracle_plan_on_forty_devices_exits_3_at_its_first_replan(tmp_path, capsys):
    # Only an edited file can claim the oracle on a fleet over its guard; a
    # run re-plans with the plan's own method, so the guard refuses there.
    world, plan = tmp_path / "s.json", tmp_path / "p.json"
    assert main(["gen-scenario", "-n", "40", "--seed", "1", "-o", str(world)]) == EXIT_OK
    assert main(["schedule", "-s", str(world), "--t-max", "3", "--e-max", "300",
                 "-o", str(plan)]) == EXIT_OK
    data = json.loads(plan.read_text())
    data.update(method="oracle", discretization=None)
    plan.write_text(json.dumps(data))
    first = data["stages"][0]["device_id"]
    assert main(["simulate", "-s", str(world), "-p", str(plan)]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "trace.json"
    code = main(["simulate", "-s", str(world), "-p", str(plan), "--fail", f"{first}:compute",
                 "-o", str(out)])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: oracle enumeration over 39 devices exceeds the 25-device guard\n")
    assert not out.exists()


@pytest.fixture(scope="module")
def silent_world(tmp_path_factory):
    """A world so wide that every device's link rate underflows to 0 bit/s."""

    path = tmp_path_factory.mktemp("silent") / "s.json"
    assert main(["gen-scenario", "-n", "5", "--area", "1e12", "-o", str(path)]) == EXIT_OK
    return path


@pytest.mark.parametrize("command", [
    ["split"],
    ["sweep", "-o", "rows.csv"],
    ["sweep", "--methods", "dp,no_ds", "-o", "rows.csv"],
    ["schedule", "--t-max", "3", "--e-max", "300", "-o", "p.json"],
    ["schedule", "--method", "no_ds", "--t-max", "3", "--e-max", "300", "-o", "p.json"],
    ["schedule", "--method", "oracle", "--t-max", "3", "--e-max", "300", "-o", "p.json"],
], ids=["split", "sweep", "sweep-dp-no_ds", "schedule", "no_ds", "oracle"])
def test_zero_link_rate_exits_3_naming_the_device(silent_world, tmp_path, monkeypatch, capsys,
                                                  command):
    monkeypatch.chdir(tmp_path)
    code = main([command[0], "-s", str(silent_world), *command[1:]])
    assert code == EXIT_VALIDATION
    assert "underflows to 0 bit/s" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_simulate_refuses_a_world_whose_non_plan_device_cannot_be_costed(workdir, tmp_path, capsys):
    # The plan's own stages still check out; the far device is only in the
    # pool a re-plan would draw on, and the world is refused as schedule
    # and sweep refuse it.
    scenario = load_scenario(workdir / "s.json")
    far = min(set(range(len(scenario.devices))) - set(load_plan(workdir / "plan.json").device_ids))
    save_scenario(dataclasses.replace(scenario, area_m=(2e12, 2e12), devices=tuple(
        dataclasses.replace(dev, pos_m=(1e12, 1e12)) if dev.id == far else dev
        for dev in scenario.devices
    )), tmp_path / "s.json")
    out = tmp_path / "trace.json"
    code = main(["simulate", "-s", str(tmp_path / "s.json"), "-p", str(workdir / "plan.json"),
                 "-o", str(out)])
    assert code == EXIT_VALIDATION
    assert f"device {far}: the link rate underflows to 0 bit/s" in capsys.readouterr().err
    assert not out.exists()


def test_a_capacity_past_the_float_range_exits_3(workdir, tmp_path, capsys):
    # 1e300 s in units of 1e-300 s is more units than a float holds.
    code = main([
        "schedule", "-s", str(workdir / "s.json"), "--t-max", "1e300", "--e-max", "300",
        "--dt", "1e-300", "--de", "1", "-o", str(tmp_path / "p.json"),
    ])
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: a budget of 1e+300 overflows units of 1e-300; coarsen the discretization\n"
    )
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize("budgets", [
    ["--t-max", "1e9", "--e-max", "1e9", "--dt", "1e-3", "--de", "1e-3"],
    ["--t-max", "1e300", "--e-max", "300", "--dt", "1", "--de", "1"],
], ids=["fine-grid", "huge-time-budget"])
def test_a_fleet_that_fits_both_budgets_plans_every_device(tmp_path, capsys, budgets):
    # Every device fits both budgets, so both capacity axes are dropped and
    # the DP fills bit layers of one cost row; with the time axis kept its
    # table would have 10**12 + 1 or about 10**300 cells and be refused.
    world, plan_path = tmp_path / "w.json", tmp_path / "p.json"
    assert main(["gen-scenario", "-n", "40", "--seed", "1", "-o", str(world)]) == EXIT_OK
    assert main(["schedule", "-s", str(world), *budgets, "-o", str(plan_path)]) == EXIT_OK
    assert load_plan(plan_path).device_ids == tuple(range(40))
    assert "error" not in capsys.readouterr().err
