"""Budget sweeps: row cardinality, ordering, CSV stability, trend columns."""

import csv
import dataclasses
import io

import pytest

from relaydiff import (
    NO_FAILURES,
    Budgets,
    ConfigurationError,
    SweepSpec,
    ValidationError,
    generate_scenario,
    mark_unavailable,
    pick_split_pair,
    run_sweep,
    select_devices_dp,
    select_devices_no_ds,
    select_devices_oracle,
    simulate_pipeline,
    trace_summary,
)
from relaydiff import sweep
from relaydiff.sweep import CSV_COLUMNS, rows_to_csv


@pytest.fixture(scope="module")
def small_scenario():
    return generate_scenario(8, seed=3)


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_grid_cardinality(small_scenario):
    spec = SweepSpec(t_max_grid=(1.0, 2.0), e_max_grid=(200.0,), methods=("dp", "no_ds", "split"))
    rows = run_sweep(spec, scenario=small_scenario)
    assert len(rows) == 6
    assert all(set(row) >= set(CSV_COLUMNS) for row in rows)


def test_rows_are_sorted(small_scenario):
    spec = SweepSpec(t_max_grid=(0.5, 1.0, 2.0), e_max_grid=(100.0, 200.0), methods=("no_ds", "dp"))
    rows = run_sweep(spec, scenario=small_scenario)
    keys = [(r["t_max_s"], r["e_max_j"], r["method"], r["seed"]) for r in rows]
    assert keys == sorted(keys)


def test_csv_layout_and_formatting(small_scenario):
    spec = SweepSpec(t_max_grid=(1.0, 2.0), e_max_grid=(200.0,), methods=("dp", "split"))
    text = rows_to_csv(run_sweep(spec, scenario=small_scenario))
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 4
    assert text.endswith("\n")
    for record in parse_csv(text):
        assert record["feasible"] in ("true", "false")
        assert record["method"] in ("dp", "split")
        # 6 significant digits mean no cell carries a longer mantissa
        for column in ("t_total_s", "e_total_j", "tran_fraction", "quality_norm"):
            digits = record[column].replace(".", "").replace("-", "").lstrip("0")
            assert len(digits.split("e")[0]) <= 6


def test_sweep_is_byte_stable(small_scenario):
    spec = SweepSpec(t_max_grid=(1.0, 2.0), e_max_grid=(100.0, 200.0))
    first = rows_to_csv(run_sweep(spec, scenario=small_scenario))
    second = rows_to_csv(run_sweep(spec, scenario=small_scenario))
    assert first == second


def test_dp_quality_non_decreasing_along_t_max(small_scenario):
    spec = SweepSpec(t_max_grid=(0.5, 1.0, 1.5, 2.0, 2.5, 3.0), e_max_grid=(200.0,), methods=("dp",))
    rows = run_sweep(spec, scenario=small_scenario)
    qualities = [row["quality_norm"] for row in rows]
    assert qualities == sorted(qualities)
    assert qualities[-1] > 0.0


@pytest.mark.parametrize("world", [
    generate_scenario(8, seed=3),
    mark_unavailable(generate_scenario(10, seed=5), {1, 4, 6}),
    generate_scenario(12, seed=11),
], ids=["8-devices", "3-of-10-unavailable", "12-devices"])
def test_pipeline_rows_equal_a_failure_free_simulation(world):
    selectors = {"dp": select_devices_dp, "no_ds": select_devices_no_ds,
                 "oracle": select_devices_oracle}
    rows = run_sweep(SweepSpec(methods=tuple(selectors)), scenario=world)
    assert len(rows) == 36 * 3
    for row in rows:
        budgets = Budgets(row["t_max_s"], row["e_max_j"])
        plan = selectors[row["method"]](world, budgets)
        summary = trace_summary(simulate_pipeline(world, plan, NO_FAILURES, budgets))
        columns = [name for name in summary if name in CSV_COLUMNS and name != "method"]
        assert [row[name] for name in columns] == [summary[name] for name in columns], row
    assert {row["feasible"] for row in rows} == {True}
    assert {row["n_stages"] for row in rows} != {0}


def test_split_rows_have_two_stages(small_scenario):
    spec = SweepSpec(t_max_grid=(2.0,), e_max_grid=(200.0,), methods=("split",))
    (row,) = run_sweep(spec, scenario=small_scenario)
    assert row["n_stages"] == 2
    assert row["objective_bytes"] > 0
    assert row["replans"] == 0


def test_split_pair_is_picked_once_per_world(monkeypatch):
    calls = []

    def counting_pick(scenario, n_steps=None):
        calls.append(scenario.seed)
        return pick_split_pair(scenario, n_steps)

    monkeypatch.setattr(sweep, "pick_split_pair", counting_pick)
    spec = SweepSpec(
        t_max_grid=(1.0, 2.0, 3.0), e_max_grid=(100.0, 200.0), methods=("dp", "split"),
        repetitions=2,
    )
    rows = run_sweep(spec, n_devices=6, base_seed=7)
    assert len(rows) == 2 * 6 * 2
    # One pick per world, whatever the step counts of its twelve split rows.
    assert calls == [7, 8]
    assert len({row["n_stages"] for row in rows if row["method"] == "dp"}) > 1


def test_failing_cells_become_infeasible_rows():
    # the oracle guard trips on 26 devices; the sweep must keep going
    big = generate_scenario(26, seed=0)
    spec = SweepSpec(t_max_grid=(1.0, 2.0), e_max_grid=(200.0,), methods=("dp", "oracle"))
    rows = run_sweep(spec, scenario=big)
    assert len(rows) == 4
    oracle_rows = [r for r in rows if r["method"] == "oracle"]
    assert oracle_rows and all(r["feasible"] is False for r in oracle_rows)
    assert all(r["feasible"] is True for r in rows if r["method"] == "dp")


def test_a_failing_split_pick_makes_infeasible_split_rows():
    # The pick overflows on these features; the DP plan moves latents only.
    world = dataclasses.replace(generate_scenario(6, seed=3), feature_bytes=10**308)
    with pytest.raises(ConfigurationError, match="overflows"):
        pick_split_pair(world)
    spec = SweepSpec(t_max_grid=(2.0,), e_max_grid=(200.0,), methods=("dp", "split"))
    dp_row, split_row = run_sweep(spec, scenario=world)
    assert dp_row == run_sweep(dataclasses.replace(spec, methods=("dp",)), scenario=world)[0]
    assert dp_row["feasible"] is True and dp_row["n_stages"] == 3
    assert split_row["method"] == "split" and split_row["feasible"] is False
    assert split_row["objective_bytes"] == 0


def test_a_world_without_a_pair_keeps_idle_split_rows():
    lonely = mark_unavailable(generate_scenario(6, seed=3), {0, 1, 2, 3, 4})
    spec = SweepSpec(t_max_grid=(2.0,), e_max_grid=(200.0,), methods=("dp", "split"))
    dp_row, split_row = run_sweep(spec, scenario=lonely)
    assert dp_row["n_stages"] == 1
    assert split_row["feasible"] is True and split_row["n_stages"] == 0


def test_repetitions_generate_distinct_seeds():
    spec = SweepSpec(t_max_grid=(2.0,), e_max_grid=(200.0,), methods=("dp",), repetitions=3)
    rows = run_sweep(spec, n_devices=5, base_seed=10)
    assert sorted(row["seed"] for row in rows) == [10, 11, 12]


def test_fixed_scenario_forbids_repetitions(small_scenario):
    spec = SweepSpec(t_max_grid=(2.0,), e_max_grid=(200.0,), repetitions=2)
    with pytest.raises(ConfigurationError, match="repetitions"):
        run_sweep(spec, scenario=small_scenario)


def test_sweep_spec_validation():
    with pytest.raises(ValidationError, match="t_max_grid"):
        SweepSpec(t_max_grid=())
    with pytest.raises(ValidationError, match="e_max_grid"):
        SweepSpec(e_max_grid=(200.0, 100.0))
    with pytest.raises(ValidationError, match="methods"):
        SweepSpec(methods=("dp", "dp"))
    with pytest.raises(ValidationError, match="methods"):
        SweepSpec(methods=("simulated_annealing",))
    with pytest.raises(ValidationError, match="repetitions"):
        SweepSpec(repetitions=0)
