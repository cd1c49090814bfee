"""Structural quality proxy over schedule plans."""

import pytest

from relaydiff import (
    Budgets,
    ConfigurationError,
    SchedulePlan,
    quality,
    select_devices_dp,
    select_devices_no_ds,
)
from relaydiff.cost_model import StageCost


def test_fixture_plan_scores_seven_ninths(three_device_scenario, fixture_budgets, fixture_disc):
    plan = select_devices_dp(three_device_scenario, fixture_budgets, fixture_disc)
    score = quality(plan, three_device_scenario)
    assert score.objective_bytes == 7_000_000_000
    assert score.normalized == 7 / 9


def test_selecting_everything_scores_one(three_device_scenario):
    plan = select_devices_no_ds(three_device_scenario, Budgets(100.0, 10000.0))
    assert plan.n_stages == 3
    assert quality(plan, three_device_scenario).normalized == 1.0


def test_empty_plan_scores_zero(three_device_scenario):
    plan = select_devices_dp(three_device_scenario, Budgets(0.0, 0.0))
    score = quality(plan, three_device_scenario)
    assert (score.objective_bytes, score.normalized) == (0, 0.0)


def test_dp_beats_no_ds_strictly_on_fixture(three_device_scenario, fixture_budgets, fixture_disc):
    dp = quality(
        select_devices_dp(three_device_scenario, fixture_budgets, fixture_disc),
        three_device_scenario,
    )
    no_ds = quality(
        select_devices_no_ds(three_device_scenario, fixture_budgets), three_device_scenario
    )
    assert dp.normalized > no_ds.normalized


def test_foreign_plan_is_rejected(three_device_scenario, fixture_budgets):
    zero = StageCost(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    foreign = SchedulePlan(
        t_tran_s=0.0, t_cmp_s=0.0, e_total_j=0.0, stages=((9, zero),), objective_bytes=0,
        budgets=fixture_budgets, method="dp",
    )
    with pytest.raises(ConfigurationError, match=r"\[9\]"):
        quality(foreign, three_device_scenario)
