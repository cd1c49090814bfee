"""Device selection: DP against the exhaustive oracle, baselines, plan files.

The documented 3-device instance is confirmed through the oracle first; the
DP and greedy baselines are then held to the oracle-derived expectations.
All fixture totals are dyadic, so equalities are exact.
"""

import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from relaydiff import (
    Budgets,
    ConfigurationError,
    Discretization,
    SchedulePlan,
    ValidationError,
    generate_scenario,
    load_plan,
    mark_unavailable,
    save_plan,
    save_scenario,
    select_devices_dp,
    select_devices_no_ds,
    select_devices_oracle,
)
from relaydiff import kernel
from relaydiff.cost_model import aggregate_costs, fleet_costs, stage_cost_for
from relaydiff.cli import EXIT_VALIDATION, main
from relaydiff.formats import plan_from_dict, plan_to_dict
from relaydiff.kernel import MAX_DP_BYTES
from relaydiff.scheduler import (
    DEFAULT_GRID_UNITS,
    ORACLE_MAX_DEVICES,
    capacity_units,
    cost_units,
    default_discretization,
)

from conftest import DYADIC_DISC, dyadic_device, dyadic_scenario, make_dyadic_instance

seeds = st.integers(min_value=0, max_value=10**9)


# -- the documented 3-device instance, oracle first ----------------------------


def test_oracle_confirms_three_device_fixture(three_device_scenario, fixture_budgets):
    plan = select_devices_oracle(three_device_scenario, fixture_budgets)
    assert plan.device_ids == (0, 2)
    assert plan.objective_bytes == 7_000_000_000
    assert plan.t_total_s == 1.90625
    assert plan.e_total_j == 179.9765625
    assert plan.method == "oracle"


def test_dp_matches_oracle_on_fixture(three_device_scenario, fixture_budgets, fixture_disc):
    plan = select_devices_dp(three_device_scenario, fixture_budgets, fixture_disc)
    assert plan.device_ids == (0, 2)
    assert plan.objective_bytes == 7_000_000_000
    assert plan.t_total_s == 1.90625
    assert plan.e_total_j == 179.9765625
    assert plan.method == "dp"
    assert plan.discretization == fixture_disc


def test_no_ds_admits_id_order_prefix(three_device_scenario, fixture_budgets):
    plan = select_devices_no_ds(three_device_scenario, fixture_budgets)
    assert plan.device_ids == (0, 1)
    assert plan.objective_bytes == 6_000_000_000
    assert plan.t_total_s == 1.625
    assert plan.e_total_j == 160.0


def test_no_ds_admits_everything_under_loose_budgets(three_device_scenario):
    plan = select_devices_no_ds(three_device_scenario, Budgets(100.0, 10000.0))
    assert plan.device_ids == (0, 1, 2)
    assert plan.objective_bytes == 9_000_000_000


def test_zero_time_budget_gives_empty_plans(three_device_scenario):
    budgets = Budgets(0.0, 200.0)
    for select in (select_devices_dp, select_devices_no_ds, select_devices_oracle):
        plan = select(three_device_scenario, budgets)
        assert plan.stages == ()
        assert plan.objective_bytes == 0
        assert plan.t_total_s == 0.0 and plan.e_total_j == 0.0


def test_boundary_device_exactly_filling_budgets_is_selected():
    devices = [dyadic_device(0, 32, 1_000_000_000, step_latency_s=0.125, compute_power_w=199.25)]
    scenario = dyadic_scenario(devices, {0: (2.0**23, 2.0**23)})
    # exact stage totals (1.0 s, 100.0 J) hit the budgets and the grid exactly
    plan = select_devices_dp(scenario, Budgets(1.0, 100.0), Discretization(0.125, 1.0))
    assert plan.device_ids == (0,)


def test_unavailable_devices_are_excluded(three_device_scenario, fixture_budgets, fixture_disc):
    scenario = mark_unavailable(three_device_scenario, {0})
    plan = select_devices_dp(scenario, fixture_budgets, fixture_disc)
    assert plan.device_ids == (1, 2)
    assert plan.objective_bytes == 5_000_000_000


def test_all_unavailable_gives_empty_plan(three_device_scenario, fixture_budgets):
    scenario = mark_unavailable(three_device_scenario, {0, 1, 2})
    assert select_devices_dp(scenario, fixture_budgets).stages == ()


def test_oracle_prefers_fewer_devices_then_lower_ids():
    # {0,1} and {2} both reach 2 GB under 2.0 s; the two-for-one tie goes to
    # the singleton.
    devices = [
        dyadic_device(0, 8, 1_000_000_000, step_latency_s=0.125, compute_power_w=1.0),
        dyadic_device(1, 8, 1_000_000_000, step_latency_s=0.125, compute_power_w=1.0),
        dyadic_device(2, 16, 1_000_000_000, step_latency_s=0.375, compute_power_w=1.0),
    ]
    overrides = {i: (2.0**23, 2.0**23) for i in range(3)}
    scenario = dyadic_scenario(devices, overrides)
    plan = select_devices_oracle(scenario, Budgets(2.0, 1000.0))
    assert plan.device_ids == (2,)

    # three identical devices, room for two: lexicographically smallest pair
    plan = select_devices_oracle(identical_scenario(3), Budgets(2.0, 1000.0))
    assert plan.device_ids == (0, 1)

    # twelve, room for six: every 6 of them tie, and the lowest ids win
    scenario = identical_scenario(12)
    cost = stage_cost_for(scenario, scenario.device(0))
    budgets = Budgets(6.5 * cost.t_total(), 6.5 * cost.e_total())
    plan = select_devices_oracle(scenario, budgets)
    assert plan.device_ids == fsum_oracle(scenario, budgets) == tuple(range(6))


def identical_scenario(n):
    """``n`` identical dyadic devices behind the same link rates."""

    devices = [
        dyadic_device(i, 8, 1_000_000_000, step_latency_s=0.125, compute_power_w=1.0,
                      pos_m=(100.0, 100.0))
        for i in range(n)
    ]
    return dyadic_scenario(devices, {i: (2.0**23, 2.0**23) for i in range(n)})


def test_oracle_selection_invariant_under_objective_scaling():
    rng = np.random.default_rng(5)
    scenario, budgets = make_dyadic_instance(rng, n_devices=8)
    scaled = dyadic_scenario(
        [
            dyadic_device(
                dev.id, dev.variant.bit_width, dev.variant.param_count * 10,
                step_latency_s=dev.step_latency_s, compute_power_w=dev.compute_power_w,
                tx_power_w=dev.tx_power_w, rx_power_w=dev.rx_power_w, pos_m=dev.pos_m,
            )
            for dev in scenario.devices
        ],
        scenario.link.rate_override_bps,
        steps_per_stage=scenario.steps_per_stage,
    )
    assert (
        select_devices_oracle(scaled, budgets).device_ids
        == select_devices_oracle(scenario, budgets).device_ids
    )


def fsum_oracle(scenario, budgets):
    """The oracle's pick, judging every subset by its plan's fsum totals."""

    costs = {dev.id: stage_cost_for(scenario, dev) for dev in scenario.devices if dev.available}
    sizes = {dev.id: dev.variant.size_bytes for dev in scenario.devices}
    best = None
    for r in range(len(costs) + 1):
        for ids in itertools.combinations(sorted(costs), r):
            totals = aggregate_costs(costs[i] for i in ids)
            if totals.t_total_s <= budgets.t_max_s and totals.e_total_j <= budgets.e_max_j:
                key = (-sum(sizes[i] for i in ids), len(ids), ids)
                best = key if best is None else min(best, key)
    return best[2]


def test_oracle_judges_a_subset_on_the_budget_by_its_fsum():
    # The budgets are device 2's own costs summed left to right; the fsum
    # totals its plan is checked with lie one ulp above both. The oracle used
    # to pick device 2 and raise "internal error: oracle produced an
    # infeasible plan"; devices 0 and 1 cost more, so nothing fits.
    scenario = generate_scenario(3, seed=1)
    budgets = Budgets(0.46360108994653254, 6.122700817459899)
    cost = stage_cost_for(scenario, scenario.device(2))
    assert (cost.t_total(), cost.e_total()) == (budgets.t_max_s, budgets.e_max_j)
    assert aggregate_costs([cost]).t_total_s > budgets.t_max_s

    plan = select_devices_oracle(scenario, budgets)
    assert plan.device_ids == fsum_oracle(scenario, budgets) == ()


def test_oracle_matches_fsum_enumeration_on_budgets_at_subset_totals():
    # Budgets equal to a random subset's totals put the oracle's float filter
    # exactly on a budget: its left-to-right totals (about one fleet in ten
    # raised before), the same costs summed in the other order, or its
    # plan's fsum totals, which a left-to-right sum can pass by an ulp
    # although the subset fits.
    rng = np.random.default_rng(2026)
    for trial in range(450):
        n = int(rng.integers(2, 9))
        scenario = generate_scenario(n, seed=int(rng.integers(0, 10**9)))
        costs = [stage_cost_for(scenario, dev) for dev in scenario.devices]
        subset = [i for i in range(n) if rng.random() < 0.5] or [int(rng.integers(0, n))]
        if trial % 3 == 0:
            totals = aggregate_costs(costs[i] for i in subset)
            budgets = Budgets(totals.t_total_s, totals.e_total_j)
        else:
            # The oracle sums a subset from its lowest index up, as it
            # walks it; the other order lands on the other side of the
            # budget now and then.
            order = subset if trial % 3 == 1 else subset[::-1]
            budgets = Budgets(
                sum(costs[i].t_total() for i in order),
                sum(costs[i].e_total() for i in order),
            )
        assert select_devices_oracle(scenario, budgets).device_ids == fsum_oracle(scenario, budgets)


@pytest.mark.parametrize("n", [22, ORACLE_MAX_DEVICES])
def test_oracle_stores_nothing_per_subset(n):
    # The walk keeps one subset and its sums: at 2**22 subsets and more, a
    # table per subset would take hundreds of megabytes.
    scenario = generate_scenario(n, seed=n)
    budgets = Budgets(3.0, 300.0)
    tracemalloc.start()
    try:
        plan = select_devices_oracle(scenario, budgets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert plan.t_total_s <= budgets.t_max_s and plan.e_total_j <= budgets.e_max_j
    assert plan.objective_bytes >= select_devices_dp(scenario, budgets).objective_bytes


def test_oracle_guard_refuses_large_fleets():
    scenario = generate_scenario(ORACLE_MAX_DEVICES + 1, seed=0)
    with pytest.raises(ConfigurationError, match="guard"):
        select_devices_oracle(scenario, Budgets(2.0, 200.0))


def test_dp_refuses_absurd_tables(three_device_scenario):
    with pytest.raises(ConfigurationError, match="bytes"):
        select_devices_dp(three_device_scenario, Budgets(2.0, 200.0), Discretization(1e-9, 1e-9))
    assert MAX_DP_BYTES == 1 << 30


def test_dp_byte_guard_refuses_before_allocating(
    crossed_scenario, three_device_scenario, monkeypatch, table_calls
):
    # The crossed fleet's 4/2/3/1 GB sizes divide by their gcd (1 GB) to
    # 4/2/3/1, and no three devices fit, so all four survive and the time
    # axis's Dantzig bound, 8, is the value bound. Both budgets bind on it.
    # A 2**-13 s time unit gives 16385 time cells, so each table needs far
    # more than the call's fixed ~6 kB.
    cases = [
        # Energy units 21/30/121/101 of 200: 201 energy cells > 9 value
        # cells, so the value table, four surviving layers, the empty layer
        # and one scratch layer of uint8 energies.
        (crossed_scenario, Budgets(2.0, 200.0), Discretization(2**-13, 1.0), (4 + 2) * 16385 * 9),
        # Energy units 1/2/5/5 of 8: 9 energy cells <= 9 value cells, so the
        # grid, one take-bit byte plane, one shift byte and two uint8 value
        # layers per cell.
        (crossed_scenario, Budgets(2.0, 200.0), Discretization(2**-13, 25.0),
         (1 + 1 + 2 * 1) * 16385 * 9),
        # The three-device fleet's energy units 400/240/320 of 960: all
        # three survive, and their energy fits, so that axis is dropped and
        # the grid has one energy cell; their time does not fit, so it
        # stays. A 2**-16 s time unit keeps it large.
        (three_device_scenario, Budgets(2.0, 240.0), Discretization(2**-16, 0.25),
         (1 + 1 + 2 * 1) * 131073 * 1),
        # The same units of 800: their total passes 800, but no three fit
        # the time budget and the two largest energies (720) fit, so the
        # energy axis is dropped all the same.
        (three_device_scenario, Budgets(2.0, 200.0), Discretization(2**-16, 0.25),
         (1 + 1 + 2 * 1) * 131073 * 1),
    ]
    for scenario, budgets, disc, needed in cases:
        monkeypatch.setattr(kernel, "MAX_DP_BYTES", needed)
        assert select_devices_dp(scenario, budgets, disc).device_ids == (0, 2)

        monkeypatch.setattr(kernel, "MAX_DP_BYTES", needed - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match=f"allocate {needed} bytes"):
                select_devices_dp(scenario, budgets, disc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < needed // 10
    assert table_calls.fills == [
        ("_value_dp", 16384, 200), ("_grid_dp", 16384, 8),
        ("_grid_dp", 131072, 0), ("_grid_dp", 131072, 0),
    ]

    # With both axes the last two instances would run the value table: three
    # layers, the empty one and a scratch one, each of 131073 time by 8
    # value cells of uint16 energies. One byte less still plans them.
    monkeypatch.setattr(kernel, "MAX_DP_BYTES", (3 + 2) * 131073 * 8 * 2 - 1)
    for case in cases[-2:]:
        assert select_devices_dp(three_device_scenario, *case[1:3]).device_ids == (0, 2)


def test_dp_falls_back_to_the_grid_when_the_value_table_is_too_big(
    crossed_scenario, monkeypatch, table_calls
):
    # 20 J units put the energy costs at 2, 2, 7 and 6 of 10 units; all four
    # devices survive the reductions, both budgets still bind and the value
    # bound is still 8. 11 energy cells > 9 value cells, so the value table
    # runs by default; but its (4 + 2) * 9 bytes per time cell exceed the
    # grid's 4 * 11.
    budgets = Budgets(2.0, 200.0)
    disc = Discretization(2**-7, 20.0)
    free = select_devices_dp(crossed_scenario, budgets, disc)
    assert table_calls.fills == [("_value_dp", 256, 10)]

    monkeypatch.setattr(kernel, "MAX_DP_BYTES", (1 + 1 + 2 * 1) * 257 * 11)
    assert (4 + 2) * 257 * 9 > kernel.MAX_DP_BYTES
    assert select_devices_dp(crossed_scenario, budgets, disc) == free
    assert table_calls == {"_value_dp": 1, "_grid_dp": 1}
    assert free.device_ids == select_devices_oracle(crossed_scenario, budgets).device_ids == (0, 2)


def test_dp_drops_the_energy_axis_the_time_budget_implies(three_device_scenario, table_calls):
    # On a 2**-12 s by 1 J grid the three devices' energy units (100/60/80)
    # sum past the 200-unit cap, so every device survives with both axes in
    # play; but their time units (4096/2560/3712 of 8192) fit two at a time
    # at most, and the two largest energies, 180, fit. No subset that fits
    # the time budget misses the energy one, so that axis is dropped. The
    # scaled sizes are 4, 2 and 3, so a bit layer of 8193 time rows of 8
    # values is over _BITS_MAX and the grid runs.
    budgets = Budgets(2.0, 200.0)
    fleet = fleet_costs(three_device_scenario)
    disc = Discretization(2**-12, 1.0)
    cap_t, cap_e = capacity_units(2.0, disc.dt_s), capacity_units(200.0, disc.de_j)
    unit_e = cost_units(fleet.e_total_j, disc.de_j, cap_e)
    facts = kernel.reduce_knapsack(
        cost_units(fleet.t_total_s, disc.dt_s, cap_t), unit_e, fleet.size_bytes, cap_t, cap_e
    )
    assert facts.survivors == [0, 1, 2] and sum(unit_e) > cap_e
    assert facts.caps == (cap_t, 0) and facts.table == "grid"
    assert (cap_t + 1) * (4 + 3 + 1) > kernel._BITS_MAX

    plan = select_devices_dp(three_device_scenario, budgets, disc)
    assert table_calls.fills == [("_grid_dp", cap_t, 0)]
    assert plan.device_ids == select_devices_oracle(three_device_scenario, budgets).device_ids


def test_dp_peak_memory_on_a_fine_grid():
    # 40 devices on a pinned 1000x1000-unit grid; the int64 table with one
    # bool take-bit array per device peaked at 53.7 MB.
    scenario = generate_scenario(40, seed=3)
    budgets = Budgets(2.0, 200.0)
    disc = Discretization(budgets.t_max_s / 1000, budgets.e_max_j / 1000)
    tracemalloc.start()
    try:
        plan = select_devices_dp(scenario, budgets, disc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan.n_stages >= 1
    assert peak < 16 * 2**20


def _huge_model_scenario(param_counts):
    # Every 32-bit device costs exactly (1.0 s, 0.375 J) per stage, a whole
    # number of DYADIC_DISC units, so the DP rounding is lossless.
    devices = [
        dyadic_device(i, 32, count, step_latency_s=0.125, compute_power_w=0.25,
                      tx_power_w=0.5, rx_power_w=0.5, pos_m=(50.0 * (i + 1), 50.0))
        for i, count in enumerate(param_counts)
    ]
    return dyadic_scenario(devices, {i: (2.0**23, 2.0**23) for i in range(len(devices))})


def test_dp_sizes_beyond_int64_match_the_oracle():
    # Six 4 * (2**60 + 8i)-byte models sum past 2**63; an int64 value layer
    # wrapped and the DP returned (0,) where the oracle takes all six.
    scenario = _huge_model_scenario([2**60 + 8 * i for i in range(6)])
    budgets = Budgets(6.0, 2.25)
    oracle = select_devices_oracle(scenario, budgets)
    assert oracle.device_ids == (0, 1, 2, 3, 4, 5)
    plan = select_devices_dp(scenario, budgets, DYADIC_DISC)
    assert plan.device_ids == oracle.device_ids
    assert plan.objective_bytes == oracle.objective_bytes == sum(
        4 * (2**60 + 8 * i) for i in range(6)
    )


def test_dp_value_bound_beyond_64_bits_is_a_configuration_error(tmp_path):
    # Sizes 2**72 and 2**72 + 32 have gcd 32: scaled, each needs 68 bits.
    scenario = _huge_model_scenario([2**70, 2**70 + 8])
    with pytest.raises(ConfigurationError, match="64 bits"):
        select_devices_dp(scenario, Budgets(2.0, 0.75), DYADIC_DISC)

    save_scenario(scenario, tmp_path / "huge.json")
    code = main([
        "schedule", "-s", str(tmp_path / "huge.json"), "--t-max", "2.0", "--e-max", "0.75",
        "-o", str(tmp_path / "plan.json"),
    ])
    assert code == EXIT_VALIDATION


def test_dp_pick_missing_the_budget_by_an_ulp_yields_to_the_baseline():
    # Device 1's energies sum left to right to exactly the energy budget, so
    # its unit cost fills the default grid's energy capacity and the DP picks
    # it; their fsum, which plan totals use, is one ulp above the budget. The
    # pick used to raise "internal error: dp produced an infeasible plan".
    scenario = mark_unavailable(generate_scenario(2, seed=852201), {0})
    budgets = Budgets(0.36629260517351514, 4.6513510396789055)
    disc = default_discretization(budgets)
    cost = stage_cost_for(scenario, scenario.device(1))
    assert cost.e_total() == budgets.e_max_j
    assert cost_units(cost.e_total(), disc.de_j) == capacity_units(budgets.e_max_j, disc.de_j)
    assert math.fsum([cost.e_down_j, cost.e_cmp_j, cost.e_up_j]) > budgets.e_max_j

    plan = select_devices_dp(scenario, budgets)
    assert plan.device_ids == ()
    assert plan.objective_bytes == 0


# -- discretization helpers ----------------------------------------------------


def test_unit_helpers_on_exact_values():
    assert cost_units(1.0, 0.125) == 8
    assert cost_units(0.90625, 0.125) == 8  # 7.25 units, ceiled
    assert cost_units(0.0, 0.125) == 0
    assert capacity_units(2.0, 0.125) == 16
    assert capacity_units(0.1, 0.125) == 0


def test_default_discretization_scales_with_budgets():
    disc = default_discretization(Budgets(2.0, 200.0))
    assert disc.dt_s == 2.0 / DEFAULT_GRID_UNITS
    assert disc.de_j == 1.0
    zero = default_discretization(Budgets(0.0, 0.0))
    assert zero.dt_s == 1.0 and zero.de_j == 1.0


@given(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.floats(min_value=1e-9, max_value=1e3, allow_nan=False, exclude_min=True),
)
def test_cost_units_never_undercount(value, unit):
    units = cost_units(value, unit)
    assert units >= 0
    assert units * unit >= value
    assert (units == 0) == (value <= 0.0)


def scalar_cost_units(value, unit):
    """The per-device rounding rule, one Python float at a time."""

    if value <= 0:
        return 0
    units = math.ceil(value / unit)
    while units * unit < value:
        units += 1
    return units


@given(
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=1e-6, max_value=1e3, allow_nan=False),
)
def test_array_cost_units_match_the_scalar_rule_around_multiples(k, unit):
    exact = k * unit
    values = [exact, math.nextafter(exact, -math.inf), math.nextafter(exact, math.inf)]
    units = cost_units(np.array(values), unit)
    assert units.dtype == np.int64
    assert units.tolist() == [scalar_cost_units(v, unit) for v in values]
    assert [cost_units(v, unit) for v in values] == units.tolist()


def test_cost_units_beyond_int64_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="2\\*\\*63"):
        cost_units(np.array([1.0, 1e12]), 1e-9)
    with pytest.raises(ConfigurationError, match="2\\*\\*63"):
        cost_units(1e300, 1e-9)


def test_cost_units_clamps_counts_past_the_capacity():
    assert cost_units(np.array([1.0, 2.0, 2.0625, 1e300]), 0.125, 16).tolist() == [8, 16, 17, 17]
    assert cost_units(1e300, 1e-9, 10) == 11
    with pytest.raises(ConfigurationError, match="2\\*\\*63"):
        cost_units(1e300, 1e-9, 2**64)


def test_dp_plans_a_world_with_one_device_past_int64_units():
    # Device 2's pinned rate makes its stage last 2e300 s, about 1.3e302
    # units of the default grid; it fits no budget, and the DP used to
    # refuse the whole world for it instead of leaving it out.
    scenario = generate_scenario(3, seed=1)
    slow = 8 * 262144 / 1e300
    link = dataclasses.replace(scenario.link, rate_override_bps={2: (slow, slow)})
    scenario = dataclasses.replace(scenario, link=link)
    budgets = Budgets(3.0, 300.0)
    dp = select_devices_dp(scenario, budgets)
    assert dp.device_ids == select_devices_oracle(scenario, budgets).device_ids == (0, 1)
    assert dp.objective_bytes == select_devices_oracle(scenario, budgets).objective_bytes
    assert select_devices_no_ds(scenario, budgets).device_ids == (0, 1)


@given(seeds, st.integers(min_value=0, max_value=30))
def test_no_ds_is_the_longest_fitting_id_prefix(seed, n_devices):
    # The prefix search bisects; the reference re-sums every prefix in turn.
    rng = np.random.default_rng(seed)
    scenario = generate_scenario(max(n_devices, 1), seed=seed)
    scenario = mark_unavailable(scenario, {d.id for d in scenario.devices if rng.random() < 0.2})
    budgets = Budgets(float(rng.uniform(0.0, 6.0)), float(rng.uniform(0.0, 600.0)))
    costs = [
        stage_cost_for(scenario, dev)
        for dev in sorted(scenario.devices, key=lambda dev: dev.id) if dev.available
    ]
    count = 0
    while count < len(costs):
        totals = aggregate_costs(costs[:count + 1])
        if totals.t_total_s > budgets.t_max_s or totals.e_total_j > budgets.e_max_j:
            break
        count += 1
    plan = select_devices_no_ds(scenario, budgets)
    assert [cost for _, cost in plan.stages] == costs[:count]


@given(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.floats(min_value=1e-9, max_value=1e3, allow_nan=False, exclude_min=True),
)
def test_capacity_units_never_overcount(budget, unit):
    units = capacity_units(budget, unit)
    assert units >= 0
    assert units * unit <= budget


def test_budget_validation():
    with pytest.raises(ValidationError, match="t_max_s"):
        Budgets(-1.0, 10.0)
    with pytest.raises(ValidationError, match="de_j"):
        Discretization(0.1, 0.0)


# -- plan files ------------------------------------------------------------------


def test_plan_roundtrip(tmp_path, three_device_scenario, fixture_budgets, fixture_disc):
    for plan in (
        select_devices_dp(three_device_scenario, fixture_budgets, fixture_disc),
        select_devices_oracle(three_device_scenario, fixture_budgets),
    ):
        path = tmp_path / f"{plan.method}.json"
        save_plan(plan, path)
        assert load_plan(path) == plan


def test_plan_load_validation(three_device_scenario, fixture_budgets, fixture_disc):
    def corrupted(mutate):
        data = plan_to_dict(select_devices_dp(three_device_scenario, fixture_budgets, fixture_disc))
        mutate(data)
        return data

    cases = [
        (lambda d: d.update(method="magic"), r"plan.method"),
        (lambda d: d.update(objective_bytes=-1), r"plan.objective_bytes"),
        (lambda d: d["stages"][0].update(t_down_s=-0.1), r"stages\[0\].t_down_s"),
        (lambda d: d.update(t_total_s=99.0), r"plan.t_total_s"),
        (lambda d: d["stages"][0].update(device_id=True), r"device_id"),
        (lambda d: d["stages"][0].pop("t_cmp_s"),
         r"^plan\.stages\[0\]\.t_cmp_s: missing required field$"),
        (lambda d: d.pop("objective_bytes"), r"^plan\.objective_bytes: missing required field$"),
    ]
    for mutate, pattern in cases:
        with pytest.raises(ValidationError, match=pattern):
            plan_from_dict(corrupted(mutate))


_NOT_GIVEN = object()


@pytest.mark.parametrize("value", ["abc", [1], True, "3.0", None, _NOT_GIVEN],
                         ids=["text", "list", "true", "numeric-text", "null", "missing"])
@pytest.mark.parametrize("record, name", [
    ("budgets", "t_max_s"), ("budgets", "e_max_j"),
    ("discretization", "dt_s"), ("discretization", "de_j"),
])
def test_plan_budgets_and_grid_must_be_numbers(three_device_scenario, fixture_budgets, fixture_disc,
                                               record, name, value):
    data = plan_to_dict(select_devices_dp(three_device_scenario, fixture_budgets, fixture_disc))
    if value is _NOT_GIVEN:
        del data[record][name]
    else:
        data[record][name] = value
    expected = "missing required field" if value is _NOT_GIVEN else "expected a number, got"
    with pytest.raises(ValidationError, match=rf"^plan\.{record}\.{name}: {expected}"):
        plan_from_dict(data)


def test_cli_refuses_a_plan_with_a_text_budget(tmp_path, three_device_scenario, fixture_budgets,
                                               capsys):
    save_scenario(three_device_scenario, tmp_path / "s.json")
    data = plan_to_dict(select_devices_dp(three_device_scenario, fixture_budgets))
    data["budgets"]["t_max_s"] = "abc"
    (tmp_path / "p.json").write_text(json.dumps(data))
    code = main(["simulate", "-s", str(tmp_path / "s.json"), "-p", str(tmp_path / "p.json")])
    assert code == EXIT_VALIDATION
    assert "plan.budgets.t_max_s: expected a number, got 'abc'" in capsys.readouterr().err


def test_plan_rejects_unsorted_stages(three_device_scenario, fixture_budgets, fixture_disc):
    data = plan_to_dict(select_devices_dp(three_device_scenario, fixture_budgets, fixture_disc))
    data["stages"].reverse()
    with pytest.raises(ValidationError, match="ascending"):
        plan_from_dict(data)


# -- properties ------------------------------------------------------------------


@given(seeds)
def test_dp_equals_oracle_on_exact_multiple_instances(seed):
    scenario, budgets = make_dyadic_instance(np.random.default_rng(seed))
    dp = select_devices_dp(scenario, budgets, DYADIC_DISC)
    oracle = select_devices_oracle(scenario, budgets)
    assert dp.objective_bytes == oracle.objective_bytes


@given(seeds)
def test_all_methods_return_exactly_feasible_plans(seed):
    rng = np.random.default_rng(seed)
    scenario = generate_scenario(int(rng.integers(1, 11)), seed=int(rng.integers(0, 1000)))
    budgets = Budgets(float(rng.uniform(0.0, 4.0)), float(rng.uniform(0.0, 400.0)))
    for select in (select_devices_dp, select_devices_no_ds, select_devices_oracle):
        plan = select(scenario, budgets)
        assert plan.t_total_s <= budgets.t_max_s
        assert plan.e_total_j <= budgets.e_max_j
        assert plan.device_ids == tuple(sorted(plan.device_ids))


@given(seeds)
def test_oracle_dominates_dp(seed):
    rng = np.random.default_rng(seed)
    scenario = generate_scenario(int(rng.integers(1, 11)), seed=int(rng.integers(0, 1000)))
    budgets = Budgets(float(rng.uniform(0.0, 4.0)), float(rng.uniform(0.0, 400.0)))
    dp = select_devices_dp(scenario, budgets)
    oracle = select_devices_oracle(scenario, budgets)
    assert dp.objective_bytes <= oracle.objective_bytes


@given(seeds, st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=16))
def test_dp_monotone_in_budgets_with_fixed_disc(seed, t_extra, e_extra):
    scenario, budgets = make_dyadic_instance(np.random.default_rng(seed))
    base = select_devices_dp(scenario, budgets, DYADIC_DISC).objective_bytes
    more_t = Budgets(budgets.t_max_s + t_extra * 0.125, budgets.e_max_j)
    more_e = Budgets(budgets.t_max_s, budgets.e_max_j + float(e_extra))
    assert select_devices_dp(scenario, more_t, DYADIC_DISC).objective_bytes >= base
    assert select_devices_dp(scenario, more_e, DYADIC_DISC).objective_bytes >= base


@given(seeds)
def test_halving_discretization_never_hurts(seed):
    scenario, budgets = make_dyadic_instance(np.random.default_rng(seed))
    coarse = select_devices_dp(scenario, budgets, DYADIC_DISC).objective_bytes
    halved = Discretization(DYADIC_DISC.dt_s / 2.0, DYADIC_DISC.de_j / 2.0)
    assert select_devices_dp(scenario, budgets, halved).objective_bytes >= coarse


@given(seeds)
def test_selection_is_deterministic(seed):
    scenario, budgets = make_dyadic_instance(np.random.default_rng(seed))
    assert select_devices_dp(scenario, budgets) == select_devices_dp(scenario, budgets)
    assert select_devices_oracle(scenario, budgets) == select_devices_oracle(scenario, budgets)
