"""Link rates, stage costs, split-step costs, and their exact algebra.

The frozen numbers in this file were derived by hand from the closed-form
definitions (rate * time = bits, energy = power * latency) and are asserted
with ``==``: every value is either dyadic or a correctly-rounded quotient that
matches the decimal literal's nearest double.
"""

import math
import warnings

import pytest
from hypothesis import given, strategies as st

from relaydiff import ConfigurationError, Device, LinkParams, ModelVariant, Scenario
from relaydiff.cost_model import (
    aggregate_costs,
    fleet_costs,
    link_rate,
    phase_costs,
    split_step_cost,
    stage_cost,
    stage_cost_for,
    transfer_time,
)

SERVER = (0.0, 0.0)


def make_device(dev_id=0, pos=(3.0, 4.0), step=0.1, cmp_w=20.0, tx=1.0, rx=0.5):
    return Device(
        id=dev_id, pos_m=pos, variant=ModelVariant(32, 8),
        step_latency_s=step, compute_power_w=cmp_w, tx_power_w=tx, rx_power_w=rx,
    )


def make_link(**kwargs):
    defaults = dict(bandwidth_hz=2e6, noise_power_w=1e-13, path_loss_ref_gain=1e-4)
    defaults.update(kwargs)
    return LinkParams(**defaults)


def test_rate_override_precedence():
    link = make_link(rate_override_bps={0: (8e6, 8e6)})
    dev = make_device(0, pos=(300.0, 400.0))
    assert link_rate(dev, link, "up", SERVER) == 8e6
    assert link_rate(dev, link, "down", SERVER) == 8e6
    other = make_device(1, pos=(300.0, 400.0))
    assert link_rate(other, link, "up", SERVER) != 8e6


def test_rate_equals_bandwidth_at_unit_snr():
    # tx * gain / noise = 1 at the clamped 1 m distance, so log2(2) = 1.
    link = make_link(bandwidth_hz=1e6, noise_power_w=1e-3, path_loss_ref_gain=1e-3)
    dev = make_device(pos=SERVER, tx=1.0)
    assert link_rate(dev, link, "up", SERVER) == 1e6


def test_distance_clamped_at_one_meter():
    link = make_link()
    at_server = make_device(pos=SERVER)
    nearby = make_device(pos=(0.6, 0.8))  # distance 1.0
    assert link_rate(at_server, link, "down", SERVER) == link_rate(nearby, link, "down", SERVER)
    assert math.isfinite(link_rate(at_server, link, "down", SERVER))


def test_rate_decreases_with_distance():
    link = make_link()
    near = make_device(pos=(30.0, 40.0))
    far = make_device(pos=(300.0, 400.0))
    assert link_rate(near, link, "up", SERVER) > link_rate(far, link, "up", SERVER) > 0.0


def test_direction_is_validated():
    with pytest.raises(ConfigurationError, match="direction"):
        link_rate(make_device(), make_link(), "sideways", SERVER)


def test_stage_cost_zero_workload_is_all_zero():
    cost = stage_cost(make_device(), make_link(), latent_bytes=0, k_steps=0, server_pos_m=SERVER)
    assert (cost.t_down_s, cost.t_cmp_s, cost.t_up_s) == (0.0, 0.0, 0.0)
    assert (cost.e_down_j, cost.e_cmp_j, cost.e_up_j) == (0.0, 0.0, 0.0)
    assert cost.t_total() == 0.0 and cost.e_total() == 0.0


def test_stage_cost_rejects_negative_workload():
    with pytest.raises(ConfigurationError, match="k_steps"):
        stage_cost(make_device(), make_link(), 1, -1, SERVER)
    with pytest.raises(ConfigurationError, match="latent_bytes"):
        stage_cost(make_device(), make_link(), -1, 1, SERVER)


def test_stage_cost_frozen_values():
    # 1 MB/s both ways, 256 KB latent, five 0.1 s steps, powers (rx 0.5,
    # compute 20, tx 1.0): transfers are 2097152 bits / 8e6 bps = 0.262144 s.
    link = make_link(rate_override_bps={0: (8e6, 8e6)})
    dev = make_device(0, step=0.1, cmp_w=20.0, tx=1.0, rx=0.5)
    cost = stage_cost(dev, link, latent_bytes=262144, k_steps=5, server_pos_m=SERVER)
    assert cost.t_down_s == 0.262144
    assert cost.t_up_s == 0.262144
    assert cost.t_cmp_s == 0.5
    assert cost.e_down_j == 0.131072
    assert cost.e_cmp_j == 10.0
    assert cost.e_up_j == 0.262144


def test_stage_cost_for_scenario_fixture(three_device_scenario):
    cost = stage_cost_for(three_device_scenario, three_device_scenario.device(0))
    assert cost.t_total() == 1.0
    assert cost.e_total() == 100.0


def test_aggregate_costs_sums_exactly(three_device_scenario):
    costs = [
        stage_cost_for(three_device_scenario, dev) for dev in three_device_scenario.devices
    ]
    totals = aggregate_costs(costs)
    assert totals.t_total_s == totals.t_tran_s + totals.t_cmp_s
    assert totals.t_total_s == 2.53125
    assert totals.e_total_j == 239.9765625
    empty = aggregate_costs([])
    assert (empty.t_tran_s, empty.t_cmp_s, empty.e_total_j, empty.t_total_s) == (0.0, 0.0, 0.0, 0.0)


def test_split_step_frozen_transfer_latency():
    # 512 KB features over 8e6 bps legs: 0.524288 s per leg, two legs each way.
    link = make_link(rate_override_bps={0: (8e6, 8e6), 1: (8e6, 8e6)})
    a, b = make_device(0), make_device(1)
    step = split_step_cost(a, b, link, feature_bytes=524288, split_fraction=0.5, server_pos_m=SERVER)
    assert step.t_forward_s == 1.048576
    assert step.t_back_s == 1.048576
    assert step.t_tran_s == 2.097152


def test_split_step_pure_compute_case():
    # feature_bytes = 0 degenerates to the two compute halves: 0.05 + 0.05.
    link = make_link(rate_override_bps={0: (8e6, 8e6), 1: (8e6, 8e6)})
    a, b = make_device(0, step=0.1), make_device(1, step=0.1)
    step = split_step_cost(a, b, link, feature_bytes=0, split_fraction=0.5, server_pos_m=SERVER)
    assert step.t_tran_s == 0.0
    assert step.t_step_s == 0.1
    assert step.t_cmp_s == 0.1


def test_split_step_validation():
    link = make_link()
    a, b = make_device(0), make_device(1)
    with pytest.raises(ConfigurationError, match="differ"):
        split_step_cost(a, a, link, 1024, 0.5, SERVER)
    with pytest.raises(ConfigurationError, match="split_fraction"):
        split_step_cost(a, b, link, 1024, 1.5, SERVER)


def test_link_rate_underflowing_to_zero_names_the_device():
    link = make_link()
    far = make_device(7, pos=(1e12, 1e12))
    with pytest.raises(ConfigurationError, match="device 7: .* underflows to 0 bit/s"):
        link_rate(far, link, "up", SERVER)


def test_costs_that_overflow_are_refused_without_a_warning():
    scenario = Scenario(
        area_m=(500.0, 500.0), server_pos_m=SERVER, devices=(make_device(0), make_device(1)),
        link=make_link(rate_override_bps={1: (8e6, 5e-324)}), latent_bytes=1024,
        feature_bytes=1024, steps_per_stage=5, seed=0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="overflows"):
            phase_costs(1024, 5, 5e-324, 8e6, 0.1, 0.5, 20.0, 1.0)
        with pytest.raises(ConfigurationError, match="overflows"):
            phase_costs(1024, 5, 8e6, 8e6, 10.0, 0.5, 1e308, 1.0)
        with pytest.raises(ConfigurationError, match="overflows"):
            fleet_costs(scenario)
        with pytest.raises(ConfigurationError, match="overflows"):
            stage_cost_for(scenario, scenario.device(1))


# -- algebraic properties ------------------------------------------------------

powers = st.floats(min_value=0.01, max_value=100.0, allow_nan=False, allow_infinity=False)
steps = st.floats(min_value=1e-4, max_value=2.0, allow_nan=False, allow_infinity=False)
rates = st.floats(min_value=1e3, max_value=1e9, allow_nan=False, allow_infinity=False)
latents = st.integers(min_value=0, max_value=2**21)
k_counts = st.integers(min_value=0, max_value=50)

device_args = st.tuples(steps, powers, powers, powers)


def build(args, rate_up, rate_down):
    step, cmp_w, tx, rx = args
    dev = make_device(0, step=step, cmp_w=cmp_w, tx=tx, rx=rx)
    link = make_link(rate_override_bps={0: (rate_up, rate_down)})
    return dev, link


@given(device_args, rates, rates, latents, k_counts)
def test_energy_is_power_times_latency(args, rate_up, rate_down, latent, k):
    dev, link = build(args, rate_up, rate_down)
    cost = stage_cost(dev, link, latent, k, SERVER)
    assert cost.e_down_j == dev.rx_power_w * cost.t_down_s
    assert cost.e_cmp_j == dev.compute_power_w * cost.t_cmp_s
    assert cost.e_up_j == dev.tx_power_w * cost.t_up_s


@given(device_args, rates, rates, st.integers(min_value=1, max_value=2**20), k_counts)
def test_doubling_latent_doubles_transfer_terms(args, rate_up, rate_down, latent, k):
    dev, link = build(args, rate_up, rate_down)
    single = stage_cost(dev, link, latent, k, SERVER)
    double = stage_cost(dev, link, 2 * latent, k, SERVER)
    assert double.t_down_s == 2.0 * single.t_down_s
    assert double.t_up_s == 2.0 * single.t_up_s
    assert double.e_down_j == 2.0 * single.e_down_j
    assert double.e_up_j == 2.0 * single.e_up_j
    assert double.t_cmp_s == single.t_cmp_s
    assert double.e_cmp_j == single.e_cmp_j


@given(device_args, rates, rates, latents, latents, k_counts, k_counts)
def test_stage_cost_monotone_in_workload(args, rate_up, rate_down, lat1, lat2, k1, k2):
    dev, link = build(args, rate_up, rate_down)
    lo = stage_cost(dev, link, min(lat1, lat2), min(k1, k2), SERVER)
    hi = stage_cost(dev, link, max(lat1, lat2), max(k1, k2), SERVER)
    for field in ("t_down_s", "t_cmp_s", "t_up_s", "e_down_j", "e_cmp_j", "e_up_j"):
        assert getattr(hi, field) >= getattr(lo, field)


@given(device_args, device_args, rates, rates, st.integers(min_value=0, max_value=2**21))
def test_relay_symmetry_with_symmetric_rates(args_a, args_b, rate_a, rate_b, feature):
    dev_a, _ = build(args_a, rate_a, rate_a)
    dev_b = make_device(1, step=args_b[0], cmp_w=args_b[1], tx=args_b[2], rx=args_b[3])
    link = make_link(rate_override_bps={0: (rate_a, rate_a), 1: (rate_b, rate_b)})
    step = split_step_cost(dev_a, dev_b, link, feature, 0.5, SERVER)
    assert step.t_forward_s == step.t_back_s


fractions = st.floats(min_value=0.0, max_value=1.0)


@given(device_args, device_args, rates, rates, rates, rates, latents, fractions)
def test_split_step_cost_equals_the_hand_formula(
    args_a, args_b, up_a, down_a, up_b, down_b, feature, phi
):
    # The six phase costs of each side, written out as split_step_cost
    # computed them before it shared stage_cost's formula.
    dev_a = make_device(0, step=args_a[0], cmp_w=args_a[1], tx=args_a[2], rx=args_a[3])
    dev_b = make_device(1, step=args_b[0], cmp_w=args_b[1], tx=args_b[2], rx=args_b[3])
    link = make_link(rate_override_bps={0: (up_a, down_a), 1: (up_b, down_b)})
    step = split_step_cost(dev_a, dev_b, link, feature, phi, SERVER)
    t_a_up, t_a_down = 8.0 * feature / up_a, 8.0 * feature / down_a
    t_b_up, t_b_down = 8.0 * feature / up_b, 8.0 * feature / down_b
    t_a_cmp = phi * dev_a.step_latency_s
    t_b_cmp = (1.0 - phi) * dev_b.step_latency_s
    assert step.cost_a.t_down_s == t_a_down
    assert step.cost_a.t_cmp_s == t_a_cmp
    assert step.cost_a.t_up_s == t_a_up
    assert step.cost_a.e_down_j == dev_a.rx_power_w * t_a_down
    assert step.cost_a.e_cmp_j == dev_a.compute_power_w * t_a_cmp
    assert step.cost_a.e_up_j == dev_a.tx_power_w * t_a_up
    assert step.cost_b.t_down_s == t_b_down
    assert step.cost_b.t_cmp_s == t_b_cmp
    assert step.cost_b.t_up_s == t_b_up
    assert step.cost_b.e_down_j == dev_b.rx_power_w * t_b_down
    assert step.cost_b.e_cmp_j == dev_b.compute_power_w * t_b_cmp
    assert step.cost_b.e_up_j == dev_b.tx_power_w * t_b_up


@given(st.integers(min_value=0, max_value=2**22), rates)
def test_transfer_time_definition(n_bytes, rate):
    assert transfer_time(n_bytes, rate) == 8.0 * n_bytes / rate


# -- fleet cost arrays -----------------------------------------------------------

coords = st.floats(min_value=0.0, max_value=500.0, allow_nan=False)


@st.composite
def fleets(draw):
    """Scenarios with random geometry, powers, overrides and availability."""

    n = draw(st.integers(min_value=0, max_value=8))
    devices, overrides = [], {}
    for i in range(n):
        step, cmp_w, tx, rx = draw(device_args)
        devices.append(Device(
            id=i, pos_m=(draw(coords), draw(coords)), variant=ModelVariant(32, 8),
            step_latency_s=step, compute_power_w=cmp_w, tx_power_w=tx, rx_power_w=rx,
            available=draw(st.booleans()),
        ))
        if draw(st.booleans()):
            overrides[i] = (draw(rates), draw(rates))
    link = make_link(
        path_loss_exponent=draw(st.floats(min_value=2.0, max_value=4.0)),
        rate_override_bps=overrides or None,
    )
    latent = draw(st.integers(min_value=1, max_value=2**21))
    return Scenario(
        area_m=(500.0, 500.0),
        server_pos_m=(draw(coords), draw(coords)),
        devices=tuple(draw(st.permutations(devices))),
        link=link,
        latent_bytes=latent,
        feature_bytes=latent,
        steps_per_stage=draw(st.integers(min_value=1, max_value=50)),
        seed=0,
    )


@given(fleets())
def test_fleet_costs_equal_stage_cost_for(scenario):
    fleet = fleet_costs(scenario)
    available = sorted((dev for dev in scenario.devices if dev.available), key=lambda dev: dev.id)
    assert fleet.devices == tuple(available)
    costs = [stage_cost_for(scenario, dev) for dev in available]
    for i, expected in enumerate(costs):
        assert fleet.stage_cost(i) == expected
        assert fleet.t_total_s[i] == expected.t_total()
        assert fleet.e_total_j[i] == expected.e_total()
    for count in range(len(costs) + 1):
        assert fleet.totals(slice(0, count)) == aggregate_costs(costs[:count])
    assert fleet.totals(list(range(0, len(costs), 2))) == aggregate_costs(costs[::2])
