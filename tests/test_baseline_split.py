"""Two-segment split-inference baseline: event structure and pair picking."""

import math
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from relaydiff import (
    Budgets,
    ConfigurationError,
    SplitConfig,
    ValidationError,
    mark_unavailable,
    pick_split_pair,
    select_devices_dp,
    simulate_pipeline,
    simulate_split,
    split_step_cost,
)

from conftest import LATENT_BYTES, dyadic_device, dyadic_scenario


@pytest.fixture
def pair_scenario():
    devices = [
        dyadic_device(0, 32, 1_000_000_000, step_latency_s=0.125, compute_power_w=1.0),
        dyadic_device(1, 16, 1_000_000_000, step_latency_s=0.0625, compute_power_w=1.0),
    ]
    overrides = {0: (2.0**23, 2.0**23), 1: (2.0**23, 2.0**23)}
    return dyadic_scenario(devices, overrides)


def transfers(trace):
    return [e for e in trace.events if e.kind in ("download", "upload")]


def test_five_steps_make_ten_transfers(pair_scenario):
    config = SplitConfig(device_a_id=0, device_b_id=1, n_steps=5)
    trace = simulate_split(pair_scenario, config, Budgets(100.0, 100.0))
    assert len(transfers(trace)) == 10
    assert all(e.amount == pair_scenario.feature_bytes for e in transfers(trace))
    assert trace.stages_completed == 5
    assert trace.method == "split"
    for prev, nxt in zip(trace.events, trace.events[1:]):
        assert nxt.t_start_s == prev.t_end_s


def test_transfer_count_is_two_per_step(pair_scenario):
    for n_steps in (1, 3, 8):
        config = SplitConfig(device_a_id=0, device_b_id=1, n_steps=n_steps)
        trace = simulate_split(pair_scenario, config, Budgets(100.0, 100.0))
        assert len(transfers(trace)) == 2 * n_steps


def test_split_exact_step_accounting(pair_scenario):
    # Features are 2**19 bytes = 2**22 bits over 2**23 bps legs: 0.5 s per
    # leg, 1.0 s per relay, 2.0 s of transfer per step. Compute adds
    # 0.5 * 0.125 + 0.5 * 0.0625 = 0.09375 s per step.
    config = SplitConfig(device_a_id=0, device_b_id=1, split_fraction=0.5, n_steps=2)
    trace = simulate_split(pair_scenario, config, Budgets(100.0, 100.0))
    assert trace.t_tran_s == 4.0
    assert trace.t_cmp_s == 0.1875
    assert trace.t_total_s == 4.1875
    assert trace.feasible and trace.completed


def test_budget_overrun_only_clears_the_flag(pair_scenario):
    config = SplitConfig(device_a_id=0, device_b_id=1, n_steps=5)
    trace = simulate_split(pair_scenario, config, Budgets(0.001, 0.001))
    assert not trace.feasible
    assert trace.completed
    assert trace.stages_completed == 5


def test_split_config_validation():
    with pytest.raises(ValidationError, match="differ"):
        SplitConfig(device_a_id=1, device_b_id=1)
    with pytest.raises(ValidationError, match="split_fraction"):
        SplitConfig(device_a_id=0, device_b_id=1, split_fraction=-0.1)
    with pytest.raises(ValidationError, match="n_steps"):
        SplitConfig(device_a_id=0, device_b_id=1, n_steps=0)


def test_missing_device_is_a_configuration_error(pair_scenario):
    config = SplitConfig(device_a_id=0, device_b_id=7)
    with pytest.raises(ConfigurationError, match="no device with id 7"):
        simulate_split(pair_scenario, config, Budgets(1.0, 1.0))


def test_pick_pair_on_two_devices(pair_scenario):
    config = pick_split_pair(pair_scenario)
    assert {config.device_a_id, config.device_b_id} == {0, 1}
    assert config.split_fraction == 0.5
    assert config.n_steps == pair_scenario.steps_per_stage


def test_pick_pair_ties_go_to_lowest_ids():
    devices = [
        dyadic_device(i, 32, 1_000_000_000, step_latency_s=0.125, compute_power_w=1.0)
        for i in range(4)
    ]
    overrides = {i: (2.0**23, 2.0**23) for i in range(4)}
    scenario = dyadic_scenario(devices, overrides)
    config = pick_split_pair(scenario)
    assert (config.device_a_id, config.device_b_id) == (0, 1)


def test_pick_pair_prefers_dominant_fast_pair():
    slow = [
        dyadic_device(i, 32, 1_000_000_000, step_latency_s=1.0, compute_power_w=1.0)
        for i in range(2)
    ]
    fast = [
        dyadic_device(i, 32, 1_000_000_000, step_latency_s=0.0625, compute_power_w=1.0)
        for i in (2, 3)
    ]
    overrides = {0: (2.0**20,) * 2, 1: (2.0**20,) * 2, 2: (2.0**25,) * 2, 3: (2.0**25,) * 2}
    scenario = dyadic_scenario(slow + fast, overrides)
    config = pick_split_pair(scenario)
    assert {config.device_a_id, config.device_b_id} == {2, 3}


def test_pick_pair_needs_two_available_devices(pair_scenario):
    lonely = mark_unavailable(pair_scenario, {1})
    with pytest.raises(ConfigurationError, match="at least 2"):
        pick_split_pair(lonely)


def test_tran_fraction_non_increasing_in_link_rate(pair_scenario):
    def run(rate_scale):
        overrides = {
            dev_id: (up * rate_scale, down * rate_scale)
            for dev_id, (up, down) in pair_scenario.link.rate_override_bps.items()
        }
        scenario = dyadic_scenario(
            list(pair_scenario.devices), overrides,
            steps_per_stage=pair_scenario.steps_per_stage,
        )
        config = SplitConfig(device_a_id=0, device_b_id=1, n_steps=5)
        return simulate_split(scenario, config, Budgets(100.0, 100.0)).tran_fraction

    fractions = [run(scale) for scale in (1.0, 2.0, 4.0, 16.0)]
    assert all(later <= earlier for earlier, later in zip(fractions, fractions[1:]))


def test_split_transmits_more_than_multistage(default_scenario):
    # Equal total denoising work: n_steps = K x |J_dp|. The split baseline
    # relays double-size features every step, the pipeline one latent per
    # K-step stage, so its transmission share must come out higher.
    budgets = Budgets(2.0, 200.0)
    plan = select_devices_dp(default_scenario, budgets)
    assert plan.n_stages >= 1
    pipeline_trace = simulate_pipeline(default_scenario, plan)
    config = pick_split_pair(
        default_scenario, n_steps=default_scenario.steps_per_stage * plan.n_stages
    )
    split_trace = simulate_split(default_scenario, config, budgets)
    assert split_trace.tran_fraction > pipeline_trace.tran_fraction
    # and K times the transfer events for the same step count
    k = default_scenario.steps_per_stage
    assert len(transfers(split_trace)) == k * len(transfers(pipeline_trace))


def scan_split_pair(scenario, n_steps=None) -> SplitConfig:
    """The pick by definition: every ordered pair scored with split_step_cost."""

    candidates = sorted((dev for dev in scenario.devices if dev.available), key=lambda dev: dev.id)
    best, best_latency = None, math.inf
    for device_a in candidates:
        for device_b in candidates:
            if device_a.id == device_b.id:
                continue
            step = split_step_cost(
                device_a, device_b, scenario.link, scenario.feature_bytes,
                0.5, scenario.server_pos_m,
            )
            if step.t_step_s < best_latency:
                best_latency = step.t_step_s
                best = (device_a.id, device_b.id)
    steps = scenario.steps_per_stage if n_steps is None else n_steps
    return SplitConfig(device_a_id=best[0], device_b_id=best[1], n_steps=steps)


@st.composite
def split_fleets(draw):
    """Fleets of 2-12 devices, at least two available, many of them alike.

    Positions, step latencies and override rates come from small pools, so
    distinct pairs often score exactly alike and the tie rule decides.
    """

    positions = draw(st.lists(
        st.tuples(st.floats(0.0, 500.0), st.floats(0.0, 500.0)), min_size=1, max_size=3
    ))
    latencies = draw(st.lists(st.sampled_from([0.0625, 0.125, 0.1, 0.3]), min_size=1, max_size=3))
    rates = st.sampled_from([2.0**20, 2.0**23, 3e6, 1.7e7])
    n = draw(st.integers(min_value=2, max_value=12))
    devices, overrides = [], {}
    for i in range(n):
        devices.append(replace(
            dyadic_device(
                i, 32, 1_000_000_000, step_latency_s=draw(st.sampled_from(latencies)),
                compute_power_w=1.0, pos_m=draw(st.sampled_from(positions)),
            ),
            available=draw(st.booleans()) or i < 2,
        ))
        if draw(st.booleans()):
            overrides[i] = (draw(rates), draw(rates))
    ids = draw(st.permutations(range(n)))
    devices = [replace(dev, id=ids[dev.id]) for dev in devices]
    overrides = {ids[i]: pair for i, pair in overrides.items()}
    return dyadic_scenario(devices, overrides or None)


@settings(max_examples=300, deadline=None)
@given(split_fleets())
def test_pick_matches_the_pairwise_scan(scenario):
    assert pick_split_pair(scenario) == scan_split_pair(scenario)
    assert pick_split_pair(scenario, n_steps=7) == scan_split_pair(scenario, n_steps=7)


def test_pick_breaks_a_tie_between_different_pairs_by_lowest_ids():
    # Device 0's slow link rules it out; the six ordered pairs of 1, 2 and 3
    # then tie exactly under dyadic rates, and (1, 2) has the lowest ids.
    devices = [
        dyadic_device(i, 32, 1_000_000_000, step_latency_s=0.125, compute_power_w=1.0)
        for i in range(4)
    ]
    overrides = {0: (2.0**20, 2.0**20), 1: (2.0**23, 2.0**22), 2: (2.0**22, 2.0**23),
                 3: (2.0**23, 2.0**22)}
    scenario = dyadic_scenario(devices, overrides)
    config = pick_split_pair(scenario)
    assert config == scan_split_pair(scenario)
    assert (config.device_a_id, config.device_b_id) == (1, 2)


def test_pick_scores_each_pair_term_for_term():
    # Devices 1 and 2 have swapped link rates, so in exact arithmetic (0, 1)
    # and (0, 2) tie. The split-step expression, rounded term by term,
    # makes (0, 2) faster; summing per-device totals instead picks (0, 1).
    devices = [
        dyadic_device(i, 32, 1_000_000_000, step_latency_s=0.0625, compute_power_w=1.0)
        for i in range(3)
    ]
    overrides = {0: (4102896.9, 9573426.1), 1: (3191142.0, 9573426.1), 2: (9573426.1, 3191142.0)}
    scenario = dyadic_scenario(devices, overrides)
    config = pick_split_pair(scenario)
    assert config == scan_split_pair(scenario)
    assert (config.device_a_id, config.device_b_id) == (0, 2)


def test_pick_refuses_a_rate_whose_transfers_overflow():
    devices = [
        dyadic_device(i, 32, 1_000_000_000, step_latency_s=0.125, compute_power_w=1.0)
        for i in range(3)
    ]
    overrides = {0: (5e-324, 5e-324), 1: (2.0**23,) * 2, 2: (2.0**23,) * 2}
    with pytest.raises(ConfigurationError, match="overflows"):
        pick_split_pair(dyadic_scenario(devices, overrides))


def test_pick_refuses_when_every_pair_overflows_without_a_warning():
    # Device 0's transfers take about 1e308 s each, finite alone, but every
    # pair relays through device 0 twice, so every step latency is infinite.
    devices = [
        dyadic_device(i, 32, 1_000_000_000, step_latency_s=0.125, compute_power_w=1.0)
        for i in range(2)
    ]
    rate = 8.0 * (2 * LATENT_BYTES) / 1e308  # the features are two latents
    scenario = dyadic_scenario(devices, {0: (rate, rate), 1: (2.0**23, 2.0**23)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="every split pair"):
            pick_split_pair(scenario)
