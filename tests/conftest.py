"""Shared fixtures and instance builders.

The hand-built scenarios below use rate overrides that are powers of two and
dyadic step latencies and powers, so every stage cost, sum, and discretized
unit count is exact in binary floating point. That lets tests assert plan and
trace totals with ``==`` instead of tolerances.
"""

from __future__ import annotations

import collections

import numpy as np
import pytest

from relaydiff import (
    ALLOWED_BIT_WIDTHS,
    Budgets,
    Device,
    Discretization,
    LinkParams,
    ModelVariant,
    Scenario,
    generate_scenario,
)
from relaydiff import kernel

# One latent is 2**18 bytes = 2**21 bits, so a 2**m bps link moves it in
# exactly 2**(21 - m) seconds.
LATENT_BYTES = 262144

DYADIC_DISC = Discretization(dt_s=0.125, de_j=0.0625)


def dyadic_device(
    dev_id: int,
    bit_width: int,
    param_count: int,
    step_latency_s: float,
    compute_power_w: float,
    tx_power_w: float = 1.0,
    rx_power_w: float = 0.5,
    pos_m: tuple[float, float] | None = None,
) -> Device:
    return Device(
        id=dev_id,
        pos_m=pos_m if pos_m is not None else (100.0 * (dev_id + 1), 100.0 * (dev_id + 1)),
        variant=ModelVariant(bit_width=bit_width, param_count=param_count),
        step_latency_s=step_latency_s,
        compute_power_w=compute_power_w,
        tx_power_w=tx_power_w,
        rx_power_w=rx_power_w,
    )


def dyadic_scenario(devices, overrides, steps_per_stage=4, latent_bytes=LATENT_BYTES) -> Scenario:
    return Scenario(
        area_m=(500.0, 500.0),
        server_pos_m=(250.0, 250.0),
        devices=tuple(devices),
        link=LinkParams(
            bandwidth_hz=2e6,
            noise_power_w=1e-13,
            path_loss_ref_gain=1e-4,
            rate_override_bps=overrides,
        ),
        latent_bytes=latent_bytes,
        feature_bytes=2 * latent_bytes,
        steps_per_stage=steps_per_stage,
        seed=0,
    )


@pytest.fixture
def three_device_scenario() -> Scenario:
    """Sizes 4/2/3 GB with exact stage totals, under (2.0 s, 200 J) budgets:

    device 0: t = 0.25 + 0.5 + 0.25     = 1.0,     e = 100.0
    device 1: t = 0.125 + 0.375 + 0.125 = 0.625,   e = 60.0
    device 2: t = 0.0625 + 0.78125 + 0.0625 = 0.90625, e = 79.9765625

    Optimal subset is {0, 2} (7 GB; 1.90625 s, 179.9765625 J); all three
    together need 2.53125 s and do not fit. Greedy id-order admission takes
    {0, 1} (6 GB).
    """

    devices = [
        dyadic_device(0, 32, 1_000_000_000, step_latency_s=0.125, compute_power_w=199.25),
        dyadic_device(1, 16, 1_000_000_000, step_latency_s=0.09375, compute_power_w=159.5),
        dyadic_device(2, 32, 750_000_000, step_latency_s=0.1953125, compute_power_w=102.25),
    ]
    overrides = {0: (2.0**23, 2.0**23), 1: (2.0**24, 2.0**24), 2: (2.0**25, 2.0**25)}
    return dyadic_scenario(devices, overrides)


@pytest.fixture
def crossed_scenario() -> Scenario:
    """Two slow, frugal devices and two fast, power-hungry ones, on which
    neither of the (2.0 s, 200 J) budgets implies the other:

    device 0: t = 0.0625 + 1.0625 + 0.0625 = 1.1875, e = 20.015625  (4 GB)
    device 1: t = 0.0625 + 0.875 + 0.0625  = 1.0,    e = 29.953125  (2 GB)
    device 2: t = 0.0625 + 0.0625 + 0.0625 = 0.1875, e = 120.09375  (3 GB)
    device 3: t = 0.0625 + 0.1875 + 0.0625 = 0.3125, e = 100.03125  (1 GB)

    Devices 0 and 1 miss the time budget together, 2 and 3 the energy one;
    every other pair fits and no three do. The three fastest (1, 2, 3) fit
    in 1.5 s but need 250.078125 J, and the three most frugal (0, 1, 3)
    need 150 J but 2.5 s. The optimum is {0, 2} (7 GB; 1.375 s,
    140.109375 J).
    """

    specs = [  # bit width, parameters, step latency, compute power
        (32, 1_000_000_000, 0.265625, 18.75),
        (16, 1_000_000_000, 0.21875, 34.125),
        (32, 750_000_000, 0.015625, 1920.0),
        (8, 1_000_000_000, 0.046875, 533.0),
    ]
    devices = [
        dyadic_device(i, bits, count, step_latency_s=step, compute_power_w=power)
        for i, (bits, count, step, power) in enumerate(specs)
    ]
    return dyadic_scenario(devices, {i: (2.0**25, 2.0**25) for i in range(len(devices))})


@pytest.fixture
def fixture_budgets() -> Budgets:
    return Budgets(t_max_s=2.0, e_max_j=200.0)


@pytest.fixture
def fixture_disc() -> Discretization:
    return DYADIC_DISC


@pytest.fixture
def two_stage_scenario() -> Scenario:
    """Two identical devices whose stage cost is (0.25, 0.5, 0.25) seconds,
    so a two-stage run lasts exactly 2.0 s with tran_fraction exactly 0.5."""

    devices = [
        dyadic_device(i, 32, 1_000_000_000, step_latency_s=0.125, compute_power_w=1.0)
        for i in range(2)
    ]
    overrides = {0: (2.0**23, 2.0**23), 1: (2.0**23, 2.0**23)}
    return dyadic_scenario(devices, overrides)


@pytest.fixture
def recovery_scenario() -> Scenario:
    """Two 1.0 s / 0.875 J primary devices plus a 0.5 s / 0.4375 J spare.

    Under (2.25 s, 200 J) the DP plan is {0, 1}; if device 1 fails during
    compute the residual budget of exactly 0.5 s admits the spare, while a
    failure during upload leaves only 0.25 s and recovery is infeasible.
    """

    devices = [
        dyadic_device(0, 32, 1_000_000_000, step_latency_s=0.125, compute_power_w=1.0),
        dyadic_device(1, 16, 1_000_000_000, step_latency_s=0.125, compute_power_w=1.0),
        dyadic_device(2, 4, 1_000_000_000, step_latency_s=0.0625, compute_power_w=1.0),
    ]
    overrides = {0: (2.0**23, 2.0**23), 1: (2.0**23, 2.0**23), 2: (2.0**24, 2.0**24)}
    return dyadic_scenario(devices, overrides)


@pytest.fixture
def recovery_budgets() -> Budgets:
    return Budgets(t_max_s=2.25, e_max_j=200.0)


@pytest.fixture(scope="session")
def default_scenario() -> Scenario:
    """The default 20-device world used across harness-level tests."""

    return generate_scenario(20, seed=42)


def make_dyadic_instance(rng: np.random.Generator, n_devices: int | None = None):
    """Random (scenario, budgets) whose exact stage totals are integer
    multiples of DYADIC_DISC units, making the DP rounding lossless."""

    n = int(rng.integers(1, 13)) if n_devices is None else n_devices
    devices = []
    overrides = {}
    for dev_id in range(n):
        overrides[dev_id] = (
            float(2 ** int(rng.integers(19, 25))),
            float(2 ** int(rng.integers(19, 25))),
        )
        devices.append(
            dyadic_device(
                dev_id,
                bit_width=ALLOWED_BIT_WIDTHS[int(rng.integers(0, 4))],
                param_count=int(rng.integers(1, 9)) * 2_000_000,
                step_latency_s=int(rng.integers(1, 9)) * 0.125,
                compute_power_w=float(rng.integers(1, 9)),
                tx_power_w=int(rng.integers(1, 5)) * 0.5,
                rx_power_w=int(rng.integers(1, 5)) * 0.5,
                pos_m=(float(rng.integers(0, 501)), float(rng.integers(0, 501))),
            )
        )
    scenario = dyadic_scenario(devices, overrides, steps_per_stage=int(rng.integers(1, 6)))
    budgets = Budgets(
        t_max_s=int(rng.integers(4, 49)) * 0.125,
        e_max_j=float(rng.integers(1, 49)),
    )
    return scenario, budgets


class TableCalls(collections.Counter):
    """Calls per DP table fill; ``fills`` lists each call's (name, cap_t, cap_e)."""

    def __init__(self):
        super().__init__()
        self.fills = []


@pytest.fixture
def table_calls(monkeypatch):
    """Calls of each DP table fill, counted by a wrapper around its helper."""

    calls = TableCalls()
    for name in ("_grid_dp", "_value_dp", "_bits_dp"):
        fill = getattr(kernel, name)

        def counted(*args, _fill=fill, _name=name):
            calls[_name] += 1
            calls.fills.append((_name, *args[3:5]))
            return _fill(*args)

        monkeypatch.setattr(kernel, name, counted)
    return calls
