"""Latency and energy costs of relayed diffusion stages.

Every stage on a device is three phases anchored at the edge server: download
the current latent, run K denoising steps locally, upload the result. Transfer
times come from a Shannon-rate link with power-law path loss (or per-device
rate overrides); energies are the matching power draw times phase duration.
The edge server's own consumption is out of scope and never charged.

Aggregation convention: totals over many cost terms use ``math.fsum`` and
``t_total`` is defined as ``t_tran + t_cmp``. Both choices make the accounting
identities exact in floating point (order-independent, no drift), so a plan's
predicted totals match a failure-free execution trace bit for bit.

:class:`FleetCosts` holds the same six phase costs for a whole fleet as numpy
arrays. It, :func:`stage_cost` and :func:`split_step_cost` all evaluate one
phase formula, :func:`phase_costs`, made only of correctly rounded
multiplications and divisions, so every array element equals the matching
:func:`stage_cost_for` field bit for bit. A world whose link rate underflows
to zero, or whose costs overflow, is refused with ConfigurationError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError
from .scenario import Device, LinkParams, Scenario

# Distances below one meter are clamped so the path-loss term stays bounded
# near the server.
MIN_DISTANCE_M = 1.0

BITS_PER_BYTE = 8.0


@dataclass(frozen=True)
class StageCost:
    """Phase latencies and energies of one stage on one device."""

    t_down_s: float
    t_cmp_s: float
    t_up_s: float
    e_down_j: float
    e_cmp_j: float
    e_up_j: float

    def t_total(self) -> float:
        return self.t_down_s + self.t_cmp_s + self.t_up_s

    def e_total(self) -> float:
        return self.e_down_j + self.e_cmp_j + self.e_up_j


@dataclass(frozen=True)
class CostTotals:
    """fsum-aggregated totals over a collection of stage costs."""

    t_tran_s: float
    t_cmp_s: float
    e_total_j: float

    @property
    def t_total_s(self) -> float:
        return self.t_tran_s + self.t_cmp_s


def aggregate_costs(costs: Iterable[StageCost]) -> CostTotals:
    """Exactly-rounded totals; the one accounting path plans and traces share."""

    costs = list(costs)
    t_tran = math.fsum([c.t_down_s for c in costs] + [c.t_up_s for c in costs])
    t_cmp = math.fsum(c.t_cmp_s for c in costs)
    e_total = math.fsum(
        [c.e_down_j for c in costs] + [c.e_cmp_j for c in costs] + [c.e_up_j for c in costs]
    )
    return CostTotals(t_tran_s=t_tran, t_cmp_s=t_cmp, e_total_j=e_total)


def link_rate(
    device: Device,
    link: LinkParams,
    direction: str,
    server_pos_m: tuple[float, float],
) -> float:
    """Achievable rate in bits/s between ``device`` and the server.

    ``direction`` is "up" (device to server) or "down" (server to device).
    A rate override for the device id takes precedence over the Shannon model.
    The device's transmit power sets the SNR for both directions, matching a
    symmetric-budget link; asymmetry is expressed through overrides.
    """

    if direction not in ("up", "down"):
        raise ConfigurationError(f"direction must be 'up' or 'down', got {direction!r}")
    if link.rate_override_bps is not None and device.id in link.rate_override_bps:
        up, down = link.rate_override_bps[device.id]
        return up if direction == "up" else down
    distance = max(math.dist(device.pos_m, server_pos_m), MIN_DISTANCE_M)
    gain = link.path_loss_ref_gain * distance ** -link.path_loss_exponent
    snr = device.tx_power_w * gain / link.noise_power_w
    rate = link.bandwidth_hz * math.log2(1.0 + snr)
    if rate == 0.0:
        raise ConfigurationError(f"device {device.id}: the link rate underflows to 0 bit/s "
                                 f"at {distance:.6g} m from the server (SNR {snr:.6g})")
    return rate


def transfer_time(n_bytes: int, rate_bps: float) -> float:
    return BITS_PER_BYTE * n_bytes / rate_bps


def phase_costs(latent_bytes, k_steps, rate_down, rate_up, step_latency_s, rx_w, compute_w, tx_w):
    """(t_down, t_cmp, t_up, e_down, e_cmp, e_up) of a stage, for floats or arrays alike.

    ``k_steps`` may be a fraction of a step, as for one side of a split step.
    Raises ConfigurationError if any cost is not finite. Array callers run it
    under ``np.errstate(over="ignore")``, as :func:`fleet_phase_costs` does,
    so that an overflow is reported only by that error.
    """

    t_down = transfer_time(latent_bytes, rate_down)
    t_up = transfer_time(latent_bytes, rate_up)
    t_cmp = k_steps * step_latency_s
    costs = (t_down, t_cmp, t_up, rx_w * t_down, compute_w * t_cmp, tx_w * t_up)
    if not np.isfinite(costs).all():
        raise ConfigurationError(
            "a stage or split-step cost overflows; a link rate or device parameter is out of range"
        )
    return costs


def stage_cost(
    device: Device,
    link: LinkParams,
    latent_bytes: int,
    k_steps: float,
    server_pos_m: tuple[float, float],
) -> StageCost:
    """Cost of one K-step stage on ``device``: download, K steps, upload.

    ``k_steps`` may be a fraction of a step (one side of a split step).
    """

    if k_steps < 0:
        raise ConfigurationError(f"k_steps must be >= 0, got {k_steps}")
    if latent_bytes < 0:
        raise ConfigurationError(f"latent_bytes must be >= 0, got {latent_bytes}")
    return StageCost(*phase_costs(
        latent_bytes,
        k_steps,
        link_rate(device, link, "down", server_pos_m),
        link_rate(device, link, "up", server_pos_m),
        device.step_latency_s,
        device.rx_power_w,
        device.compute_power_w,
        device.tx_power_w,
    ))


def stage_cost_for(scenario: Scenario, device: Device) -> StageCost:
    """Stage cost of ``device`` under the scenario's link, payload and K."""

    return stage_cost(
        device,
        scenario.link,
        scenario.latent_bytes,
        scenario.steps_per_stage,
        scenario.server_pos_m,
    )


@dataclass(frozen=True, eq=False)
class FleetCosts:
    """Stage costs of a scenario's available devices, one array element each.

    ``devices`` holds the available devices in ascending id order; element i
    of every array belongs to ``devices[i]`` and equals the matching field (or
    ``t_total()``/``e_total()``) of ``stage_cost_for(scenario, devices[i])``.
    """

    devices: tuple[Device, ...]
    t_down_s: np.ndarray
    t_cmp_s: np.ndarray
    t_up_s: np.ndarray
    e_down_j: np.ndarray
    e_cmp_j: np.ndarray
    e_up_j: np.ndarray
    t_total_s: np.ndarray
    e_total_j: np.ndarray

    def stage_cost(self, i: int) -> StageCost:
        return StageCost(
            float(self.t_down_s[i]),
            float(self.t_cmp_s[i]),
            float(self.t_up_s[i]),
            float(self.e_down_j[i]),
            float(self.e_cmp_j[i]),
            float(self.e_up_j[i]),
        )

    def totals(self, index) -> CostTotals:
        """:func:`aggregate_costs` of the stage costs at ``index``, a slice or positions."""

        return CostTotals(
            t_tran_s=math.fsum(self.t_down_s[index].tolist() + self.t_up_s[index].tolist()),
            t_cmp_s=math.fsum(self.t_cmp_s[index].tolist()),
            e_total_j=math.fsum(
                self.e_down_j[index].tolist()
                + self.e_cmp_j[index].tolist()
                + self.e_up_j[index].tolist()
            ),
        )


def fleet_rates(
    devices: Sequence[Device], link: LinkParams, server_pos_m: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """(up, down) link rates of ``devices``, as arrays in the given order.

    ``link_rate`` runs once per device, twice for one with a rate override:
    without one, the Shannon rate is the same in both directions.
    """

    overrides = link.rate_override_bps or {}
    up = [link_rate(dev, link, "up", server_pos_m) for dev in devices]
    down = [
        link_rate(dev, link, "down", server_pos_m) if dev.id in overrides else rate
        for dev, rate in zip(devices, up)
    ]
    return np.array(up, dtype=np.float64), np.array(down, dtype=np.float64)


def fleet_phase_costs(devices: Sequence[Device], link: LinkParams, server_pos_m, payload_bytes,
                      k_steps) -> tuple[np.ndarray, ...]:
    """:func:`phase_costs` of each of ``devices``, as six arrays in the devices' order."""

    up, down = fleet_rates(devices, link, server_pos_m)
    columns = (
        np.array([getattr(dev, name) for dev in devices], dtype=np.float64)
        for name in ("step_latency_s", "rx_power_w", "compute_power_w", "tx_power_w")
    )
    with np.errstate(over="ignore"):
        return phase_costs(payload_bytes, k_steps, down, up, *columns)


def fleet_costs(scenario: Scenario) -> FleetCosts:
    """Stage costs of every available device of ``scenario``, as arrays."""

    devices = tuple(sorted((dev for dev in scenario.devices if dev.available), key=attrgetter("id")))
    phases = fleet_phase_costs(
        devices, scenario.link, scenario.server_pos_m,
        scenario.latent_bytes, scenario.steps_per_stage,
    )
    t_down, t_cmp, t_up, e_down, e_cmp, e_up = phases
    return FleetCosts(
        devices, *phases,
        t_total_s=t_down + t_cmp + t_up,
        e_total_j=e_down + e_cmp + e_up,
    )


@dataclass(frozen=True)
class SplitStepCost:
    """Costs of one split-inference denoising step across a device pair.

    Device A runs its share of the step, the activation features relay
    A -> server -> B, device B finishes the step, and the features relay back
    B -> server -> A for the next step. Per-device phase costs are stored as
    StageCost values: the "down" leg is what the device receives from the
    server and the "up" leg is what it sends.
    """

    cost_a: StageCost
    cost_b: StageCost

    @property
    def t_forward_s(self) -> float:
        """A -> server -> B feature relay latency."""

        return self.cost_a.t_up_s + self.cost_b.t_down_s

    @property
    def t_back_s(self) -> float:
        """B -> server -> A feature relay latency."""

        return self.cost_b.t_up_s + self.cost_a.t_down_s

    @property
    def t_tran_s(self) -> float:
        return self.t_forward_s + self.t_back_s

    @property
    def t_cmp_s(self) -> float:
        return self.cost_a.t_cmp_s + self.cost_b.t_cmp_s

    @property
    def t_step_s(self) -> float:
        return self.t_tran_s + self.t_cmp_s

    @property
    def e_a_j(self) -> float:
        return self.cost_a.e_total()

    @property
    def e_b_j(self) -> float:
        return self.cost_b.e_total()

    @property
    def e_step_j(self) -> float:
        return self.e_a_j + self.e_b_j


def split_step_cost(
    device_a: Device,
    device_b: Device,
    link: LinkParams,
    feature_bytes: int,
    split_fraction: float,
    server_pos_m: tuple[float, float],
) -> SplitStepCost:
    """Cost of one denoising step split across two devices at ``split_fraction``.

    A executes ``split_fraction`` of its per-step latency, B the complement of
    its own, and the intermediate features cross the server twice per step.
    Each side is the :func:`stage_cost` of its device, with the features as
    the payload and its share of the step as the step count.
    """

    if device_a.id == device_b.id:
        raise ConfigurationError(f"split endpoints must differ, both are device {device_a.id}")
    if not 0.0 <= split_fraction <= 1.0:
        raise ConfigurationError(f"split_fraction must be in [0, 1], got {split_fraction}")
    return SplitStepCost(
        cost_a=stage_cost(device_a, link, feature_bytes, split_fraction, server_pos_m),
        cost_b=stage_cost(device_b, link, feature_bytes, 1.0 - split_fraction, server_pos_m),
    )
