"""Latency and energy costs of relayed diffusion stages.

Every stage on a device is three phases anchored at the edge server: download
the current latent, run K denoising steps locally, upload the result. Transfer
times come from a Shannon-rate link with power-law path loss (or per-device
rate overrides); energies are the matching power draw times phase duration.
The edge server's own consumption is out of scope and never charged.

Aggregation convention: totals over many cost terms use ``math.fsum``, so
they are exact in floating point (order-independent, no drift) and a plan's
predicted totals match a failure-free execution trace bit for bit. One body,
``_fsum_totals``, adds them up for :func:`aggregate_costs` and
:meth:`FleetCosts.totals` alike. :class:`CostTotals` holds those sums and is
the one place every other total is derived from them: ``t_total_s``,
``tran_fraction`` and whether the totals fit a pair of budgets. Plans and
traces are ``CostTotals`` themselves, so they store no derived total.

:class:`FleetCosts` holds the same six phase costs for a whole fleet as one
numpy matrix, a row per device, plus each device's id and exact model size
(no ``Device`` objects: a plan names its devices by id). It,
:func:`stage_cost` and :func:`split_step_cost` all evaluate one phase
formula, :func:`phase_costs`, made only of correctly rounded multiplications
and divisions, on link rates from one rate rule (``_rates``), which a fleet
applies to its devices and a single device to a list of one; so every
matrix entry equals the matching :func:`stage_cost_for` field bit for bit.
A world whose link rate underflows to zero, or whose costs overflow, is
refused with ConfigurationError.

A fleet's costs are computed from the scenario's device columns
(:class:`~relaydiff.scenario.DeviceColumns`), never from its ``Device``
objects. :func:`fleet_costs` computes them once per scenario and keeps them
on it, in its ``_fleet`` slot: every selector, every sweep cell, every plan
check and recovery then share one :class:`FleetCosts`, whose arrays cannot
be written. A scenario starts without it (a changed copy is a new scenario)
and fills it on first use. So every call that takes a world's costs from
it refuses a world with any available device that cannot be costed, not
only one whose plan uses that device.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ConfigurationError
from .scenario import Device, LinkParams, Scenario

# Distances below one meter are clamped so the path-loss term stays bounded
# near the server.
MIN_DISTANCE_M = 1.0

BITS_PER_BYTE = 8.0


class StageCost(NamedTuple):
    """Phase latencies and energies of one stage on one device, in phase_costs order."""

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
    """fsum-aggregated totals over a collection of stage costs, and what follows from them."""

    t_tran_s: float
    t_cmp_s: float
    e_total_j: float

    @property
    def t_total_s(self) -> float:
        return self.t_tran_s + self.t_cmp_s

    @property
    def tran_fraction(self) -> float:
        """The transfer share of ``t_total_s``; 0.0 for a run that takes no time."""

        t_total = self.t_total_s
        return self.t_tran_s / t_total if t_total > 0 else 0.0

    def fits(self, budgets) -> bool:
        """Whether both totals are within ``budgets`` (a ``Budgets``), boundaries included."""

        return self.t_total_s <= budgets.t_max_s and self.e_total_j <= budgets.e_max_j


def _fsum_totals(t_down, t_cmp, t_up, e_down, e_cmp, e_up) -> CostTotals:
    """The totals of six lists (or tuples) of phase costs: the one fsum body of every total."""

    return CostTotals(t_tran_s=math.fsum(t_down + t_up), t_cmp_s=math.fsum(t_cmp),
                      e_total_j=math.fsum(e_down + e_cmp + e_up))


def aggregate_costs(costs: Iterable[StageCost]) -> CostTotals:
    """Exactly-rounded totals; the one accounting path plans and traces share."""

    # The six phase columns of the costs; six empty ones if there are none.
    return _fsum_totals(*(tuple(zip(*costs)) or ((),) * 6))


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
    (up,), (down,) = _rates((device.id,), (device.pos_m,), (device.tx_power_w,), link, server_pos_m)
    return up if direction == "up" else down


def _shannon(link: LinkParams, server_pos_m):
    """The Shannon rate in bits/s, as a function of a device's position and transmit power.

    The one copy of the link formula, in plain ``math`` (numpy's ``log2``,
    ``**`` and ``hypot`` would round differently); :func:`_rates` maps it.
    """

    dist, floor_m, log2 = math.dist, MIN_DISTANCE_M, math.log2
    ref_gain, exponent, noise = link.path_loss_ref_gain, -link.path_loss_exponent, link.noise_power_w
    bandwidth = link.bandwidth_hz

    def rate(pos_m, tx_w: float) -> float:
        # The clamp is max(distance, MIN_DISTANCE_M), without the cost of a call.
        return bandwidth * log2(1.0 + tx_w * (ref_gain * (
            floor_m if (d := dist(pos_m, server_pos_m)) < floor_m else d
        ) ** exponent) / noise)

    return rate


def _underflow(dev_id: int, pos_m, tx_w: float, link: LinkParams, server_pos_m) -> ConfigurationError:
    distance = max(math.dist(pos_m, server_pos_m), MIN_DISTANCE_M)
    snr = tx_w * (link.path_loss_ref_gain * distance ** -link.path_loss_exponent) / link.noise_power_w
    return ConfigurationError(f"device {dev_id}: the link rate underflows to 0 bit/s "
                              f"at {distance:.6g} m from the server (SNR {snr:.6g})")


def _rates(ids, positions, tx_powers, link: LinkParams,
           server_pos_m) -> tuple[list[float], list[float]]:
    """(up, down) link rates of the devices ``ids`` at ``positions`` sending at ``tx_powers``.

    Lists in the order given. The Shannon rate (:func:`_shannon`) is the same
    both ways; a device with a rate override takes its pair. The first rate
    that underflows to 0 is refused with ConfigurationError. The one rate
    rule: one device (:func:`link_rate`, :func:`stage_cost`) passes lists
    of one, a fleet (:func:`fleet_phase_costs`) its columns, so both get
    the same rates bit for bit.
    """

    up = list(map(_shannon(link, server_pos_m), positions, tx_powers))
    down = up
    overrides = link.rate_override_bps
    if overrides:
        down = list(up)
        for i, dev_id in enumerate(ids):
            if dev_id in overrides:
                up[i], down[i] = overrides[dev_id]
    if 0.0 in up:  # overrides are positive, so this is a Shannon rate
        i = up.index(0.0)
        raise _underflow(ids[i], positions[i], tx_powers[i], link, server_pos_m)
    return up, down


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
    if isinstance(t_cmp, np.ndarray):
        finite = np.isfinite(costs).all()
    else:
        finite = all(map(math.isfinite, costs))
    if not finite:
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
    (up,), (down,) = _rates((device.id,), (device.pos_m,), (device.tx_power_w,), link, server_pos_m)
    return StageCost(*phase_costs(
        latent_bytes, k_steps, down, up, device.step_latency_s, device.rx_power_w,
        device.compute_power_w, device.tx_power_w,
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
    """Stage costs of a scenario's available devices, one row or element each.

    ``ids`` holds the available devices' ids in ascending order; row i of
    ``costs``, an (n, 6) array in :class:`StageCost` field order, and
    element i of ``t_total_s`` and ``e_total_j`` belong to device ``ids[i]``
    and equal the matching fields (and ``t_total()``, ``e_total()``) of its
    :func:`stage_cost_for`. ``size_bytes[i]`` is that device's
    ``variant.size_bytes``, an exact Python int.
    """

    ids: np.ndarray
    size_bytes: tuple[int, ...]
    costs: np.ndarray
    t_total_s: np.ndarray
    e_total_j: np.ndarray

    def stage_cost(self, i: int) -> StageCost:
        return StageCost._make(self.costs[i].tolist())

    def subset(self, mask: np.ndarray) -> FleetCosts:
        """The costs of the devices where the boolean array ``mask`` is true, in the same order.

        Every element is copied, not recomputed, so it is the one
        :func:`fleet_costs` gives on a scenario with only those devices available.
        """

        return FleetCosts(self.ids[mask], tuple(itertools.compress(self.size_bytes, mask.tolist())),
                          self.costs[mask], self.t_total_s[mask], self.e_total_j[mask])

    def totals(self, index) -> CostTotals:
        """:func:`aggregate_costs` of the stage costs at ``index``, a slice or positions."""

        return _fsum_totals(*self.costs[index].T.tolist())


def available_ids(scenario: Scenario) -> list[int] | None:
    """Ascending ids of the scenario's available devices, or None if every device is available."""

    available = scenario._columns.available
    return None if available.all() else np.flatnonzero(available).tolist()


def fleet_phase_costs(scenario: Scenario, payload_bytes, k_steps,
                      ids: list[int] | None = None) -> tuple[np.ndarray, ...]:
    """:func:`phase_costs` of the devices ``ids`` of ``scenario``, or of all of them, as six arrays.

    ``ids`` is an ascending list; None stands for every device. Read from
    the scenario's columns, in id order.
    """

    columns = scenario._columns
    positions = columns.pos_m
    tx, step, rx, compute = (columns.tx_power_w, columns.step_latency_s,
                             columns.rx_power_w, columns.compute_power_w)
    if ids is None:
        ids = range(len(positions))
    else:
        positions = tuple(map(positions.__getitem__, ids))
        tx, step, rx, compute = (column[ids] for column in (tx, step, rx, compute))
    up, down = _rates(ids, positions, tx.tolist(), scenario.link, scenario.server_pos_m)
    rate_up = np.array(up, dtype=np.float64)
    rate_down = rate_up if down is up else np.array(down, dtype=np.float64)
    with np.errstate(over="ignore"):
        return phase_costs(payload_bytes, k_steps, rate_down, rate_up, step, rx, compute, tx)


def fleet_costs(scenario: Scenario) -> FleetCosts:
    """Stage costs and model sizes of every available device of ``scenario``.

    Computed on the first call and kept on the scenario, so every later call
    returns the same object (see the module docstring).
    """

    fleet = scenario.__dict__.get("_fleet")
    if fleet is None:
        fleet = _fleet_costs(scenario)
        object.__setattr__(scenario, "_fleet", fleet)
    return fleet


def _fleet_costs(scenario: Scenario) -> FleetCosts:
    columns = scenario._columns
    ids = available_ids(scenario)
    if ids is None:
        id_array, sizes = columns.ids, columns.size_bytes
    else:
        id_array, sizes = columns.ids[ids], tuple(map(columns.size_bytes.__getitem__, ids))
    phases = fleet_phase_costs(scenario, scenario.latent_bytes, scenario.steps_per_stage, ids)
    t_down, t_cmp, t_up, e_down, e_cmp, e_up = phases
    # One array of phase rows, transposed: a row per device and each phase a
    # contiguous column, in about half the time of np.stack(phases, axis=1).
    fleet = FleetCosts(id_array, sizes, np.array(phases).T,
                       t_down + t_cmp + t_up, e_down + e_cmp + e_up)
    for array in (fleet.ids, fleet.costs, fleet.t_total_s, fleet.e_total_j):
        array.flags.writeable = False
    return fleet


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
