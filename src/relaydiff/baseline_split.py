"""Two-segment split-inference baseline.

Instead of handing whole stages to devices, every denoising step is split
across one fixed device pair: device A runs the front ``split_fraction`` of
the step, the intermediate activation features relay A -> server -> B, device
B finishes the step, and the features relay back for the next step. The
relayed payload is ``feature_bytes`` in both directions, so the baseline pays
two feature transfers on every single step where the stage pipeline pays two
latent transfers per K-step stage.

Each relayed transfer appears in the trace as one ``download`` event on the
receiving device whose duration spans both wireless legs; the sender's
transmit energy and the receiver's receive energy are both charged. The
trace is built by the stage pipeline's :class:`~relaydiff.pipeline.Timeline`.

:func:`pick_split_pair` scores every ordered pair of available devices by
the latency of one step split evenly. It computes each device's half-step
phase times once, as arrays, then scores all partners of one device at a
time with the :class:`~relaydiff.cost_model.SplitStepCost` latency
expression, term for term. Ties go to the lowest (a, b) id pair: devices
are scanned in ascending id order, the first of equal scores in a row is
taken, and a row replaces the best pair only if it is strictly faster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost_model import fleet_phase_costs, split_step_cost
from .errors import ConfigurationError, ValidationError
from .pipeline import SimTrace, Timeline
from .scenario import Scenario
from .scheduler import Budgets


@dataclass(frozen=True)
class SplitConfig:
    """The device pair, split point and step count of a split run."""

    device_a_id: int
    device_b_id: int
    split_fraction: float = 0.5
    n_steps: int = 5

    def __post_init__(self):
        if self.device_a_id == self.device_b_id:
            raise ValidationError(
                f"split.device_b_id: must differ from device_a_id ({self.device_a_id})"
            )
        if not 0.0 <= self.split_fraction <= 1.0:
            raise ValidationError(
                f"split.split_fraction: must be in [0, 1], got {self.split_fraction!r}"
            )
        if not isinstance(self.n_steps, int) or self.n_steps < 1:
            raise ValidationError(f"split.n_steps: must be an integer >= 1, got {self.n_steps!r}")


def simulate_split(scenario: Scenario, config: SplitConfig, budgets: Budgets) -> SimTrace:
    """Run ``n_steps`` split denoising steps and return the trace.

    The run always executes fully; exceeding the budgets only clears the
    trace's ``feasible`` flag. ``stages_completed`` counts executed steps.
    """

    device_a = scenario.device(config.device_a_id)
    device_b = scenario.device(config.device_b_id)
    step = split_step_cost(
        device_a,
        device_b,
        scenario.link,
        scenario.feature_bytes,
        config.split_fraction,
        scenario.server_pos_m,
    )

    timeline = Timeline()
    a, b = step.cost_a, step.cost_b
    for _ in range(config.n_steps):
        timeline.emit("compute", device_a.id, a.t_cmp_s, 1, a.e_cmp_j)
        timeline.emit("download", device_b.id, step.t_forward_s, scenario.feature_bytes,
                      a.e_up_j, b.e_down_j)
        timeline.emit("compute", device_b.id, b.t_cmp_s, 1, b.e_cmp_j)
        timeline.emit("download", device_a.id, step.t_back_s, scenario.feature_bytes,
                      b.e_up_j, a.e_down_j)
    return timeline.trace(config.n_steps, 0, True, budgets, "split")


def pick_split_pair(scenario: Scenario, n_steps: int | None = None) -> SplitConfig:
    """Lowest-latency ordered pair at an even split.

    Scores every ordered pair of available devices by its per-step split
    latency (the step count scales all pairs alike), exactly as
    :func:`~relaydiff.cost_model.split_step_cost` computes it, and returns
    the winner as a config; ties go to the lowest (a, b) id pair (see the
    module docstring). Time is O(n^2) in numpy and memory O(n). ``n_steps``
    defaults to the scenario's steps per stage.
    """

    candidates = sorted(
        (dev for dev in scenario.devices if dev.available), key=lambda dev: dev.id
    )
    if len(candidates) < 2:
        raise ConfigurationError(
            f"split baseline needs at least 2 available devices, found {len(candidates)}"
        )
    steps = scenario.steps_per_stage if n_steps is None else n_steps
    t_down, t_cmp, t_up, *_ = fleet_phase_costs(
        candidates, scenario.link, scenario.server_pos_m, scenario.feature_bytes, 0.5
    )
    best, best_latency = None, math.inf
    with np.errstate(over="ignore"):  # a pair whose latency overflows never wins
        for a in range(len(candidates)):
            # SplitStepCost.t_step_s of (a, b) for every b: t_tran_s + t_cmp_s.
            row = ((t_up[a] + t_down) + (t_up + t_down[a])) + (t_cmp[a] + t_cmp)
            row[a] = math.inf
            b = int(np.argmin(row))
            if row[b] < best_latency:
                best, best_latency = (a, b), row[b]
    if best is None:
        raise ConfigurationError("every split pair's step latency overflows")
    a, b = best
    return SplitConfig(device_a_id=candidates[a].id, device_b_id=candidates[b].id, n_steps=steps)
