"""Sequential execution of a relay schedule with checkpoint-based recovery.

The edge server walks the plan stage by stage: send the current latent down to
the stage's device, let it run its K denoising steps, receive the result, and
checkpoint it. Devices can fail in any single phase, injected or drawn at
random. A failed phase still costs its full latency and energy (the failure
surfaces when the phase should have finished); everything after the last
checkpoint is lost, the device is retired, and the scheduler is re-invoked
over the surviving pool and the residual budgets to plan the continuation.
If re-planning comes back empty while work remains, the run aborts with
:class:`RecoveryInfeasible` carrying the partial trace.

Checkpoint and re-plan bookkeeping happens on the edge server and is free on
the device budget, so those events are zero-width and carry no energy.

:class:`Timeline` is the one timeline builder: this simulator and the split
baseline both emit their events through it and take their traces from it,
so both account time and energy the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost_model import CostTotals, StageCost, fleet_costs
from .errors import ConfigurationError, LineageError, RecoveryInfeasible, ValidationError
from .scenario import STAGE_PHASES, TRANSFER_PHASES, Scenario, _is_device_id
from .scheduler import Budgets, SchedulePlan, _select_dp

EVENT_KINDS = ("download", "compute", "upload", "checkpoint", "failure", "replan")
MARKER_KINDS = ("checkpoint", "failure", "replan")


@dataclass(frozen=True)
class Event:
    """One timeline entry; markers are zero-width.

    ``amount`` is bytes for transfer and checkpoint events, denoising steps
    for compute events, and 0 for failure/replan markers.
    """

    t_start_s: float
    t_end_s: float
    kind: str
    device_id: int | None
    amount: int

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ValidationError(f"event.kind: must be one of {EVENT_KINDS}, got {self.kind!r}")
        if self.t_end_s < self.t_start_s:
            raise ValidationError(
                f"event: t_end_s {self.t_end_s} precedes t_start_s {self.t_start_s}"
            )

    @property
    def duration_s(self) -> float:
        return self.t_end_s - self.t_start_s


@dataclass(frozen=True)
class FailureSpec:
    """What goes wrong during a run.

    ``injected`` deterministically fails the given devices in the given phase
    the first time each one runs a stage. ``per_stage_prob`` additionally
    draws an independent failure chance per executed stage from a dedicated
    RNG seeded with ``rng_seed``; the failing phase is then drawn uniformly.
    """

    injected: tuple[tuple[int, str], ...] = ()
    per_stage_prob: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "injected", tuple((d, str(p)) for d, p in self.injected)
        )
        seen = set()
        for dev_id, phase in self.injected:
            if not _is_device_id(dev_id):
                raise ValidationError(
                    f"failures.injected: device id must be a non-negative integer, got {dev_id!r}"
                )
            if phase not in STAGE_PHASES:
                raise ValidationError(
                    f"failures.injected[{dev_id}]: phase must be one of {STAGE_PHASES}, got {phase!r}"
                )
            if dev_id in seen:
                raise ValidationError(f"failures.injected: duplicate device id {dev_id}")
            seen.add(dev_id)
        if not 0.0 <= self.per_stage_prob < 1.0:
            raise ValidationError(
                f"failures.per_stage_prob: must be in [0, 1), got {self.per_stage_prob!r}"
            )
        if not _is_device_id(self.rng_seed):  # the same rule: an int, not a bool, >= 0
            raise ValidationError(
                f"failures.rng_seed: must be a non-negative integer, got {self.rng_seed!r}"
            )


NO_FAILURES = FailureSpec()


@dataclass(frozen=True)
class SimTrace:
    """Timeline and aggregate accounting of one simulated run.

    The aggregates follow the shared fsum convention: ``t_tran_s`` and
    ``t_cmp_s`` are exactly-rounded sums over the relevant event durations and
    ``t_total_s`` is their sum, so a failure-free run reproduces its plan's
    predicted totals exactly. ``feasible`` compares against the budgets the
    run was asked to respect; ``completed`` distinguishes a finished pipeline
    from a partial trace attached to a RecoveryInfeasible error.
    """

    events: tuple[Event, ...]
    t_total_s: float
    e_total_j: float
    t_tran_s: float
    t_cmp_s: float
    tran_fraction: float
    stages_completed: int
    replans: int
    completed: bool
    feasible: bool
    method: str


class Timeline:
    """The clock, events and cost terms of one run, and the trace they make.

    Each :meth:`emit` appends an event that starts where the clock stands and
    advances it by the event's duration. Download and upload durations count
    as transfer time and compute durations as compute time; markers count
    as neither. Every nonzero energy term is kept, and totals are fsums, so
    the order in which terms are emitted does not change them.
    """

    def __init__(self):
        self._clock = 0.0
        self._events: list[Event] = []
        self._transfer: list[float] = []
        self._compute: list[float] = []
        self._energy: list[float] = []

    def emit(self, kind: str, device_id: int | None, duration: float, amount: int,
             *energies: float) -> None:
        start = self._clock
        self._clock = start + duration
        self._events.append(
            Event(t_start_s=start, t_end_s=self._clock, kind=kind, device_id=device_id, amount=amount)
        )
        if kind in TRANSFER_PHASES:
            self._transfer.append(duration)
        elif kind == "compute":
            self._compute.append(duration)
        for energy in energies:
            if energy:
                self._energy.append(energy)

    def totals(self) -> CostTotals:
        """The time and energy charged so far."""

        return CostTotals(math.fsum(self._transfer), math.fsum(self._compute),
                          math.fsum(self._energy))

    def trace(self, stages_completed: int, replans: int, completed: bool, budgets: Budgets,
              method: str) -> SimTrace:
        totals = self.totals()
        return SimTrace(
            events=tuple(self._events),
            t_total_s=totals.t_total_s,
            e_total_j=totals.e_total_j,
            t_tran_s=totals.t_tran_s,
            t_cmp_s=totals.t_cmp_s,
            tran_fraction=totals.tran_fraction,
            stages_completed=stages_completed,
            replans=replans,
            completed=completed,
            feasible=totals.fits(budgets),
            method=method,
        )


def check_stages(scenario: Scenario, plan: SchedulePlan) -> None:
    """Raise unless every stage of ``plan`` has the cost ``scenario`` gives its device.

    Raises ConfigurationError for a device the scenario lacks, and
    ValidationError for one the scenario marks unavailable. The stored costs
    are then compared with the scenario's
    :func:`~relaydiff.cost_model.fleet_costs`, built now if no earlier call
    built it, so a world with any available device that cannot be costed
    raises its ConfigurationError; a stored cost that disagrees beyond a
    1e-12 relative tolerance raises ValidationError.
    """

    ids = plan.device_ids
    for dev_id in ids:
        if not scenario.device(dev_id).available:
            raise ValidationError(
                f"plan stage of device {dev_id}: the scenario marks the device unavailable; "
                "was the plan made for another scenario?"
            )
    fleet = fleet_costs(scenario)
    rows = np.searchsorted(fleet.ids, ids)
    columns = (column[rows].tolist() for column in fleet.phases())
    for (dev_id, cost), recomputed in zip(plan.stages, zip(*columns)):
        for name, stored, expected in zip(StageCost._fields, cost, recomputed):
            if not math.isclose(stored, expected, rel_tol=1e-12, abs_tol=1e-12):
                raise ValidationError(
                    f"plan stage of device {dev_id}: {name} {stored} disagrees with "
                    f"the scenario ({expected}); was the plan made for another scenario?"
                )


def simulate_pipeline(
    scenario: Scenario,
    plan: SchedulePlan,
    failures: FailureSpec = NO_FAILURES,
    budgets: Budgets | None = None,
) -> SimTrace:
    """Run ``plan`` on ``scenario`` and return the trace.

    ``budgets`` defaults to the plan's own; the explicit parameter exists so a
    caller can judge feasibility (and recovery headroom) against different
    caps than the plan was built for. Every stage's stored cost must match
    the scenario's within a 1e-12 relative tolerance, on a device the
    scenario marks available (:func:`check_stages`), so a plan made for
    another scenario raises ValidationError, and a world with any available
    device that cannot be costed raises ConfigurationError, as a selector
    would. Every re-plan of the run selects on a subset of the scenario's
    :class:`~relaydiff.cost_model.FleetCosts`, without the used and failed
    devices.
    """

    budgets = plan.budgets if budgets is None else budgets
    plan_ids = set(plan.device_ids)
    for dev_id, _ in failures.injected:
        if dev_id not in plan_ids:
            raise ConfigurationError(
                f"injected failure for device {dev_id} which is not in the plan"
            )
    check_stages(scenario, plan)
    fleet = fleet_costs(scenario)

    rng = np.random.default_rng(failures.rng_seed)
    injected = dict(failures.injected)

    timeline = Timeline()
    retired: set[int] = set()
    stages_completed = 0
    replans = 0
    queue = list(plan.stages)

    while queue:
        dev_id, cost = queue.pop(0)
        fail_phase = injected.pop(dev_id, None)
        if fail_phase is None and failures.per_stage_prob > 0.0:
            if rng.random() < failures.per_stage_prob:
                fail_phase = STAGE_PHASES[int(rng.integers(0, len(STAGE_PHASES)))]

        phases = (
            ("download", cost.t_down_s, cost.e_down_j, scenario.latent_bytes),
            ("compute", cost.t_cmp_s, cost.e_cmp_j, scenario.steps_per_stage),
            ("upload", cost.t_up_s, cost.e_up_j, scenario.latent_bytes),
        )
        stage_failed = False
        for kind, duration, energy, amount in phases:
            timeline.emit(kind, dev_id, duration, amount, energy)
            if kind == fail_phase:
                stage_failed = True
                break

        # A device runs one stage at most, whether it completes or fails.
        retired.add(dev_id)
        if not stage_failed:
            timeline.emit("checkpoint", dev_id, 0.0, scenario.latent_bytes)
            stages_completed += 1
            continue

        # Failure: full phase cost is already charged; re-plan the remaining
        # work from the last checkpoint.
        timeline.emit("failure", dev_id, 0.0, 0)
        spent = timeline.totals()
        residual = Budgets(
            t_max_s=max(budgets.t_max_s - spent.t_total_s, 0.0),
            e_max_j=max(budgets.e_max_j - spent.e_total_j, 0.0),
        )
        pool = fleet.subset(np.array([dev_id not in retired for dev_id in fleet.ids.tolist()]))
        new_plan = _select_dp(pool, residual)
        replans += 1
        timeline.emit("replan", None, 0.0, 0)
        if not new_plan.stages:
            raise RecoveryInfeasible(
                f"no feasible continuation after device {dev_id} failed in {fail_phase} "
                f"(residual budgets t={residual.t_max_s:.6g} s, e={residual.e_max_j:.6g} J)",
                trace=timeline.trace(stages_completed, replans, False, budgets, plan.method),
            )
        queue = list(new_plan.stages)

    return timeline.trace(stages_completed, replans, True, budgets, plan.method)


def aggregate_latent_lineage(trace: SimTrace) -> list[int]:
    """Device ids whose checkpoints form the final latent, in stage order."""

    if not trace.completed:
        raise LineageError("lineage is undefined for a run that did not complete")
    return [e.device_id for e in trace.events if e.kind == "checkpoint"]
