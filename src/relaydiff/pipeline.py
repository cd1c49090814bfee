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

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .cost_model import stage_cost_for
from .errors import ConfigurationError, LineageError, RecoveryInfeasible, ValidationError
from .scenario import STAGE_PHASES, TRANSFER_PHASES, Scenario, mark_unavailable
from .scheduler import Budgets, SchedulePlan, select_devices_dp

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
            self, "injected", tuple((int(d), str(p)) for d, p in self.injected)
        )
        seen = set()
        for dev_id, phase in self.injected:
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

    def spent(self) -> tuple[float, float]:
        """(time, energy) charged so far."""

        return math.fsum(self._transfer) + math.fsum(self._compute), math.fsum(self._energy)

    def trace(self, stages_completed: int, replans: int, completed: bool, budgets: Budgets,
              method: str) -> SimTrace:
        t_tran = math.fsum(self._transfer)
        t_cmp = math.fsum(self._compute)
        t_total = t_tran + t_cmp
        e_total = math.fsum(self._energy)
        return SimTrace(
            events=tuple(self._events),
            t_total_s=t_total,
            e_total_j=e_total,
            t_tran_s=t_tran,
            t_cmp_s=t_cmp,
            tran_fraction=t_tran / t_total if t_total > 0 else 0.0,
            stages_completed=stages_completed,
            replans=replans,
            completed=completed,
            feasible=t_total <= budgets.t_max_s and e_total <= budgets.e_max_j,
            method=method,
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
    ``stage_cost_for`` on ``scenario`` within a 1e-12 relative tolerance, so a
    plan made for another scenario raises ValidationError.
    """

    budgets = plan.budgets if budgets is None else budgets
    plan_ids = set(plan.device_ids)
    for dev_id, _ in failures.injected:
        if dev_id not in plan_ids:
            raise ConfigurationError(
                f"injected failure for device {dev_id} which is not in the plan"
            )
    for dev_id, cost in plan.stages:
        # scenario.device raises ConfigurationError for an unknown id.
        expected = stage_cost_for(scenario, scenario.device(dev_id))
        for field in fields(cost):
            stored, recomputed = getattr(cost, field.name), getattr(expected, field.name)
            if not math.isclose(stored, recomputed, rel_tol=1e-12, abs_tol=1e-12):
                raise ValidationError(
                    f"plan stage of device {dev_id}: {field.name} {stored} disagrees with "
                    f"the scenario ({recomputed}); was the plan made for another scenario?"
                )

    rng = np.random.default_rng(failures.rng_seed)
    injected = dict(failures.injected)

    timeline = Timeline()
    used: set[int] = set()
    failed: set[int] = set()
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

        if not stage_failed:
            timeline.emit("checkpoint", dev_id, 0.0, scenario.latent_bytes)
            used.add(dev_id)
            stages_completed += 1
            continue

        # Failure: full phase cost is already charged; retire the device and
        # re-plan the remaining work from the last checkpoint.
        failed.add(dev_id)
        timeline.emit("failure", dev_id, 0.0, 0)
        t_spent, e_spent = timeline.spent()
        residual = Budgets(
            t_max_s=max(budgets.t_max_s - t_spent, 0.0),
            e_max_j=max(budgets.e_max_j - e_spent, 0.0),
        )
        pool = mark_unavailable(scenario, used | failed)
        new_plan = select_devices_dp(pool, residual)
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


# -- trace files ---------------------------------------------------------------


def trace_summary(trace: SimTrace) -> dict:
    """Flat one-record summary, the trace-side columns of the sweep CSV."""

    return {
        "method": trace.method,
        "stages_completed": trace.stages_completed,
        "replans": trace.replans,
        "t_total_s": trace.t_total_s,
        "e_total_j": trace.e_total_j,
        "t_tran_s": trace.t_tran_s,
        "t_cmp_s": trace.t_cmp_s,
        "tran_fraction": trace.tran_fraction,
        "completed": trace.completed,
        "feasible": trace.feasible,
    }


def trace_to_dict(trace: SimTrace) -> dict:
    return {
        **trace_summary(trace),
        "events": [
            {
                "t_start_s": e.t_start_s,
                "t_end_s": e.t_end_s,
                "kind": e.kind,
                "device_id": e.device_id,
                "amount": e.amount,
            }
            for e in trace.events
        ],
    }


def trace_from_dict(data: dict) -> SimTrace:
    if not isinstance(data, dict):
        raise ValidationError(f"trace: expected an object, got {type(data).__name__}")
    events_raw = data.get("events")
    if not isinstance(events_raw, list):
        raise ValidationError("trace.events: expected a list")
    events = []
    for i, raw in enumerate(events_raw):
        path = f"trace.events[{i}]"
        if not isinstance(raw, dict):
            raise ValidationError(f"{path}: expected an object")
        device_id = raw.get("device_id")
        if device_id is not None and (isinstance(device_id, bool) or not isinstance(device_id, int)):
            raise ValidationError(f"{path}.device_id: expected an integer or null")
        try:
            events.append(
                Event(
                    t_start_s=float(raw["t_start_s"]),
                    t_end_s=float(raw["t_end_s"]),
                    kind=raw["kind"],
                    device_id=device_id,
                    amount=int(raw["amount"]),
                )
            )
        except KeyError as exc:
            raise ValidationError(f"{path}: missing required field {exc.args[0]!r}")

    # The simulator's clock starts at 0.0, each event starts exactly where the
    # previous one ended, and markers take no time.
    clock = 0.0
    for i, event in enumerate(events):
        if event.t_start_s != clock:
            raise ValidationError(
                f"trace.events[{i}].t_start_s: {event.t_start_s} is not where the "
                f"timeline stands ({clock})"
            )
        if event.kind in MARKER_KINDS and event.t_end_s != event.t_start_s:
            raise ValidationError(
                f"trace.events[{i}]: a {event.kind} marker must be zero-width, "
                f"got {event.t_start_s}..{event.t_end_s}"
            )
        clock = event.t_end_s

    t_tran = math.fsum(e.duration_s for e in events if e.kind in ("download", "upload"))
    t_cmp = math.fsum(e.duration_s for e in events if e.kind == "compute")
    t_total = t_tran + t_cmp
    tran_fraction = t_tran / t_total if t_total > 0 else 0.0
    for name, recomputed in (
        ("t_tran_s", t_tran),
        ("t_cmp_s", t_cmp),
        ("t_total_s", t_total),
        ("tran_fraction", tran_fraction),
    ):
        stored = data.get(name)
        if isinstance(stored, bool) or not isinstance(stored, (int, float)):
            raise ValidationError(f"trace.{name}: expected a number, got {stored!r}")
        if not math.isclose(float(stored), recomputed, rel_tol=1e-12, abs_tol=1e-12):
            raise ValidationError(f"trace.{name}: {stored} inconsistent with events ({recomputed})")

    def _field(name, kinds):
        value = data.get(name)
        if kinds is bool:
            if not isinstance(value, bool):
                raise ValidationError(f"trace.{name}: expected a boolean, got {value!r}")
            return value
        if kinds is int:
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValidationError(f"trace.{name}: expected an integer >= 0, got {value!r}")
            return value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"trace.{name}: expected a number, got {value!r}")
        return float(value)

    method = str(data.get("method", ""))
    kinds = [e.kind for e in events]
    # A split step computes once on each device and writes no checkpoint.
    stages = kinds.count("compute") / 2 if method == "split" else kinds.count("checkpoint")
    for name, recounted in (("stages_completed", stages), ("replans", kinds.count("replan"))):
        if _field(name, int) != recounted:
            raise ValidationError(f"trace.{name}: {data[name]} inconsistent with events ({recounted})")

    return SimTrace(
        events=tuple(events),
        t_total_s=t_total,
        e_total_j=_field("e_total_j", float),
        t_tran_s=t_tran,
        t_cmp_s=t_cmp,
        tran_fraction=tran_fraction,
        stages_completed=data["stages_completed"],
        replans=data["replans"],
        completed=_field("completed", bool),
        feasible=_field("feasible", bool),
        method=method,
    )


def save_trace(trace: SimTrace, path) -> None:
    Path(path).write_text(json.dumps(trace_to_dict(trace), indent=2, sort_keys=True) + "\n")


def load_trace(path) -> SimTrace:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    return trace_from_dict(data)
