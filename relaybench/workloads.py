"""The three benchmark workloads, driven only through relaydiff's public API.

Each workload is a closed loop with one client: the next job starts when the
previous one has returned. A job's inputs are derived from the workload seed
and the job's index alone, generated before the job's clock starts, and its
outputs are checked after the clock stops.

In a traced run each job is followed by a replay: the benchmark repeats, one
public call at a time and each inside its own span, the calls that the job
made inside the program. Self times of ``run_sweep`` and the CLI are the job
span minus those replayed spans. Nothing here imports a private name, so the
benchmark keeps working when internals move.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import statistics
import tracemalloc
from pathlib import Path

import relaydiff as rd
from relaydiff.cli import main as cli_main

from measure import fmt, replay_self

AREA_M = (500.0, 500.0)

# Output fields compared against the recorded references: the sweep CSV
# columns and trace-summary fields as the benchmark was defined. Fields added
# later are ignored, so additive format changes keep passing.
SWEEP_COLUMNS = (
    "t_max_s", "e_max_j", "method", "seed", "objective_bytes", "quality_norm",
    "n_stages", "t_total_s", "e_total_j", "t_tran_s", "t_cmp_s",
    "tran_fraction", "feasible", "replans",
)
TRACE_FIELDS = (
    "method", "stages_completed", "replans", "t_total_s", "e_total_j",
    "t_tran_s", "t_cmp_s", "tran_fraction", "completed", "feasible",
)


def capacity_units(budget: float, unit: float) -> int:
    """floor(budget / unit) as the DP rounds a capacity: never above the budget."""

    units = math.floor(budget / unit)
    while units > 0 and units * unit > budget:
        units -= 1
    return max(units, 0)


def dp_cells(scenario, budgets, disc) -> int:
    """Cells of the (devices + 1) x (time units + 1) x (energy units + 1) DP table.

    Computed from the inputs, not counted inside the program.
    """

    disc = rd.default_discretization(budgets) if disc is None else disc
    n = sum(1 for dev in scenario.devices if dev.available)
    return (
        (n + 1)
        * (capacity_units(budgets.t_max_s, disc.dt_s) + 1)
        * (capacity_units(budgets.e_max_j, disc.de_j) + 1)
    )


def check_plan(scenario, plan, budgets) -> list[str]:
    """Invariants of a plan that hold for every seed."""

    problems = []
    totals = rd.aggregate_costs(cost for _, cost in plan.stages)
    if totals.t_total_s > budgets.t_max_s or totals.e_total_j > budgets.e_max_j:
        problems.append(
            f"plan totals t={totals.t_total_s!r} e={totals.e_total_j!r} exceed {budgets}"
        )
    size = 0
    for dev_id, cost in plan.stages:
        try:
            dev = scenario.device(dev_id)
        except rd.ConfigurationError:
            problems.append(f"plan selects unknown device {dev_id}")
            continue
        size += dev.variant.size_bytes
        if not dev.available:
            problems.append(f"plan selects unavailable device {dev_id}")
        if cost != rd.stage_cost_for(scenario, dev):
            problems.append(f"plan stage cost of device {dev_id} differs from the cost model")
    if size != plan.objective_bytes:
        problems.append(f"objective_bytes {plan.objective_bytes} != selected bytes {size}")
    return problems


def check_sweep_rows(rows, spec) -> list[str]:
    """Invariants of one sweep's rows; swallowed errors count as failures."""

    problems = []
    cells: dict = {}
    for row in rows:
        t_max, e_max, method = row["t_max_s"], row["e_max_j"], row["method"]
        if row["feasible"] is False and row["n_stages"] == 0:
            problems.append(f"cell ({t_max}, {e_max}) {method}: error swallowed into an empty row")
        if method in ("dp", "no_ds") and (row["t_total_s"] > t_max or row["e_total_j"] > e_max):
            problems.append(f"cell ({t_max}, {e_max}) {method}: totals exceed the budgets")
        cells.setdefault((t_max, e_max), {})[method] = row
    expected = {(t, e) for t in spec.t_max_grid for e in spec.e_max_grid}
    if set(cells) != expected or any(set(c) != set(spec.methods) for c in cells.values()):
        problems.append("sweep rows do not cover every (cell, method) exactly once")
    for key, by_method in cells.items():
        if "dp" in by_method and "no_ds" in by_method:
            if by_method["dp"]["objective_bytes"] < by_method["no_ds"]["objective_bytes"]:
                problems.append(f"cell {key}: dp objective below no_ds")
    if len(rows) != len(expected) * len(spec.methods):
        problems.append(f"{len(rows)} sweep rows, expected {len(expected) * len(spec.methods)}")
    return problems


def sweep_record(rows) -> list:
    return [[fmt(row[column]) for column in SWEEP_COLUMNS] for row in rows]


class Workload:
    """One job type. Subclasses define inputs, the job, checks and the replay."""

    name = ""
    # The first jobs of a traced run whose exact counts are reported; a traced
    # run always completes at least this many.
    count_jobs = 1

    def __init__(self, seed: int, workdir: Path, rec):
        self.seed = seed
        self.workdir = workdir
        self.rec = rec

    def job_seed(self, i: int) -> int:
        return self.seed * 1_000_003 + i

    def setup(self):
        """Fixed inputs of the run; returns the first job's input."""

        return self.make_input(0)

    def make_input(self, i: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> tuple[list, list[str]]:
        """(record compared with the reference, invariant violations)."""

        raise NotImplementedError

    def replay(self, i: int, inp, out) -> list[str]:
        """Traced runs only: per-layer spans and counts; returns violations."""

        raise NotImplementedError

    def layer_metrics(self) -> dict:
        raise NotImplementedError

    # helpers over the recorded spans of this workload's jobs
    def durations(self, name: str, setup: bool = False) -> list[float]:
        prefix = f"{self.name}:"
        return [
            s.duration for s in self.rec.closed()
            if s.name == name and s.job and s.job.startswith(prefix)
            and (s.job == f"{self.name}:setup") == setup
        ]

    def replay_self_ms(self, call: str, replayed: set[str]) -> list[float]:
        """Per job: the ``call`` span minus the spans replaying its parts, in ms."""

        jobs: dict = {}
        for s in self.rec.closed():
            if s.job and s.job.startswith(f"{self.name}:") and not s.job.endswith(":setup"):
                jobs.setdefault(s.job, []).append(s)
        return [
            replay_self(total.duration, [s.duration for s in spans if s.name in replayed]) * 1e3
            for spans in jobs.values()
            for total in spans if total.name == call
        ]

    def median_ms(self, name: str, setup: bool = False) -> float:
        return statistics.median(self.durations(name, setup)) * 1e3

    def per_unit_us(self, units: dict) -> float:
        """Median of span duration / units of work, over the spans in ``units``, in us."""

        return statistics.median([s.duration / units[s.id] for s in self.rec.closed() if s.id in units]) * 1e6

    @contextlib.contextmanager
    def peak_alloc(self, name: str, sink: list):
        """Span plus tracemalloc peak, in MB, around one replayed call."""

        with self.rec.span(name):
            tracemalloc.start()
            try:
                yield
                sink.append(tracemalloc.get_traced_memory()[1] / 2**20)
            finally:
                tracemalloc.stop()


class SweepGrid(Workload):
    """run_sweep over the default 6x6 budget grid on a fresh 40-device world."""

    name = "sweep-grid"
    count_jobs = 3
    n_devices = 40

    def __init__(self, seed, workdir, rec):
        super().__init__(seed, workdir, rec)
        self.spec = rd.SweepSpec()
        self.split_units: dict = {}
        self.cells: list[int] = []

    def make_input(self, i):
        with self.rec.span("scenario.generate"):
            return rd.generate_scenario(self.n_devices, AREA_M, seed=self.job_seed(i))

    def run(self, scenario):
        with self.rec.span("sweep.run_sweep"):
            rows = rd.run_sweep(self.spec, scenario=scenario)
        with self.rec.span("sweep.rows_to_csv"):
            rd.rows_to_csv(rows)
        return rows

    def check(self, scenario, rows):
        return sweep_record(rows), check_sweep_rows(rows, self.spec)

    def replay(self, i, scenario, rows):
        problems = []
        span = self.rec.span
        for t_max in self.spec.t_max_grid:
            for e_max in self.spec.e_max_grid:
                budgets = rd.Budgets(t_max_s=t_max, e_max_j=e_max)
                with span("scheduler.select_dp"):
                    dp_plan = rd.select_devices_dp(scenario, budgets)
                with span("scheduler.select_no_ds"):
                    no_ds_plan = rd.select_devices_no_ds(scenario, budgets)
                for plan in (dp_plan, no_ds_plan):
                    problems += check_plan(scenario, plan, budgets)
                    with span("pipeline.simulate"):
                        rd.simulate_pipeline(scenario, plan, rd.NO_FAILURES, budgets)
                if dp_plan.n_stages:
                    steps = scenario.steps_per_stage * dp_plan.n_stages
                    with span("baseline_split.pick_split_pair"):
                        config = rd.pick_split_pair(scenario, n_steps=steps)
                    with span("baseline_split.simulate_split"):
                        rd.simulate_split(scenario, config, budgets)
        if i < self.count_jobs:
            self.cells.append(len({(r["t_max_s"], r["e_max_j"]) for r in rows}))
        devices = scenario.devices
        with span("cost_model.split_step_cost") as pairs:
            for a in devices:
                for b in devices:
                    if a.id != b.id:
                        rd.split_step_cost(a, b, scenario.link, scenario.feature_bytes,
                                           0.5, scenario.server_pos_m)
        self.split_units[pairs.span.id] = len(devices) * (len(devices) - 1)
        return problems

    def layer_metrics(self):
        self_ms = self.replay_self_ms("sweep.run_sweep", {
            "scheduler.select_dp", "scheduler.select_no_ds", "pipeline.simulate",
            "baseline_split.pick_split_pair", "baseline_split.simulate_split",
        })
        return {
            "scenario.generate_ms": (self.median_ms("scenario.generate"), "ms"),
            "cost_model.split_step_us": (self.per_unit_us(self.split_units), "us"),
            "scheduler.select_dp_ms": (self.median_ms("scheduler.select_dp"), "ms"),
            "scheduler.select_no_ds_ms": (self.median_ms("scheduler.select_no_ds"), "ms"),
            "pipeline.simulate_ms": (self.median_ms("pipeline.simulate"), "ms"),
            "baseline_split.pick_ms": (self.median_ms("baseline_split.pick_split_pair"), "ms"),
            "baseline_split.simulate_ms": (self.median_ms("baseline_split.simulate_split"), "ms"),
            "sweep.self_ms": (statistics.median(self_ms), "ms"),
            "sweep.rows_to_csv_ms": (self.median_ms("sweep.rows_to_csv"), "ms"),
            "sweep.cells": (sum(self.cells) / len(self.cells), "count"),
        }


class PlanCold(Workload):
    """One select_devices_dp per job on a world no earlier job saw.

    Three jobs in four plan n=500 on the default 200-unit grid (deep tables);
    every fourth plans n=40 on a pinned 1000x1000 grid (wide tables). Each
    mode walks the 3x3 budget grid in blocks of nine, every block in its own
    seeded order, so every run plans the same mix of budgets: job time
    depends strongly on the budgets, and an unbalanced mix would move the
    percentiles from seed to seed.
    """

    name = "plan-cold"
    count_jobs = 8
    budget_grid = tuple(
        (t_max, e_max) for t_max in (1.0, 2.0, 3.0) for e_max in (100.0, 200.0, 300.0)
    )

    def __init__(self, seed, workdir, rec):
        super().__init__(seed, workdir, rec)
        self.cost_units: dict = {}
        self.job_cells: list[int] = []
        self.cells_timed: list[tuple[int, float]] = []
        self.peaks: list[float] = []

    def make_input(self, i):
        wide = i % 4 == 3
        k = i // 4 if wide else 3 * (i // 4) + i % 4  # index among jobs of this mode
        block = random.Random(f"{self.seed}:{wide}:{k // 9}").sample(self.budget_grid, 9)
        t_max, e_max = block[k % 9]
        budgets = rd.Budgets(t_max_s=t_max, e_max_j=e_max)
        with self.rec.span("scenario.generate"):
            scenario = rd.generate_scenario(40 if wide else 500, AREA_M, seed=self.job_seed(i))
        disc = rd.Discretization(t_max / 1000, e_max / 1000) if wide else None
        return scenario, budgets, disc

    def run(self, inp):
        scenario, budgets, disc = inp
        with self.rec.span("scheduler.select_dp") as self.select:
            return rd.select_devices_dp(scenario, budgets, disc)

    def check(self, inp, plan):
        scenario, budgets, _ = inp
        return [list(plan.device_ids), plan.objective_bytes], check_plan(scenario, plan, budgets)

    def replay(self, i, inp, plan):
        scenario, budgets, disc = inp
        cells = dp_cells(scenario, budgets, disc)
        self.cells_timed.append((cells, self.select.span.duration))
        if i < self.count_jobs:
            self.job_cells.append(cells)
            with self.peak_alloc("scheduler.select_dp.tracemalloc", self.peaks):
                rd.select_devices_dp(scenario, budgets, disc)
        with self.rec.span("cost_model.stage_cost_for") as costs:
            for dev in scenario.devices:
                rd.stage_cost_for(scenario, dev)
        self.cost_units[costs.span.id] = len(scenario.devices)
        return []

    def layer_metrics(self):
        cells = sum(c for c, _ in self.cells_timed)
        seconds = math.fsum(t for _, t in self.cells_timed)
        return {
            "scenario.generate_ms": (self.median_ms("scenario.generate"), "ms"),
            "cost_model.stage_cost_us": (self.per_unit_us(self.cost_units), "us"),
            "scheduler.select_dp_ms": (self.median_ms("scheduler.select_dp"), "ms"),
            "scheduler.select_dp_peak_mb": (max(self.peaks), "MB"),
            "scheduler.dp_cells": (sum(self.job_cells) / len(self.job_cells), "count"),
            "scheduler.dp_mcells_per_s": (cells / seconds / 1e6, "Mcells/s"),
        }


class RecoverChurn(Workload):
    """In-process `relaydiff simulate --fail-prob 0.3` of one fixed plan.

    Exit 0 (recovered) and exit 4 (no feasible continuation, partial trace
    written) are both correct outcomes; each job draws failures from its own
    --fail-seed.

    Every run uses the same world, and the workload seed draws only the
    failures: a job's size follows the plan's, which differs widely between
    worlds (4 to 6 stages and 1.3 to 2.1 re-plans a job over ten seeded
    worlds), so a world per seed would move the metrics from seed to seed.
    """

    name = "recover-churn"
    count_jobs = 100
    budgets = rd.Budgets(t_max_s=3.0, e_max_j=300.0)
    fail_prob = 0.3
    world_seed = 1

    def __init__(self, seed, workdir, rec):
        super().__init__(seed, workdir, rec)
        self.scenario_path = workdir / "scenario.json"
        self.plan_path = workdir / "plan.json"
        self.trace_path = workdir / "trace.json"
        self.copy_path = workdir / "trace-copy.json"
        self.cost_units: dict = {}
        self.replans: list[int] = []
        self.events: list[int] = []
        self.recovered: list[bool] = []
        self.recovery_ms: list[float] = []
        self.recovery_replans = 0

    def setup(self):
        with self.rec.span("scenario.generate"):
            scenario = rd.generate_scenario(40, AREA_M, seed=self.world_seed)
        with self.rec.span("scheduler.select_dp"):
            plan = rd.select_devices_dp(scenario, self.budgets)
        with self.rec.span("scenario.save"):
            rd.save_scenario(scenario, self.scenario_path)
        with self.rec.span("scheduler.save_plan"):
            rd.save_plan(plan, self.plan_path)
        return self.make_input(0)

    def make_input(self, i):
        self.trace_path.unlink(missing_ok=True)
        return [
            "simulate", "-s", str(self.scenario_path), "-p", str(self.plan_path),
            "--fail-prob", str(self.fail_prob), "--fail-seed", str(self.job_seed(i)),
            "-o", str(self.trace_path),
        ]

    def run(self, argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            with self.rec.span("cli.main"):
                return cli_main(argv)

    def check(self, argv, code):
        if code not in (0, 4):
            return [code], [f"exit code {code}"]
        try:
            trace = rd.load_trace(self.trace_path)
        except (OSError, rd.RelaydiffError) as exc:
            return [code], [f"trace not readable: {exc}"]
        problems = []
        if trace.completed != (code == 0):
            problems.append(f"exit {code} with completed={trace.completed}")
        if code == 0 and not (
            trace.feasible
            and trace.t_total_s <= self.budgets.t_max_s
            and trace.e_total_j <= self.budgets.e_max_j
        ):
            problems.append("recovered run exceeds the original budgets")
        if not math.isclose(trace.t_total_s, trace.t_tran_s + trace.t_cmp_s, rel_tol=1e-12, abs_tol=1e-12):
            problems.append("t_total_s is not t_tran_s + t_cmp_s")
        rd.save_trace(trace, self.copy_path)
        if rd.load_trace(self.copy_path) != trace:
            problems.append("load_trace(save_trace(trace)) does not round-trip")
        summary = rd.trace_summary(trace)
        return [code] + [fmt(summary[f]) for f in TRACE_FIELDS], problems

    def replay(self, i, argv, code):
        span = self.rec.span
        with span("scenario.load"):
            scenario = rd.load_scenario(self.scenario_path)
        with span("scheduler.load_plan"):
            plan = rd.load_plan(self.plan_path)
        failures = rd.FailureSpec(per_stage_prob=self.fail_prob, rng_seed=self.job_seed(i))
        with span("pipeline.simulate") as sim:
            try:
                trace = rd.simulate_pipeline(scenario, plan, failures)
            except rd.RecoveryInfeasible as exc:
                trace = exc.trace
        with span("pipeline.save_trace"):
            rd.save_trace(trace, self.copy_path)
        with span("pipeline.load_trace"):
            rd.load_trace(self.copy_path)
        with span("pipeline.simulate_failure_free") as clean:
            rd.simulate_pipeline(scenario, plan)
        for pool, residual in replan_inputs(scenario, plan, trace):
            with span("scheduler.select_dp"):
                rd.select_devices_dp(pool, residual)
        with span("cost_model.stage_cost_for") as costs:
            for dev in scenario.devices:
                rd.stage_cost_for(scenario, dev)
        self.cost_units[costs.span.id] = len(scenario.devices)
        if trace.replans:
            self.recovery_ms.append((sim.span.duration - clean.span.duration) * 1e3)
            self.recovery_replans += trace.replans
        if i < self.count_jobs:
            self.replans.append(trace.replans)
            self.events.append(len(trace.events))
            self.recovered.append(trace.completed)
        if trace.completed != (code == 0):
            return [f"CLI exit {code} disagrees with simulate_pipeline (completed={trace.completed})"]
        return []

    def layer_metrics(self):
        self_ms = self.replay_self_ms(
            "cli.main", {"scenario.load", "scheduler.load_plan", "pipeline.simulate", "pipeline.save_trace"}
        )
        n = len(self.replans)
        return {
            "scenario.generate_ms": (self.median_ms("scenario.generate", setup=True), "ms"),
            "scenario.load_ms": (self.median_ms("scenario.load"), "ms"),
            "cost_model.stage_cost_us": (self.per_unit_us(self.cost_units), "us"),
            "scheduler.select_dp_ms": (self.median_ms("scheduler.select_dp"), "ms"),
            "scheduler.load_plan_ms": (self.median_ms("scheduler.load_plan"), "ms"),
            "pipeline.simulate_ms": (self.median_ms("pipeline.simulate"), "ms"),
            "pipeline.recovery_ms_per_replan": (math.fsum(self.recovery_ms) / max(self.recovery_replans, 1), "ms"),
            "pipeline.replans_per_job": (sum(self.replans) / n, "count"),
            "pipeline.events_per_job": (sum(self.events) / n, "count"),
            "pipeline.recovered_frac": (sum(self.recovered) / n, "frac"),
            "pipeline.save_trace_ms": (self.median_ms("pipeline.save_trace"), "ms"),
            "pipeline.load_trace_ms": (self.median_ms("pipeline.load_trace"), "ms"),
            "cli.self_ms": (statistics.median(self_ms), "ms"),
        }


def replan_inputs(scenario, plan, trace):
    """(surviving pool, residual budgets) of each re-plan a trace records.

    Rebuilt from the events as the simulator documents recovery: a failed
    phase is charged in full, and the scheduler re-plans over the devices
    that neither checkpointed nor failed, with the budgets minus what the
    run has spent so far.
    """

    costs = {dev.id: rd.stage_cost_for(scenario, dev) for dev in scenario.devices}
    phase_cost = {
        "download": ("t_down_s", "e_down_j"),
        "compute": ("t_cmp_s", "e_cmp_j"),
        "upload": ("t_up_s", "e_up_j"),
    }
    transfer, compute, energy = [], [], []
    used, failed = set(), set()
    for event in trace.events:
        if event.kind in phase_cost:
            t_name, e_name = phase_cost[event.kind]
            (compute if event.kind == "compute" else transfer).append(getattr(costs[event.device_id], t_name))
            energy.append(getattr(costs[event.device_id], e_name))
        elif event.kind == "checkpoint":
            used.add(event.device_id)
        elif event.kind == "failure":
            failed.add(event.device_id)
        elif event.kind == "replan":
            spent_t = math.fsum(transfer) + math.fsum(compute)
            residual = rd.Budgets(
                t_max_s=max(plan.budgets.t_max_s - spent_t, 0.0),
                e_max_j=max(plan.budgets.e_max_j - math.fsum(energy), 0.0),
            )
            yield rd.mark_unavailable(scenario, used | failed), residual


WORKLOADS = {w.name: w for w in (SweepGrid, PlanCold, RecoverChurn)}
