"""Budget sweeps comparing selection methods, emitted as flat CSV rows.

One row per (t_max, e_max, method, scenario seed). Pipeline methods are
scheduled and then simulated failure-free; the split baseline runs a fair
step count (the scenario's K times the stage count the DP method achieved in
the same cell, so both execute the same number of denoising steps). Rows are
sorted and floats formatted to 6 significant digits, which makes repeated
sweeps with the same seeds byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .baseline_split import SplitConfig, pick_split_pair, simulate_split
from .errors import ConfigurationError, RelaydiffError, ValidationError
from .pipeline import NO_FAILURES, Timeline, simulate_pipeline, trace_summary
from .quality import quality
from .scenario import Scenario, generate_scenario
from .scheduler import (
    Budgets,
    select_devices_dp,
    select_devices_no_ds,
    select_devices_oracle,
)

SWEEP_METHODS = ("dp", "no_ds", "oracle", "split")

DEFAULT_T_MAX_GRID = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
DEFAULT_E_MAX_GRID = (50.0, 100.0, 150.0, 200.0, 250.0, 300.0)
DEFAULT_METHODS = ("dp", "no_ds", "split")

CSV_COLUMNS = (
    "t_max_s",
    "e_max_j",
    "method",
    "seed",
    "objective_bytes",
    "quality_norm",
    "n_stages",
    "t_total_s",
    "e_total_j",
    "t_tran_s",
    "t_cmp_s",
    "tran_fraction",
    "feasible",
    "replans",
)

_SELECTORS = {
    "dp": select_devices_dp,
    "no_ds": select_devices_no_ds,
    "oracle": select_devices_oracle,
}


@dataclass(frozen=True)
class SweepSpec:
    """Grid axes, methods and repetition count of one sweep."""

    t_max_grid: tuple[float, ...] = DEFAULT_T_MAX_GRID
    e_max_grid: tuple[float, ...] = DEFAULT_E_MAX_GRID
    methods: tuple[str, ...] = DEFAULT_METHODS
    repetitions: int = 1

    def __post_init__(self):
        object.__setattr__(self, "t_max_grid", tuple(float(t) for t in self.t_max_grid))
        object.__setattr__(self, "e_max_grid", tuple(float(e) for e in self.e_max_grid))
        object.__setattr__(self, "methods", tuple(self.methods))
        for name in ("t_max_grid", "e_max_grid"):
            grid = getattr(self, name)
            if not grid or list(grid) != sorted(grid) or len(set(grid)) != len(grid):
                raise ValidationError(f"sweep.{name}: must be non-empty strictly ascending, got {grid}")
        if not self.methods or len(set(self.methods)) != len(self.methods):
            raise ValidationError(f"sweep.methods: must be non-empty without duplicates, got {self.methods}")
        for method in self.methods:
            if method not in SWEEP_METHODS:
                raise ValidationError(
                    f"sweep.methods: {method!r} not one of {SWEEP_METHODS}"
                )
        if not isinstance(self.repetitions, int) or self.repetitions < 1:
            raise ValidationError(
                f"sweep.repetitions: must be an integer >= 1, got {self.repetitions!r}"
            )


def _trace_columns(trace) -> dict:
    """The :func:`trace_summary` fields that are CSV columns; the row names its own method."""

    return {
        name: value for name, value in trace_summary(trace).items()
        if name in CSV_COLUMNS and name != "method"
    }


def _empty_metrics() -> dict:
    """The row of a run that does nothing: no cost, which fits any budgets."""

    idle = Timeline().trace(0, 0, True, Budgets(0.0, 0.0), "idle")
    return {"objective_bytes": 0, "quality_norm": 0.0, "n_stages": 0, **_trace_columns(idle)}


def _pipeline_row(scenario: Scenario, plan, budgets: Budgets) -> dict:
    trace = simulate_pipeline(scenario, plan, NO_FAILURES, budgets)
    return {
        "objective_bytes": plan.objective_bytes,
        "quality_norm": quality(plan, scenario).normalized,
        "n_stages": plan.n_stages,
        **_trace_columns(trace),
    }


def _split_pair(scenario: Scenario) -> SplitConfig | None:
    """The world's split pair, or None with fewer than two available devices.

    The pick scores per-step latency only, so one pick serves every budget
    cell; each cell sets its own step count.
    """

    if sum(1 for dev in scenario.devices if dev.available) < 2:
        return None
    return pick_split_pair(scenario)


def _split_row(
    scenario: Scenario, budgets: Budgets, dp_stages: int, pair: SplitConfig | None
) -> dict:
    n_steps = scenario.steps_per_stage * dp_stages
    if n_steps < 1 or pair is None:
        # Nothing comparable to run; an idle run trivially fits the budgets.
        return _empty_metrics()
    config = replace(pair, n_steps=n_steps)
    trace = simulate_split(scenario, config, budgets)
    device_a = scenario.device(config.device_a_id)
    device_b = scenario.device(config.device_b_id)
    phi = config.split_fraction
    # Executed model bytes, phi-weighted across the two segments.
    objective = int(round(
        phi * device_a.variant.size_bytes + (1.0 - phi) * device_b.variant.size_bytes
    ))
    total = scenario.total_model_bytes()
    return {
        "objective_bytes": objective,
        "quality_norm": objective / total if total > 0 else 0.0,
        "n_stages": 2,
        **_trace_columns(trace),
    }


def run_sweep(
    spec: SweepSpec,
    scenario: Scenario | None = None,
    n_devices: int = 20,
    area_m: tuple[float, float] = (500.0, 500.0),
    base_seed: int = 42,
    profile: str = "default",
) -> list[dict]:
    """All sweep rows, sorted by (t_max, e_max, method, seed).

    With a fixed ``scenario`` the sweep covers exactly that world and
    ``repetitions`` must be 1; otherwise repetition r generates a fresh
    scenario with seed ``base_seed + r``.
    """

    if scenario is not None and spec.repetitions != 1:
        raise ConfigurationError("repetitions > 1 need generated scenarios, not a fixed one")

    scenarios = (
        [scenario]
        if scenario is not None
        else [
            generate_scenario(n_devices, area_m, seed=base_seed + rep, profile=profile)
            for rep in range(spec.repetitions)
        ]
    )

    rows = []
    for world in scenarios:
        pair = _split_pair(world) if "split" in spec.methods else None
        for t_max in spec.t_max_grid:
            for e_max in spec.e_max_grid:
                budgets = Budgets(t_max_s=t_max, e_max_j=e_max)
                try:
                    dp_plan = select_devices_dp(world, budgets)
                except RelaydiffError:
                    dp_plan = None
                for method in spec.methods:
                    try:
                        if dp_plan is None and method in ("dp", "split"):
                            raise ConfigurationError("dp plan unavailable for this cell")
                        if method == "split":
                            metrics = _split_row(world, budgets, dp_plan.n_stages, pair)
                        elif method == "dp":
                            metrics = _pipeline_row(world, dp_plan, budgets)
                        else:
                            metrics = _pipeline_row(world, _SELECTORS[method](world, budgets), budgets)
                    except RelaydiffError:
                        # A failing cell becomes an infeasible row, never an abort.
                        metrics = {**_empty_metrics(), "feasible": False}
                    rows.append(
                        {
                            "t_max_s": t_max,
                            "e_max_j": e_max,
                            "method": method,
                            "seed": world.seed,
                            **metrics,
                        }
                    )
    rows.sort(key=lambda r: (r["t_max_s"], r["e_max_j"], r["method"], r["seed"]))
    return rows


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def rows_to_csv(rows: list[dict]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_format_cell(row[column]) for column in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def save_rows_csv(rows: list[dict], path) -> None:
    Path(path).write_text(rows_to_csv(rows))
