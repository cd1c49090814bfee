"""Budget sweeps comparing selection methods, emitted as flat CSV rows.

One row per (t_max, e_max, method, scenario seed). Rows are failure-free,
so ``replans`` is always 0. A pipeline method's plan comes from
:data:`~relaydiff.scheduler.SELECTORS` over the world's fleet costs, and its
row carries the plan's own totals (a plan is a
:class:`~relaydiff.cost_model.CostTotals`, the fsums of its stage costs),
which a failure-free simulation of the plan reproduces bit for bit; so the
plan is not simulated. The split baseline is simulated, with
a fair step count (the scenario's K times the stage count the DP method
achieved in the same cell, so both execute the same number of denoising
steps). Rows are sorted and floats formatted to 6 significant digits, which
makes repeated sweeps with the same seeds byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .baseline_split import SplitConfig, pick_split_pair, simulate_split
from .cost_model import CostTotals, fleet_costs
from .errors import ConfigurationError, RelaydiffError, ValidationError
from .quality import quality
from .scenario import Scenario, generate_scenario
from .scheduler import METHODS, SELECTORS, Budgets

SWEEP_METHODS = METHODS + ("split",)

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
        if type(self.repetitions) is not int or self.repetitions < 1:
            raise ValidationError(
                f"sweep.repetitions: must be an integer >= 1, got {self.repetitions!r}"
            )


def _metrics(objective: int, quality_norm: float, n_stages: int, totals, feasible: bool) -> dict:
    """The columns of a row after ``seed``; ``totals``, a :class:`CostTotals`, is a plan,
    a split trace or no cost at all."""

    return {
        "objective_bytes": objective,
        "quality_norm": quality_norm,
        "n_stages": n_stages,
        "replans": 0,
        "t_total_s": totals.t_total_s,
        "e_total_j": totals.e_total_j,
        "t_tran_s": totals.t_tran_s,
        "t_cmp_s": totals.t_cmp_s,
        "tran_fraction": totals.tran_fraction,
        "feasible": feasible,
    }


# The row of a run that does nothing: no cost, which fits any budgets.
_IDLE = _metrics(0, 0.0, 0, CostTotals(0.0, 0.0, 0.0), True)


def _pipeline_row(scenario: Scenario, plan, budgets: Budgets) -> dict:
    return _metrics(plan.objective_bytes, quality(plan, scenario).normalized, plan.n_stages,
                    plan, plan.fits(budgets))


def _split_row(
    scenario: Scenario, budgets: Budgets, dp_stages: int,
    pair: SplitConfig | RelaydiffError | None,
) -> dict:
    """The split row of a cell; ``pair`` is the world's pick, or the error it raised."""

    n_steps = scenario.steps_per_stage * dp_stages
    if n_steps < 1 or pair is None:
        return _IDLE  # nothing comparable to run
    if isinstance(pair, RelaydiffError):
        raise pair
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
    return _metrics(objective, objective / total if total > 0 else 0.0, 2, trace, trace.feasible)


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
        # A world whose stages cannot be costed (a link rate that underflows)
        # aborts the sweep with that error, whatever the methods. The split
        # pick scores per-step latency only, so one pick serves every cell;
        # without two available devices there is no pair.
        fleet = fleet_costs(world)
        try:
            pair = pick_split_pair(world) if "split" in spec.methods and len(fleet.ids) > 1 else None
        except RelaydiffError as exc:
            pair = exc  # only the split cells that would run a pair fail
        for t_max in spec.t_max_grid:
            for e_max in spec.e_max_grid:
                budgets = Budgets(t_max_s=t_max, e_max_j=e_max)
                try:
                    dp_plan = SELECTORS["dp"](fleet, budgets)
                except RelaydiffError:
                    dp_plan = None
                for method in spec.methods:
                    try:
                        if dp_plan is None and method in ("dp", "split"):
                            raise ConfigurationError("dp plan unavailable for this cell")
                        if method == "split":
                            metrics = _split_row(world, budgets, dp_plan.n_stages, pair)
                        else:
                            plan = dp_plan if method == "dp" else SELECTORS[method](fleet, budgets)
                            metrics = _pipeline_row(world, plan, budgets)
                    except RelaydiffError:
                        # A failing cell becomes an infeasible row, never an abort.
                        metrics = {**_IDLE, "feasible": False}
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
