"""Edge-relayed multi-stage diffusion: scheduling, simulation, baselines."""

from .baseline_split import SplitConfig, pick_split_pair, simulate_split
from .cost_model import (
    CostTotals,
    SplitStepCost,
    StageCost,
    aggregate_costs,
    link_rate,
    split_step_cost,
    stage_cost,
    stage_cost_for,
)
from .errors import (
    ConfigurationError,
    LineageError,
    RecoveryInfeasible,
    RelaydiffError,
    ValidationError,
)
from .formats import (
    load_plan,
    load_scenario,
    load_trace,
    save_plan,
    save_scenario,
    save_trace,
    trace_summary,
)
from .pipeline import (
    Event,
    FailureSpec,
    NO_FAILURES,
    SimTrace,
    aggregate_latent_lineage,
    simulate_pipeline,
)
from .quality import QualityScore, quality
from .scenario import (
    ALLOWED_BIT_WIDTHS,
    Device,
    LinkParams,
    ModelVariant,
    PROFILES,
    Scenario,
    generate_scenario,
    mark_unavailable,
)
from .scheduler import (
    Budgets,
    Discretization,
    SchedulePlan,
    default_discretization,
    select_devices_dp,
    select_devices_no_ds,
    select_devices_oracle,
)
from .sweep import SweepSpec, rows_to_csv, run_sweep, save_rows_csv

__version__ = "0.1.0"

__all__ = [
    "ALLOWED_BIT_WIDTHS",
    "Budgets",
    "ConfigurationError",
    "CostTotals",
    "Device",
    "Discretization",
    "Event",
    "FailureSpec",
    "LineageError",
    "LinkParams",
    "ModelVariant",
    "NO_FAILURES",
    "PROFILES",
    "QualityScore",
    "RecoveryInfeasible",
    "RelaydiffError",
    "Scenario",
    "SchedulePlan",
    "SimTrace",
    "SplitConfig",
    "SplitStepCost",
    "StageCost",
    "SweepSpec",
    "ValidationError",
    "aggregate_costs",
    "aggregate_latent_lineage",
    "default_discretization",
    "generate_scenario",
    "link_rate",
    "load_plan",
    "load_scenario",
    "load_trace",
    "mark_unavailable",
    "pick_split_pair",
    "quality",
    "rows_to_csv",
    "run_sweep",
    "save_plan",
    "save_rows_csv",
    "save_scenario",
    "save_trace",
    "select_devices_dp",
    "select_devices_no_ds",
    "select_devices_oracle",
    "simulate_pipeline",
    "simulate_split",
    "split_step_cost",
    "stage_cost",
    "stage_cost_for",
    "trace_summary",
]
