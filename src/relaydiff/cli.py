"""Command-line harness.

Subcommands cover the full workflow: generate a scenario, schedule it with
one of the scheduler's methods (DP, the greedy baseline, or the exhaustive
oracle, taken from :data:`~relaydiff.scheduler.SELECTORS`), simulate a plan
with optional failures, run the split baseline, and sweep budget grids into
CSV.

Exit codes: 0 success, 2 usage errors (argparse), 3 validation,
configuration or file (OSError) errors, 4 infeasible recovery (the partial
trace is still written when -o is given).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .baseline_split import SplitConfig, pick_split_pair, simulate_split
from .cost_model import fleet_costs
from .errors import ConfigurationError, RecoveryInfeasible, ValidationError
from .formats import load_plan, load_scenario, save_plan, save_scenario, save_trace, trace_summary
from .pipeline import FailureSpec, simulate_pipeline
from .quality import quality
from .scenario import generate_scenario
from .scheduler import METHODS, SELECTORS, Budgets, Discretization
from .sweep import (
    DEFAULT_E_MAX_GRID,
    DEFAULT_METHODS,
    DEFAULT_T_MAX_GRID,
    SWEEP_METHODS,
    SweepSpec,
    run_sweep,
    save_rows_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_RECOVERY = 4


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _parse_area(text: str) -> tuple[float, float]:
    parts = text.lower().split("x")
    try:
        if len(parts) == 1:
            side = float(parts[0])
            return (side, side)
        if len(parts) == 2:
            return (float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected WIDTHxHEIGHT or SIDE, got {text!r}")


def _parse_fail(text: str) -> tuple[int, str]:
    dev_id, sep, phase = text.partition(":")
    try:
        if not sep:
            raise ValueError
        return (int(dev_id), phase)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected DEVICE_ID:PHASE, got {text!r}")


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _parse_methods(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _print_record(record: dict, fmt: str) -> None:
    if fmt == "csv":
        print(",".join(record))
        print(",".join(str(v).lower() if isinstance(v, bool) else str(v) for v in record.values()))
    else:
        print(json.dumps(record, sort_keys=True))


def _budgets_from(args, default_t: float | None = None, default_e: float | None = None) -> Budgets:
    t_max = args.t_max if args.t_max is not None else default_t
    e_max = args.e_max if args.e_max is not None else default_e
    if t_max is None or e_max is None:
        raise ConfigurationError("both --t-max and --e-max are required here")
    return Budgets(t_max_s=t_max, e_max_j=e_max)


def cmd_gen_scenario(args) -> int:
    scenario = generate_scenario(
        args.devices, args.area, seed=args.seed, profile=args.profile,
        class_a_fraction=args.class_a_fraction,
    )
    save_scenario(scenario, args.out)
    print(f"wrote {args.out} ({len(scenario.devices)} devices, seed {scenario.seed})")
    return EXIT_OK


def cmd_schedule(args) -> int:
    scenario = load_scenario(args.scenario)
    budgets = _budgets_from(args)
    grid = ()  # DP's grid, the one argument a method takes past the budgets
    if args.dt is not None or args.de is not None:
        if args.method != "dp":
            raise ConfigurationError("--dt and --de apply to --method dp only")
        if args.dt is None or args.de is None:
            raise ConfigurationError("--dt and --de must be given together")
        grid = (Discretization(dt_s=args.dt, de_j=args.de),)
    plan = SELECTORS[args.method](fleet_costs(scenario), budgets, *grid)
    save_plan(plan, args.out)
    score = quality(plan, scenario)
    print(
        f"method={plan.method} stages={plan.n_stages} objective_bytes={plan.objective_bytes} "
        f"quality_norm={score.normalized:.6g} t_total_s={plan.t_total_s:.6g} "
        f"e_total_j={plan.e_total_j:.6g} out={args.out}"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    plan = load_plan(args.plan)
    budgets = None
    if args.t_max is not None or args.e_max is not None:
        budgets = _budgets_from(
            args, default_t=plan.budgets.t_max_s, default_e=plan.budgets.e_max_j
        )
    failures = FailureSpec(
        injected=tuple(args.fail or ()),
        per_stage_prob=args.fail_prob,
        rng_seed=args.fail_seed,
    )
    try:
        trace = simulate_pipeline(scenario, plan, failures, budgets)
    except RecoveryInfeasible as exc:
        if args.out and exc.trace is not None:
            save_trace(exc.trace, args.out)
            print(f"partial trace written to {args.out}", file=sys.stderr)
        raise
    if args.out:
        save_trace(trace, args.out)
    _print_record(trace_summary(trace), args.format)
    return EXIT_OK


def cmd_split(args) -> int:
    scenario = load_scenario(args.scenario)
    budgets = _budgets_from(args, default_t=2.0, default_e=200.0)
    if (args.device_a is None) != (args.device_b is None):
        raise ConfigurationError("--device-a and --device-b must be given together")
    steps = args.steps if args.steps is not None else scenario.steps_per_stage
    if args.device_a is None:
        config = pick_split_pair(scenario, n_steps=steps)
        if args.phi != config.split_fraction:
            config = SplitConfig(
                device_a_id=config.device_a_id, device_b_id=config.device_b_id,
                split_fraction=args.phi, n_steps=steps,
            )
    else:
        config = SplitConfig(
            device_a_id=args.device_a, device_b_id=args.device_b,
            split_fraction=args.phi, n_steps=steps,
        )
    trace = simulate_split(scenario, config, budgets)
    if args.out:
        save_trace(trace, args.out)
    record = {
        "device_a": config.device_a_id,
        "device_b": config.device_b_id,
        "split_fraction": config.split_fraction,
        **trace_summary(trace),
    }
    _print_record(record, args.format)
    return EXIT_OK


def cmd_sweep(args) -> int:
    spec = SweepSpec(
        t_max_grid=args.t_grid,
        e_max_grid=args.e_grid,
        methods=args.methods,
        repetitions=args.reps,
    )
    scenario = load_scenario(args.scenario) if args.scenario else None
    rows = run_sweep(
        spec,
        scenario=scenario,
        n_devices=args.devices,
        area_m=args.area,
        base_seed=args.seed,
        profile=args.profile,
    )
    if args.format == "json":
        Path(args.out).write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    else:
        save_rows_csv(rows, args.out)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaydiff",
        description="Schedule and simulate edge-relayed multi-stage diffusion pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scenario", help="generate a random scenario file")
    p.add_argument("--devices", "-n", type=_positive_int, default=20, help="number of devices")
    p.add_argument("--area", type=_parse_area, default=(500.0, 500.0), metavar="WxH",
                   help="area in meters, e.g. 500x500")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", default="default")
    p.add_argument("--class-a-fraction", type=float, default=None)
    p.add_argument("--out", "-o", required=True, help="output scenario JSON path")
    p.set_defaults(func=cmd_gen_scenario)

    p = sub.add_parser("schedule", help="select devices and write a plan")
    p.add_argument("--scenario", "-s", required=True, help="scenario JSON path")
    p.add_argument("--t-max", type=float, default=None, help="latency budget in seconds")
    p.add_argument("--e-max", type=float, default=None, help="energy budget in joules")
    p.add_argument("--method", choices=METHODS, default="dp",
                   help="oracle is exhaustive, for small fleets")
    p.add_argument("--dt", type=float, default=None, help="DP time unit in seconds")
    p.add_argument("--de", type=float, default=None, help="DP energy unit in joules")
    p.add_argument("--out", "-o", required=True, help="output plan JSON path")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("simulate", help="execute a plan, optionally with failures")
    p.add_argument("--scenario", "-s", required=True)
    p.add_argument("--plan", "-p", required=True)
    p.add_argument("--t-max", type=float, default=None, help="override the plan's latency budget")
    p.add_argument("--e-max", type=float, default=None, help="override the plan's energy budget")
    p.add_argument("--fail", type=_parse_fail, action="append", metavar="ID:PHASE",
                   help="inject a failure, e.g. 3:compute (repeatable)")
    p.add_argument("--fail-prob", type=float, default=0.0, help="per-stage failure probability")
    p.add_argument("--fail-seed", type=int, default=0)
    p.add_argument("--out", "-o", default=None, help="output trace JSON path")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="format of the printed summary record")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("split", help="run the two-device split-inference baseline")
    p.add_argument("--scenario", "-s", required=True)
    p.add_argument("--device-a", type=int, default=None)
    p.add_argument("--device-b", type=int, default=None)
    p.add_argument("--phi", type=float, default=0.5, help="fraction of each step on device A")
    p.add_argument("--steps", type=int, default=None,
                   help="denoising steps (default: the scenario's steps per stage)")
    p.add_argument("--t-max", type=float, default=None, help="latency budget (default 2.0)")
    p.add_argument("--e-max", type=float, default=None, help="energy budget (default 200.0)")
    p.add_argument("--out", "-o", default=None, help="output trace JSON path")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("sweep", help="sweep budget grids and write CSV rows")
    p.add_argument("--scenario", "-s", default=None,
                   help="fixed scenario JSON (otherwise scenarios are generated)")
    p.add_argument("--devices", "-n", type=_positive_int, default=20)
    p.add_argument("--area", type=_parse_area, default=(500.0, 500.0), metavar="WxH")
    p.add_argument("--seed", type=int, default=42, help="base scenario seed")
    p.add_argument("--profile", default="default")
    p.add_argument("--t-grid", type=_parse_grid, default=DEFAULT_T_MAX_GRID,
                   help="comma-separated t_max values")
    p.add_argument("--e-grid", type=_parse_grid, default=DEFAULT_E_MAX_GRID,
                   help="comma-separated e_max values")
    p.add_argument("--methods", type=_parse_methods, default=DEFAULT_METHODS,
                   help=f"comma-separated subset of {','.join(SWEEP_METHODS)}")
    p.add_argument("--reps", type=int, default=1, help="repetitions with distinct seeds")
    p.add_argument("--out", "-o", required=True, help="output CSV path")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call reuses: building one takes ~15x longer than a parse."""

    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except RecoveryInfeasible as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RECOVERY
    except (ValidationError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
