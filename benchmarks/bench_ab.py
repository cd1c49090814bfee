"""Compare this checkout and another one call by call, on the work of both gated workloads.

Both checkouts' ``src/relaydiff`` are copied into a temporary directory
under two package names (``relaydiff_this`` and ``relaydiff_base``) and
imported into one process. Every input runs on both sides, one after the
other, so a host whose speed drifts over minutes slows both sides alike;
separate runs a minute apart cannot resolve a 15% change on such a host.
Which side goes first alternates from input to input and from one block of
four inputs to the next (:func:`sides_in_order`), so each kind of input
runs each side first equally often.

Each input does the work of one job of each workload relaybench gates:

* plan-cold: three in four inputs plan a fresh 500-device world on the
  default 200-unit grid, every fourth a fresh 40-device world on a
  1000x1000 grid, at budgets from {1, 2, 3} s x {100, 200, 300} J. The
  ``generate_scenario`` call is timed as well as ``select_devices_dp``, so
  work cannot move out of the plan timer into the world's construction.
* recover-churn: on the fixed 40-device seed-1 world and its 3 s / 300 J DP
  plan, each written once by each side, ``load_scenario``, ``load_plan``,
  ``simulate_pipeline`` with a per-stage failure probability of 0.3 and a
  per-input seed, ``save_trace`` and ``load_trace``. A run that finds no
  feasible continuation ends with its partial trace, as ``relaydiff
  simulate`` does with exit 4; that is an outcome like a recovered run.

The two sides' worlds (``scenario_to_dict`` and the values of the device
columns), plans (``plan_to_dict``), run outcomes and traces
(``trace_to_dict``) must be identical, input by input. Prints the ratio of
plans per second, then one line per piece with each side's median and on
how many inputs this checkout was faster. Run from the repository root:

    python3 benchmarks/bench_ab.py --base ../parent-checkout --plans 1000
"""

import argparse
import importlib
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AREA_M = (500.0, 500.0)
BUDGET_GRID = [(t_max, e_max) for t_max in (1.0, 2.0, 3.0) for e_max in (100.0, 200.0, 300.0)]
SIDES = ("this", "base")
PIECES = ("select_devices_dp", "generate_scenario", "load_scenario", "load_plan",
          "simulate_pipeline", "save_trace", "load_trace")
FAIL_PROB = 0.3


def load_sides(base: Path, tmp: Path) -> dict:
    """relaydiff of this checkout and of ``base``, imported under their side's names."""

    packages = {}
    for side, root in zip(SIDES, (ROOT, base)):
        name = f"relaydiff_{side}"
        shutil.copytree(root / "src" / "relaydiff", tmp / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        sys.path.insert(0, str(tmp))
        try:
            packages[side] = importlib.import_module(name)
        finally:
            sys.path.remove(str(tmp))
    return packages


def sides_in_order(i: int) -> tuple[str, str]:
    """The sides in the order input ``i`` runs them.

    The input kind repeats every four inputs (:func:`plan_input`), so the
    order flips from one block of four to the next as well as from input to
    input: over every eight inputs, each kind runs each side first as often.
    """

    return SIDES if (i + i // 4) % 2 == 0 else SIDES[::-1]


def plan_input(rd, seed: int, i: int):
    """(n_devices, world seed, budgets, discretization) of input ``i``, built with package ``rd``."""

    wide = i % 4 == 3
    t_max, e_max = random.Random(f"{seed}:{i}").choice(BUDGET_GRID)
    disc = rd.Discretization(t_max / 1000, e_max / 1000) if wide else None
    return 40 if wide else 500, seed * 1_000_003 + i, rd.Budgets(t_max_s=t_max, e_max_j=e_max), disc


def world_fields(rd, scenario) -> tuple:
    """The file form of ``scenario`` and the values of its device columns.

    The column of ``Device`` objects is left out: those of two packages
    never compare equal, and the file form holds their fields.
    """

    columns = {name: value.tolist() if hasattr(value, "tolist") else value
               for name, value in scenario._columns._asdict().items() if name != "devices"}
    return rd.formats.scenario_to_dict(scenario), columns


def churn_files(rd, directory: Path) -> tuple[Path, Path, Path]:
    """(world, plan, trace) paths of the recover-churn job, the first two written by ``rd``."""

    directory.mkdir()
    paths = directory / "world.json", directory / "plan.json", directory / "trace.json"
    world = rd.generate_scenario(40, AREA_M, seed=1)
    rd.save_scenario(world, paths[0])
    rd.save_plan(rd.select_devices_dp(world, rd.Budgets(t_max_s=3.0, e_max_j=300.0)), paths[1])
    return paths


def timed(times: list, call):
    """``call()``, its seconds appended to ``times``."""

    started = time.perf_counter()
    result = call()
    times.append(time.perf_counter() - started)
    return result


def simulate(rd, scenario, plan, failures) -> tuple[bool, object]:
    """(completed, trace) of one run; a run without a feasible continuation keeps its partial trace."""

    try:
        return True, rd.simulate_pipeline(scenario, plan, failures)
    except rd.RecoveryInfeasible as exc:
        return False, exc.trace


def run_input(rd, files, seed: int, i: int, times: dict) -> dict:
    """Input ``i``'s work on package ``rd``, each piece's seconds appended to ``times``.

    Returns what both sides must produce alike, by name.
    """

    n_devices, world_seed, budgets, disc = plan_input(rd, seed, i)
    world_path, plan_path, trace_path = files
    world = timed(times["generate_scenario"],
                  lambda: rd.generate_scenario(n_devices, AREA_M, seed=world_seed))
    plan = timed(times["select_devices_dp"], lambda: rd.select_devices_dp(world, budgets, disc))
    churn = timed(times["load_scenario"], lambda: rd.load_scenario(world_path))
    churn_plan = timed(times["load_plan"], lambda: rd.load_plan(plan_path))
    failures = rd.FailureSpec(per_stage_prob=FAIL_PROB, rng_seed=seed * 1_000_003 + i)
    completed, trace = timed(times["simulate_pipeline"],
                             lambda: simulate(rd, churn, churn_plan, failures))
    timed(times["save_trace"], lambda: rd.save_trace(trace, trace_path))
    loaded = timed(times["load_trace"], lambda: rd.load_trace(trace_path))
    formats = rd.formats
    return {
        "worlds": world_fields(rd, world),
        "plans": formats.plan_to_dict(plan),
        "loaded worlds": world_fields(rd, churn),
        "loaded plans": formats.plan_to_dict(churn_plan),
        "outcomes": completed,
        "traces": formats.trace_to_dict(trace),
        "loaded traces": formats.trace_to_dict(loaded),
    }


def summary(name: str, times: dict) -> str:
    this, base = times["this"][name], times["base"][name]
    won = sum(a < b for a, b in zip(this, base))
    return (f"{name}: median this {statistics.median(this) * 1e3:.3f} ms, "
            f"base {statistics.median(base) * 1e3:.3f} ms; this faster on {won} of {len(this)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True,
                        help="root of the checkout to compare against")
    parser.add_argument("--plans", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    times = {side: {piece: [] for piece in PIECES} for side in SIDES}
    infeasible = 0
    with tempfile.TemporaryDirectory() as tmp:
        packages = load_sides(args.base.resolve(), Path(tmp))
        files = {side: churn_files(rd, Path(tmp) / side) for side, rd in packages.items()}
        for i in range(args.plans):
            results = {side: run_input(packages[side], files[side], args.seed, i, times[side])
                       for side in sides_in_order(i)}
            for name, value in results["this"].items():
                if value != results["base"][name]:
                    sys.exit(f"error: input {i}: the {name} differ")
            infeasible += not results["this"]["outcomes"]

    plan_seconds = {side: sum(times[side]["select_devices_dp"]) for side in SIDES}
    print(f"identical worlds, plans, outcomes and traces on {args.plans} inputs "
          f"({infeasible} runs found no feasible continuation); "
          f"plans/s this/base: {plan_seconds['base'] / plan_seconds['this']:.3f}")
    for piece in PIECES:
        print(summary(piece, times))


if __name__ == "__main__":
    main()
