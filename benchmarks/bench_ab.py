"""Compare ``select_devices_dp`` of this checkout and another one, input by input.

Both checkouts' ``src/relaydiff`` are copied into a temporary directory
under two package names (``relaydiff_this`` and ``relaydiff_base``) and
imported into one process. Every input is planned by both sides, one after
the other, the side that goes first alternating from input to input, so a
host whose speed drifts over minutes slows both sides alike; separate runs
a minute apart cannot resolve a 15% change on such a host. The inputs are
those of relaybench's plan-cold workload: three in four plan a fresh
500-device world on the default 200-unit grid, every fourth a fresh
40-device world on a 1000x1000 grid, at budgets from {1, 2, 3} s x
{100, 200, 300} J. Each side generates its own copy of every world, outside
the timed plan call, and the two worlds (``scenario_to_dict`` and the values
of the device columns) and the two plans (``plan_to_dict``) must be
identical. Each side's converters come from its ``formats`` module, or from
``scenario`` and ``scheduler`` in a checkout that predates it.

Work must not move out of the plan timer into the world's construction, so
each side's ``generate_scenario`` call is timed too, and so is a
``load_scenario`` of relaybench's recover-churn world (40 devices, seed 1,
written once by each side), once per input in the same alternating order;
the two loaded worlds must be identical too.

Prints each side's mean and median plan time, the ratio of their plans per
second and how many inputs this checkout planned faster, then the medians
and win counts of the generate and load calls. Run from the repository root:

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


def plan_input(rd, seed: int, i: int):
    """(n_devices, world seed, budgets, discretization) of input ``i``, built with package ``rd``."""

    wide = i % 4 == 3
    t_max, e_max = random.Random(f"{seed}:{i}").choice(BUDGET_GRID)
    disc = rd.Discretization(t_max / 1000, e_max / 1000) if wide else None
    return 40 if wide else 500, seed * 1_000_003 + i, rd.Budgets(t_max_s=t_max, e_max_j=e_max), disc


def converters(rd) -> tuple:
    """(scenario_to_dict, plan_to_dict) of package ``rd``."""

    try:
        formats = importlib.import_module(f"{rd.__name__}.formats")
    except ModuleNotFoundError:
        return rd.scenario.scenario_to_dict, rd.scheduler.plan_to_dict
    return formats.scenario_to_dict, formats.plan_to_dict


def world_fields(rd, scenario) -> tuple:
    """The file form of ``scenario`` and the values of its device columns.

    The column of ``Device`` objects is left out: those of two packages
    never compare equal, and the file form holds their fields.
    """

    columns = {name: value.tolist() if hasattr(value, "tolist") else value
               for name, value in scenario._columns._asdict().items() if name != "devices"}
    return converters(rd)[0](scenario), columns


def timed(call):
    """(seconds, result) of ``call()``."""

    started = time.perf_counter()
    result = call()
    return time.perf_counter() - started, result


def summary(name: str, seconds: dict) -> str:
    this, base = seconds["this"], seconds["base"]
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

    pieces = ("plan", "generate", "load")
    seconds = {piece: {side: [] for side in SIDES} for piece in pieces}
    with tempfile.TemporaryDirectory() as tmp:
        packages = load_sides(args.base.resolve(), Path(tmp))
        churn_world = {side: Path(tmp) / f"{side}.json" for side in SIDES}
        for side, rd in packages.items():
            rd.save_scenario(rd.generate_scenario(40, AREA_M, seed=1), churn_world[side])
        for i in range(args.plans):
            worlds, loaded, plans = {}, {}, {}
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                rd = packages[side]
                n_devices, world_seed, budgets, disc = plan_input(rd, args.seed, i)
                took, scenario = timed(
                    lambda: rd.generate_scenario(n_devices, AREA_M, seed=world_seed))
                seconds["generate"][side].append(took)
                took, plan = timed(lambda: rd.select_devices_dp(scenario, budgets, disc))
                seconds["plan"][side].append(took)
                took, churn = timed(lambda: rd.load_scenario(churn_world[side]))
                seconds["load"][side].append(took)
                worlds[side] = world_fields(rd, scenario)
                loaded[side] = world_fields(rd, churn)
                plans[side] = converters(rd)[1](plan)
            if worlds["this"] != worlds["base"]:
                sys.exit(f"error: input {i}: the worlds differ")
            if loaded["this"] != loaded["base"]:
                sys.exit(f"error: input {i}: the loaded worlds differ")
            if plans["this"] != plans["base"]:
                sys.exit(f"error: input {i}: the plans differ")

    for side in SIDES:
        times = seconds["plan"][side]
        print(f"{side}: mean {statistics.fmean(times) * 1e3:.3f} ms, "
              f"median {statistics.median(times) * 1e3:.3f} ms over {len(times)} plans")
    this, base = seconds["plan"]["this"], seconds["plan"]["base"]
    won = sum(a < b for a, b in zip(this, base))
    print(f"identical plans: {args.plans}; plans/s this/base: {sum(base) / sum(this):.3f}; "
          f"this faster on {won} of {args.plans} inputs")
    print(summary("generate_scenario", seconds["generate"]))
    print(summary("load_scenario (40 devices, seed 1)", seconds["load"]))


if __name__ == "__main__":
    main()
