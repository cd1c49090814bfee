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
the timed call, and the two plans must be identical (``scheduler.plan_to_dict``).

Prints each side's mean and median plan time, the ratio of their plans per
second, and how many inputs this checkout planned faster. Run from the
repository root:

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
    """(scenario, budgets, discretization) of input ``i``, built with package ``rd``."""

    wide = i % 4 == 3
    t_max, e_max = random.Random(f"{seed}:{i}").choice(BUDGET_GRID)
    scenario = rd.generate_scenario(40 if wide else 500, AREA_M, seed=seed * 1_000_003 + i)
    disc = rd.Discretization(t_max / 1000, e_max / 1000) if wide else None
    return scenario, rd.Budgets(t_max_s=t_max, e_max_j=e_max), disc


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True,
                        help="root of the checkout to compare against")
    parser.add_argument("--plans", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        packages = load_sides(args.base.resolve(), Path(tmp))
        seconds = {side: [] for side in SIDES}
        for i in range(args.plans):
            plans = {}
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                rd = packages[side]
                scenario, budgets, disc = plan_input(rd, args.seed, i)
                started = time.perf_counter()
                plan = rd.select_devices_dp(scenario, budgets, disc)
                seconds[side].append(time.perf_counter() - started)
                plans[side] = rd.scheduler.plan_to_dict(plan)
            if plans["this"] != plans["base"]:
                sys.exit(f"error: input {i}: the plans differ")

    for side in SIDES:
        times = seconds[side]
        print(f"{side}: mean {statistics.fmean(times) * 1e3:.3f} ms, "
              f"median {statistics.median(times) * 1e3:.3f} ms over {len(times)} plans")
    ratio = sum(seconds["base"]) / sum(seconds["this"])
    won = sum(a < b for a, b in zip(seconds["this"], seconds["base"]))
    print(f"identical plans: {args.plans}; plans/s this/base: {ratio:.3f}; "
          f"this faster on {won} of {args.plans} inputs")


if __name__ == "__main__":
    main()
