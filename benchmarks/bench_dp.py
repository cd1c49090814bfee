"""Time the DP kernel (``relaydiff.kernel``) and report its peak traced memory.

``knapsack_2d`` first drops each capacity axis that every subset fitting
the other axis fits and the devices that can never be in the returned plan,
then fills one of three tables: with one live axis and a small enough
capacity and value range, the bit table (one Python int per kept device,
one bit per (cost, value) state); otherwise the grid (narrow unsigned value
layers and one take-bit per surviving device and (t, e) cell, packed 8
devices per byte) or, when the value bound is below the energy capacity,
the value table (the fewest energy units per (t, v) cell, one layer per
surviving device). Each shape is timed best-of-``--repeats`` on random unit
costs and four-valued model sizes (one parameter count at 4, 8, 16 and 32
bits), then run once more under ``tracemalloc`` for the peak of the numpy
buffers it allocates. The other columns are the facts of the kernel's
reduction step (``reduce_knapsack``): ``kept`` counts the devices left after
pruning, ``surv`` those left after the bound reduction (all kept ones for
the bit table, which skips it), ``lb`` is the reduction's lower bound (the
best greedy fill, in scaled sizes; 0 for the bit table), ``kbound`` the sum
of the ``k_max`` largest scaled sizes among the survivors, ``bound`` the
value bound (the least of ``kbound`` and the two axes' Dantzig bounds over
the survivors; ``kbound`` alone for the bit table), ``axes`` the capacity axes the table
kept (``t×e``, ``t``, ``e``, or ``–`` for none) and ``table`` the table
that ran. The fifth and sixth shapes sit on either side of the table
choice: the same devices and time axis, with the energy axis just below or
just above the value bound. The seventh shape's energy costs sum to less
than its energy capacity, so that axis is dropped; the eighth shape's costs
fit both capacities, so both axes are, and it fills the bit table, one cost
row per layer. The
ninth and tenth are modelled on a two-budget plan-cold plan: its fitting
devices' energy costs sum past the energy capacity, but no set that fits
the time capacity can pass it (at most 10 devices fit that, and any 18 fit
the energy capacity), so the energy axis is dropped before pruning. The
tenth is that plan on its 200x200 grid, where it fills the bit table; the
ninth is the same plan at ten times the grid, whose 2001 time rows make a
bit layer too wide, so it fills the grid. Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_dp.py
"""

import argparse
import time
import tracemalloc

import numpy as np

from relaydiff.kernel import knapsack_2d, reduce_knapsack

PARAM_COUNT = 1_000_000_000
SIZES = np.array([PARAM_COUNT * bits // 8 for bits in (4, 8, 16, 32)], dtype=np.int64)


def random_instance(rng, n, cap_t, cap_e):
    unit_t = rng.integers(1, max(2, cap_t // 4), size=n, dtype=np.int64)
    unit_e = rng.integers(1, max(2, cap_e // 4), size=n, dtype=np.int64)
    sizes = rng.choice(SIZES, size=n)
    return unit_t, unit_e, sizes


def best_of(args, repeats):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        knapsack_2d(*args)
        best = min(best, time.perf_counter() - started)
    return best


def traced_peak(args):
    tracemalloc.start()
    try:
        knapsack_2d(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def shapes(seed):
    """The ten (unit_t, unit_e, sizes, cap_t, cap_e) kernel inputs, drawn from ``seed``."""

    rng = np.random.default_rng(seed)
    cases = []
    for n, cap_t, cap_e in [(10, 100, 100), (20, 200, 200), (25, 400, 400), (40, 800, 800)]:
        cases.append((*random_instance(rng, n, cap_t, cap_e), cap_t, cap_e))
    # One 40-device fleet whose value bound (at seed 0) is 100 at both 96 and
    # 104 energy units: the grid runs at cap_e = 96, the value table at 104.
    unit_t, unit_e, sizes = random_instance(rng, 40, 800, 32)
    cases += [(unit_t, unit_e, sizes, 800, cap_e) for cap_e in (96, 104)]
    # 40 devices of at most 19 energy units each under 800: a slack energy axis.
    unit_t, unit_e, sizes = random_instance(rng, 40, 800, 80)
    cases.append((unit_t, unit_e, sizes, 800, 800))
    # The same devices under capacities their total costs fit: both axes slack.
    cases.append((unit_t, unit_e, sizes, int(unit_t.sum()), int(unit_e.sum())))
    # A two-budget plan-cold plan: 40 devices, most of the largest size, of
    # 20-45 time and 7-11 energy units under 200x200. At 20 time units or
    # more, at most 10 devices fit the time budget together, and any 18
    # energy costs of at most 11 units fit 200, so the energy axis is
    # dropped at every seed. The fitting devices' total energy passes 200
    # (362 at seed 0), so a rule that drops an axis only when the devices'
    # total fits it would keep it. The first copy is on ten times the grid.
    unit_t = rng.integers(20, 46, size=40, dtype=np.int64)
    unit_e = rng.integers(7, 12, size=40, dtype=np.int64)
    sizes = np.where(rng.random(40) < 0.8, SIZES[-1], rng.choice(SIZES, size=40))
    cases.append((10 * unit_t, 10 * unit_e, sizes, 2000, 2000))
    cases.append((unit_t, unit_e, sizes, 200, 200))
    return cases


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(
        f"{'n':>4} {'kept':>5} {'surv':>5} {'cap_t':>6} {'cap_e':>6} {'lb':>5} {'kbound':>7} "
        f"{'bound':>6} {'axes':>5} {'table':>6} {'time':>10} {'peak':>10}"
    )
    for kernel_args in shapes(args.seed):
        unit_t, _, _, cap_t, cap_e = kernel_args
        facts = reduce_knapsack(*kernel_args)
        axes = "×".join(name for name, cap, left in zip("te", (cap_t, cap_e), facts.caps)
                        if cap == left) or "–"
        seconds = best_of(kernel_args, args.repeats)
        peak_mb = traced_peak(kernel_args) / 2**20
        print(
            f"{len(unit_t):>4} {facts.kept:>5} {len(facts.survivors):>5} {cap_t:>6} {cap_e:>6} "
            f"{facts.lb:>5} {facts.k_max_bound:>7} {facts.bound:>6} {axes:>5} {facts.table:>6} "
            f"{seconds * 1e3:>8.1f}ms {peak_mb:>8.1f}MB"
        )


if __name__ == "__main__":
    main()
