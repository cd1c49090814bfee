"""Time the scheduler's DP kernel and report its peak traced memory.

``knapsack_2d`` first drops devices that can never be in the returned plan,
then fills narrow unsigned value layers and one take-bit per kept device and
(t, e) cell, packed 8 devices per byte. Each shape is timed
best-of-``--repeats`` on random unit costs and four-valued model sizes (one
parameter count at 4, 8, 16 and 32 bits), then run once more under
``tracemalloc`` for the peak of the numpy buffers it allocates. The ``kept``
column counts the devices left after pruning. Run from the repository root:

    PYTHONPATH=src python3 benchmarks/bench_dp.py
"""

import argparse
import time
import tracemalloc

import numpy as np

from relaydiff.scheduler import knapsack_2d, prune_dominated

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


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    shapes = [(10, 100, 100), (20, 200, 200), (25, 400, 400), (40, 800, 800)]

    print(f"{'n':>4} {'kept':>5} {'cap_t':>6} {'cap_e':>6} {'time':>10} {'peak':>10}")
    for n, cap_t, cap_e in shapes:
        unit_t, unit_e, sizes = random_instance(rng, n, cap_t, cap_e)
        kernel_args = (unit_t, unit_e, sizes, cap_t, cap_e)
        kept = len(prune_dominated(*kernel_args)[0])
        seconds = best_of(kernel_args, args.repeats)
        peak_mb = traced_peak(kernel_args) / 2**20
        print(
            f"{n:>4} {kept:>5} {cap_t:>6} {cap_e:>6} "
            f"{seconds * 1e3:>8.1f}ms {peak_mb:>8.1f}MB"
        )


if __name__ == "__main__":
    main()
