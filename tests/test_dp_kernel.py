"""The pruned DP kernel must pick what the full 3-D table picks, by either table.

A naive triple-loop fill and the backtrack over its (n+1, cap_t+1, cap_e+1)
table, both implemented here, serve as a reference that shares no code with
the production kernel: no dominance pruning, no gcd scaling, no value bound,
no value table, one int64 value per cell. The rank-order prune and the LP
value bound are each held to a direct reference as well: an all-pairs
replacer count and a fractional knapsack sorted by exact ratios. The bound
reduction is held to brute force over every subset, in Python ints.
"""

import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest

from relaydiff import Budgets, ConfigurationError, generate_scenario, scheduler, select_devices_dp
from relaydiff.scheduler import knapsack_2d, lp_bound, prune_dominated, reduce_by_bounds


def reference_fill(unit_t, unit_e, sizes, cap_t, cap_e):
    n = len(sizes)
    table = np.zeros((n + 1, cap_t + 1, cap_e + 1), dtype=np.int64)
    for j in range(1, n + 1):
        ct, ce, size = unit_t[j - 1], unit_e[j - 1], sizes[j - 1]
        for t in range(cap_t + 1):
            for e in range(cap_e + 1):
                best = table[j - 1, t, e]
                if t >= ct and e >= ce:
                    take = table[j - 1, t - ct, e - ce] + size
                    if take > best:
                        best = take
                table[j, t, e] = best
    return table


def reference_pick(unit_t, unit_e, sizes, cap_t, cap_e):
    """Optimum and backtracked indices; a tie keeps the device skipped."""

    table = reference_fill(unit_t, unit_e, sizes, cap_t, cap_e)
    picked = []
    t, e = cap_t, cap_e
    for j in range(len(sizes), 0, -1):
        if table[j, t, e] != table[j - 1, t, e]:
            picked.append(j - 1)
            t -= int(unit_t[j - 1])
            e -= int(unit_e[j - 1])
    picked.reverse()
    return int(table[-1, cap_t, cap_e]), picked


def random_instance(rng, n_max=8, cap_max=30):
    n = int(rng.integers(0, n_max + 1))
    unit_t = rng.integers(0, cap_max + 2, size=n).astype(np.int64)
    unit_e = rng.integers(0, cap_max + 2, size=n).astype(np.int64)
    sizes = rng.integers(1, 10**9, size=n).astype(np.int64)
    cap_t = int(rng.integers(0, cap_max + 1))
    cap_e = int(rng.integers(0, cap_max + 1))
    return unit_t, unit_e, sizes, cap_t, cap_e


def with_slack(rng, instance, axes):
    """``instance`` with the unit costs of each axis in ``axes`` ("t", "e")
    cut to 0-3 and that axis's capacity at or above their total, so every
    subset fits that axis."""

    unit_t, unit_e, sizes, cap_t, cap_e = instance
    if "t" in axes:
        unit_t = unit_t % 4
        cap_t = int(unit_t.sum()) + int(rng.integers(0, 3))
    if "e" in axes:
        unit_e = unit_e % 4
        cap_e = int(unit_e.sum()) + int(rng.integers(0, 3))
    return unit_t, unit_e, sizes, cap_t, cap_e


def assert_matches_reference(unit_t, unit_e, sizes, cap_t, cap_e):
    optimum, expected = reference_pick(unit_t, unit_e, sizes, cap_t, cap_e)
    picked = knapsack_2d(unit_t, unit_e, sizes, cap_t, cap_e)
    assert picked == expected
    assert sum(int(sizes[i]) for i in picked) == optimum
    return picked


def test_kernel_matches_reference(table_calls):
    rng = np.random.default_rng(1234)
    for _ in range(25):
        assert_matches_reference(*random_instance(rng))

    # Every slack axis is dropped; the survivors' costs on the other axis
    # may fit as well, and then both are.
    other_axis_kept = {"e": 0, "t": 0}
    for axes in ("e", "t", "te"):
        for _ in range(30):
            instance = with_slack(rng, random_instance(rng, n_max=12), axes)
            assert_matches_reference(*instance)
            _, cap_t, cap_e = table_calls.fills[-1]
            if axes == "te":
                assert (cap_t, cap_e) == (0, 0)
            elif axes == "e":
                assert cap_e == 0 and cap_t in (instance[3], 0)
                other_axis_kept["e"] += cap_t > 0
            else:
                assert cap_t == 0 and cap_e in (instance[4], 0)
                other_axis_kept["t"] += cap_e > 0
    assert min(other_axis_kept.values()) >= 3


def test_kernel_matches_reference_on_larger_instances():
    rng = np.random.default_rng(99)
    for _ in range(5):
        assert_matches_reference(*random_instance(rng, n_max=20, cap_max=120))


def test_zero_cost_items_are_always_taken():
    # 20 devices spread their take-bits over three byte planes.
    unit_t = np.zeros(20, dtype=np.int64)
    unit_e = np.zeros(20, dtype=np.int64)
    sizes = np.arange(5, 25, dtype=np.int64)
    assert assert_matches_reference(unit_t, unit_e, sizes, 0, 0) == list(range(20))


def test_unit_cost_above_capacity_is_never_taken():
    unit_t = np.array([2, 6, 1], dtype=np.int64)
    unit_e = np.array([1, 1, 4], dtype=np.int64)
    sizes = np.array([5, 100, 100], dtype=np.int64)
    # device 1 exceeds the time capacity, device 2 the energy capacity
    assert assert_matches_reference(unit_t, unit_e, sizes, 5, 3) == [0]


def test_tie_keeps_the_later_device_skipped():
    unit_t = np.array([3, 3], dtype=np.int64)
    unit_e = np.array([2, 2], dtype=np.int64)
    sizes = np.array([9, 9], dtype=np.int64)
    # Room for one of two identical devices. Taking device 1 only ties with
    # the best over device 0 alone, so device 1 stays skipped.
    assert assert_matches_reference(unit_t, unit_e, sizes, 4, 3) == [0]


def test_kernel_matches_reference_on_four_size_values():
    # Model sizes take four values (one param_count at 4/8/16/32 bits), all
    # multiples of a large gcd; zero-cost and over-capacity devices included.
    rng = np.random.default_rng(2024)
    fitting = kept = 0
    for _ in range(40):
        n = int(rng.integers(1, 13))
        cap_t, cap_e = int(rng.integers(0, 21)), int(rng.integers(0, 21))
        unit_t = rng.integers(0, 24, size=n).astype(np.int64)
        unit_e = rng.integers(0, 24, size=n).astype(np.int64)
        unit_t[rng.random(n) < 0.15] = 0
        unit_e[rng.random(n) < 0.15] = 0
        sizes = rng.choice([1, 2, 4, 8], size=n).astype(np.int64) * 500_000_000
        assert_matches_reference(unit_t, unit_e, sizes, cap_t, cap_e)
        fitting += int(np.count_nonzero((unit_t <= cap_t) & (unit_e <= cap_e)))
        kept += len(prune_dominated(unit_t, unit_e, sizes, cap_t, cap_e)[0])
    assert kept < fitting  # some instances actually prune


def test_device_with_one_replacer_too_few_is_kept():
    # Unit costs (5,5), (5,6), (5,5) under (10,10): no three fit, so k_max = 2.
    # Device 2 has one replacer (device 0: no costlier, bigger); device 1
    # costs more energy, so it is no replacer. Device 2 is kept, and the
    # optimum needs it. Device 1 has two replacers and is dropped.
    unit_t = np.array([5, 5, 5], dtype=np.int64)
    unit_e = np.array([5, 6, 5], dtype=np.int64)
    sizes = np.array([4, 1, 2], dtype=np.int64) * 10**9
    kept, k_max = prune_dominated(unit_t, unit_e, sizes, 10, 10)
    assert k_max == 2
    assert kept.tolist() == [0, 2]
    assert assert_matches_reference(unit_t, unit_e, sizes, 10, 10) == [0, 2]


def test_device_with_k_max_replacers_is_dropped():
    # Unit costs (5,5), (4,4), (5,5) under (10,10): k_max = 2. Device 2 has
    # two replacers: device 0 is bigger, device 1 is as big with a lower
    # index. {0, 2} ties {0, 1}, which is the canonical optimum.
    unit_t = np.array([5, 4, 5], dtype=np.int64)
    unit_e = np.array([5, 4, 5], dtype=np.int64)
    sizes = np.array([4, 2, 2], dtype=np.int64) * 10**9
    kept, k_max = prune_dominated(unit_t, unit_e, sizes, 10, 10)
    assert k_max == 2
    assert kept.tolist() == [0, 1]
    assert assert_matches_reference(unit_t, unit_e, sizes, 10, 10) == [0, 1]


def test_both_tables_match_reference(table_calls):
    # Sizes of 0-5 GB against capacities of up to 30 units put the value
    # bound on both sides of cap_e, so each table runs.
    rng = np.random.default_rng(4321)
    for _ in range(60):
        unit_t, unit_e, _, cap_t, cap_e = random_instance(rng, n_max=10, cap_max=30)
        sizes = rng.integers(0, 6, size=len(unit_t)).astype(np.int64) * 10**9
        assert_matches_reference(unit_t, unit_e, sizes, cap_t, cap_e)
        # The same devices over a slack time axis: a one-row table.
        assert_matches_reference(*with_slack(rng, (unit_t, unit_e, sizes, cap_t, cap_e), "t"))
    assert table_calls["_value_dp"] >= 1
    assert table_calls["_grid_dp"] >= 1
    one_row = {name for name, cap_t, cap_e in table_calls.fills if cap_t == 0 and cap_e > 0}
    assert "_value_dp" in one_row


def test_value_table_saturates_instead_of_wrapping(table_calls):
    # cap_e = 254 makes the value table's energies uint8 with 255 for
    # "unreachable". Devices 1 and 2 together need 10 + 250 = 260 units; a
    # wrapping add would store 4 and claim a value of 3 within the budget.
    unit_t = np.array([1, 1, 1], dtype=np.int64)
    unit_e = np.array([200, 10, 250], dtype=np.int64)
    sizes = np.array([1, 1, 2], dtype=np.int64)
    assert assert_matches_reference(unit_t, unit_e, sizes, 3, 254) == [0, 1]
    assert table_calls == {"_value_dp": 1}


def reference_prune(unit_t, unit_e, sizes, cap_t, cap_e):
    """prune_dominated's answer from every replacer of every device at once."""

    unit_t, unit_e = np.asarray(unit_t), np.asarray(unit_e)
    fit = np.flatnonzero((unit_t <= cap_t) & (unit_e <= cap_e))
    ut, ue = unit_t[fit], unit_e[fit]
    k_max = int(np.count_nonzero(
        (np.cumsum(np.sort(ut)) <= cap_t) & (np.cumsum(np.sort(ue)) <= cap_e)
    ))
    # replaces[a, b]: fitting device a is no costlier than b and ranks
    # before it (bigger, or as big with a lower index). Sizes stay Python ints.
    size = np.array([int(sizes[i]) for i in fit], dtype=object)
    position = np.arange(len(fit))
    ranks_before = (size[:, None] > size) | ((size[:, None] == size) & (position[:, None] < position))
    replaces = ranks_before & (ut[:, None] <= ut) & (ue[:, None] <= ue)
    replacers = replaces.sum(axis=0)
    return [int(fit[b]) for b in range(len(fit)) if replacers[b] < k_max], k_max


def test_rank_order_prune_matches_all_pairs_counting():
    # Up to 600 devices span up to ten 64-device blocks; few distinct costs
    # and sizes make many ties and long replacer chains. Every third
    # instance has sizes of 2**63 and more, which rank as Python ints.
    rng = np.random.default_rng(77)
    pruned = most_kept = 0
    for trial in range(40):
        n = int(rng.integers(0, 601))
        cap_t, cap_e = int(rng.integers(0, 41)), int(rng.integers(0, 41))
        unit_t = rng.integers(0, int(rng.integers(1, 12)), size=n).astype(np.int64)
        unit_e = rng.integers(0, int(rng.integers(1, 12)), size=n).astype(np.int64)
        sizes = [int(s) * 10**9 for s in rng.choice([0, 1, 2, 4, 8], size=n)]
        if trial % 3 == 0:
            sizes = [2**63 + s for s in sizes]
        kept, k_max = prune_dominated(unit_t, unit_e, sizes, cap_t, cap_e)
        expected, expected_k_max = reference_prune(unit_t, unit_e, sizes, cap_t, cap_e)
        assert (kept.tolist(), k_max) == (expected, expected_k_max)
        pruned += n - len(expected)
        most_kept = max(most_kept, len(expected))
    assert pruned > 0
    assert most_kept > 2 * scheduler._PRUNE_BLOCK  # three or more blocks decide keeps


def reference_lp_bound(costs, sizes, cap):
    """The fractional knapsack optimum, floored, from exact ratios."""

    total = sum(s for c, s in zip(costs, sizes) if c == 0)
    items = sorted(
        ((c, s) for c, s in zip(costs, sizes) if c > 0 and s > 0),
        key=lambda item: Fraction(item[1], item[0]), reverse=True,
    )
    room = Fraction(cap)
    for c, s in items:
        share = min(Fraction(1), room / c)
        total += share * s
        room -= share * c
    return int(total)


@pytest.fixture
def exact_sorts(monkeypatch):
    """Counts the calls to _dantzig's exact ratio sort, one per call of its key."""

    calls = []
    by_ratio = scheduler._BY_RATIO

    def counted(item):
        calls.append(item)
        return by_ratio(item)

    monkeypatch.setattr(scheduler, "_BY_RATIO", counted)
    return calls


def test_lp_bound_is_the_floored_fractional_optimum(exact_sorts):
    # Sizes of 2**62 + d round to one float, so sorting by float ratios
    # alone would leave equal-cost devices in index order; only they need
    # the exact sort.
    rng = np.random.default_rng(5)
    exact_sorted = {False: 0, True: 0}
    for _ in range(300):
        n = int(rng.integers(0, 12))
        costs = [int(c) for c in rng.integers(0, 9, size=n)]
        big = rng.random() < 0.5
        if big:
            sizes = [2**62 + int(d) for d in rng.integers(0, 4, size=n)]
        else:
            sizes = [int(s) for s in rng.integers(0, 6, size=n)]
        cap = int(rng.integers(0, 20))
        before = len(exact_sorts)
        assert lp_bound(costs, sizes, cap) == reference_lp_bound(costs, sizes, cap)
        exact_sorted[big] += len(exact_sorts) > before
    assert exact_sorted[False] == 0 and exact_sorted[True] >= 20


def test_default_profile_plans_need_no_exact_ratio_sort(exact_sorts):
    # Scaled sizes 1, 2, 4 and 8 divide unit costs exactly, so equal float
    # ratios are equal ratios.
    for seed, n in ((1, 500), (2, 40)):
        scenario = generate_scenario(n, seed=seed)
        for budgets in (Budgets(1.0, 100.0), Budgets(3.0, 300.0)):
            select_devices_dp(scenario, budgets)
    assert exact_sorts == []


def comparator_only_lp_bound(costs, sizes, cap):
    """Dantzig's bound with every device in one cross-multiplying sort."""

    items = sorted(
        zip(costs, sizes),
        key=functools.cmp_to_key(lambda a, b: b[1] * a[0] - a[1] * b[0]),
    )
    total, room = 0, cap
    for cost, size in items:
        if cost > room:
            return total + room * size // cost
        room -= cost
        total += size
    return total


def test_zero_cost_zero_size_device_does_not_break_the_value_bound():
    # Device 1 costs nothing and is worth nothing, so a cross-multiplying
    # comparator calls it equal to both others, and the sort leaves the
    # low-ratio device 0 ahead of device 2. That bound (1) falls below the
    # optimum (device 2 alone, worth 10), and a table cut at it misses it.
    unit_t = np.array([1, 0, 1], dtype=np.int64)
    unit_e = np.array([1, 0, 2], dtype=np.int64)
    sizes = np.array([1, 0, 10], dtype=np.int64)
    assert comparator_only_lp_bound(unit_t.tolist(), sizes.tolist(), 1) == 1
    assert lp_bound(unit_t.tolist(), sizes.tolist(), 1) == 10
    assert lp_bound(unit_e.tolist(), sizes.tolist(), 2) == 10
    assert assert_matches_reference(unit_t, unit_e, sizes, 1, 2) == [2]


def test_energy_axis_bound_alone_picks_the_value_table(table_calls):
    # Six devices fit the energy capacity, so the k_max bound is 5*4 + 3 =
    # 23, above cap_e = 20, and so is the time axis's bound (35); only the
    # energy axis's Dantzig bound, 19, is below it.
    unit_t = np.ones(10, dtype=np.int64)
    unit_e = np.array([3] * 5 + [5] * 5, dtype=np.int64)
    sizes = np.array([3] * 5 + [4] * 5, dtype=np.int64)
    assert lp_bound(unit_t.tolist(), sizes.tolist(), 100) == 35
    assert lp_bound(unit_e.tolist(), sizes.tolist(), 20) == 19
    assert assert_matches_reference(unit_t, unit_e, sizes, 100, 20) == [0, 1, 2, 3, 4, 5]
    assert table_calls == {"_value_dp": 1}


def optimal_subsets(unit_t, unit_e, sizes, cap_t, cap_e):
    """The optimum and every subset reaching it, by brute force in Python ints."""

    n = len(sizes)
    fitting = [
        (sum(int(sizes[i]) for i in subset), subset)
        for r in range(n + 1)
        for subset in itertools.combinations(range(n), r)
        if sum(int(unit_t[i]) for i in subset) <= cap_t
        and sum(int(unit_e[i]) for i in subset) <= cap_e
    ]
    optimum = max(value for value, _ in fitting)
    return optimum, [subset for value, subset in fitting if value == optimum]


def canonical_subset(unit_t, unit_e, sizes, cap_t, cap_e):
    """The optimal subset whose membership, from the highest index down, is smallest."""

    _, subsets = optimal_subsets(unit_t, unit_e, sizes, cap_t, cap_e)
    return list(min(subsets, key=lambda subset: sorted(subset, reverse=True)))


def test_reduction_drops_no_device_an_optimal_subset_holds():
    # Zero costs, zero sizes, over-capacity devices, four-valued sizes and
    # sizes proportional to one axis's costs (every ratio tied).
    rng = np.random.default_rng(606)
    dropped_fitting = 0
    for trial in range(400):
        n = int(rng.integers(0, 11))
        cap_t, cap_e = int(rng.integers(0, 25)), int(rng.integers(0, 25))
        unit_t = [int(c) for c in rng.integers(0, 14, size=n)]
        unit_e = [int(c) for c in rng.integers(0, 14, size=n)]
        for costs in (unit_t, unit_e):
            for i in np.flatnonzero(rng.random(n) < 0.15):
                costs[i] = 0
        kind = trial % 4
        if kind == 0:
            sizes = [int(s) for s in rng.choice([1, 2, 4, 8], size=n)]
        elif kind == 1:
            sizes = [int(s) for s in rng.integers(0, 4, size=n)]
        elif kind == 2:
            sizes = [3 * c for c in unit_t]
        else:
            sizes = [int(s) for s in rng.integers(1, 60, size=n)]
        survivors, lb = reduce_by_bounds(unit_t, unit_e, sizes, cap_t, cap_e)
        optimum, subsets = optimal_subsets(unit_t, unit_e, sizes, cap_t, cap_e)
        assert lb <= optimum
        dropped = set(range(n)) - set(survivors)
        assert not any(dropped.intersection(subset) for subset in subsets)
        dropped_fitting += sum(unit_t[j] <= cap_t and unit_e[j] <= cap_e for j in dropped)
    assert dropped_fitting > 0


def test_kernel_matches_reference_where_the_reduction_fires(monkeypatch):
    reduced = []

    def counted(ct, ce, scaled, cap_t, cap_e):
        survivors, lb = reduce_by_bounds(ct, ce, scaled, cap_t, cap_e)
        reduced.append(len(scaled) - len(survivors))
        return survivors, lb

    monkeypatch.setattr(scheduler, "reduce_by_bounds", counted)
    rng = np.random.default_rng(808)
    fired = 0
    for _ in range(40):
        unit_t, unit_e, _, cap_t, cap_e = random_instance(rng, n_max=12, cap_max=30)
        sizes = rng.choice([1, 2, 4, 8], size=len(unit_t)).astype(np.int64) * 10**9
        assert_matches_reference(unit_t, unit_e, sizes, cap_t, cap_e)
        fired += reduced[-1] > 0
    assert fired >= 10


def test_bound_over_the_survivors_plans_what_the_kept_devices_refused():
    # Devices 0 and 1, each worth nearly 2**64, cannot fit together, but with
    # device 2 three fit on each axis's costs alone, so k_max = 2; the k_max
    # bound and both Dantzig bounds over all three exceed 64 bits, and the
    # kernel used to refuse. Device 0 leaves no time for anything else and is
    # worth less than device 1 alone, so it is reduced away; over devices 1
    # and 2 every bound fits 64 bits.
    unit_t = np.array([6, 1, 1], dtype=np.int64)
    unit_e = np.array([1, 6, 1], dtype=np.int64)
    sizes = [2**64 - 1001, 2**64 - 999, 1]
    kept, k_max = prune_dominated(unit_t, unit_e, sizes, 6, 6)
    assert kept.tolist() == [0, 1, 2] and k_max == 2
    assert sizes[0] + sizes[1] >> 64
    assert lp_bound([6, 1, 1], sizes, 6) >> 64 and lp_bound([1, 6, 1], sizes, 6) >> 64
    assert reduce_by_bounds([6, 1, 1], [1, 6, 1], sizes, 6, 6) == ([1, 2], 2**64 - 999)
    assert canonical_subset(unit_t, unit_e, sizes, 6, 6) == [1]
    assert knapsack_2d(unit_t, unit_e, sizes, 6, 6) == [1]


def test_sizes_past_the_float_range_are_refused_as_too_wide():
    # size / cost of these sizes overflows a float; the ratio sort keys on
    # cost / size instead, so the 64-bit check refuses the instance.
    with pytest.raises(ConfigurationError, match="does not fit 64 bits"):
        knapsack_2d(np.array([1, 2]), np.array([2, 1]), [2**1100, 2**1100 + 1], 3, 3)
