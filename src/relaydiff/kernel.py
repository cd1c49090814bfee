"""The integer knapsack kernel: the canonical best subset under two unit capacities.

Every input is in whole units: each device's cost on the time and energy
axes (``unit_t`` and ``unit_e``, ints from 0), its size (an int from 0, of
any magnitude) and the two capacities. Budgets, seconds and joules stay in
:mod:`relaydiff.scheduler`, which turns a fleet's stage costs into units
and calls :func:`knapsack_2d`. This module imports only the standard
library, numpy and :mod:`relaydiff.errors`.

:func:`knapsack_2d` returns the canonical optimum: the optimal subset whose
membership, read from the highest index down, is lexicographically
smallest. :func:`reduce_knapsack` first drops what cannot change it: an
axis the other implies over the fitting devices (:func:`_implied`), the
devices no optimal subset holds (:func:`prune_dominated`: one pass over one
live axis, or blocks compared on two) and, on the numpy path, the devices
whose upper bound is below a greedy fill (:func:`reduce_by_bounds`, with
Dantzig's bound :func:`lp_bound`). It then picks one of three tables from
the input, with no option: Python-int reachability bits when at most one
axis is live and a layer is small, else whichever of the (time, energy)
grid and the (time, value) table has fewer cells per device, within
``MAX_DP_BYTES``.
"""

import bisect
import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError

# Refuse to allocate absurd DP buffers instead of swapping the machine.
MAX_DP_BYTES = 1 << 30

# The bit table runs only if a layer has at most this many bits: fed the same
# one-axis plans, it was faster than the numpy tables below about 56k bits
# per layer and slower above (crossover table in the README).
_BITS_MAX = 48 << 10

# Devices are pruned this many at a time, in descending rank order.
_PRUNE_BLOCK = 64
_EARLIER = np.triu(np.ones((_PRUNE_BLOCK, _PRUNE_BLOCK), dtype=bool), k=1)  # [a, b] iff a < b

# Sorts (cost, size) pairs with cost >= 0, size > 0 by descending size / cost.
_BY_RATIO = functools.cmp_to_key(lambda a, b: b[1] * a[0] - a[1] * b[0])


def prune_dominated(unit_t, unit_e, sizes, cap_t: int, cap_e: int) -> tuple[np.ndarray, int]:
    """Ascending indices of the devices the canonical optimum can hold, and k_max.

    ``k_max`` is the largest k such that the k smallest ``unit_t`` and the k
    smallest ``unit_e`` of the fitting devices each sum to at most their
    capacity, so no fitting subset has more than ``k_max`` members. A fitting
    device i *replaces* device j if neither of its unit costs is larger and
    it is bigger, or equally big with a lower index. A device with at least
    ``k_max`` replacers is never in the canonical optimum (see
    :func:`knapsack_2d`): a fitting set holding it lacks one of them, and
    swapping that one in is strictly better, or ties with a set that is
    lexicographically smaller from the highest index down. Such devices and
    every device over capacity are dropped; the canonical optimum of the
    remaining devices is the same subset.

    An axis on which every fitting device costs 0 is dead: it orders no
    pair, and with one live axis the devices are decided in one pass
    (:func:`_scan_one_axis`). :func:`reduce_knapsack` makes an axis dead,
    for the fitting devices only, when the other implies it; a swap that
    costs no more on the live axis then still fits the dead one, since every
    set of fitting devices that fits the live capacity fits it.

    With two live axes, devices are decided in descending rank order, a
    block at a time. Each block is compared once, in one vectorized
    comparison, with itself and with every undecided device after it, all of
    which rank below it. A device's count is then its replacers among the
    earlier devices of its own block and of every block before it that were
    still undecided. The block's devices are decided by that count, and
    every undecided device whose count already reaches ``k_max`` is dropped
    at once. That decides exactly as the count over all devices would:
    replacing is transitive, so every replacer of j that was dropped brings
    ``k_max`` kept replacers of its own, all of which replace j. A device
    with ``k_max`` replacers therefore has ``k_max`` kept ones, and any
    count between the two gives the same keep/drop answer. Every count here
    is between the two: all it counts replace the device, and a kept
    replacer ranks before it and was never dropped early, so it is counted.
    """

    unit_t = np.asarray(unit_t, dtype=np.int64)
    unit_e = np.asarray(unit_e, dtype=np.int64)
    fit, _, _, k_max = _fitting(unit_t, unit_e, cap_t, cap_e)
    return _prune(unit_t, unit_e, sizes, fit, k_max), k_max


def _fitting(unit_t, unit_e, cap_t: int, cap_e: int):
    """The fitting devices' indices, their unit costs on each axis sorted ascending, and k_max."""

    fit = np.flatnonzero((unit_t <= cap_t) & (unit_e <= cap_e))
    sorted_t, sorted_e = np.sort(unit_t[fit]), np.sort(unit_e[fit])
    return fit, sorted_t, sorted_e, min(_fit_count(sorted_t, cap_t), _fit_count(sorted_e, cap_e))


def _prune(unit_t, unit_e, sizes, fit, k_max: int) -> np.ndarray:
    """:func:`prune_dominated`'s kept devices, from its fitting devices ``fit`` and ``k_max``."""

    # Descending rank: bigger first, equally big by ascending index (a stable
    # sort of the negated sizes). The dtype is never inferred: a size of
    # 2**63 or more stays a Python int in an object array.
    big = max(sizes, default=0) >> 63
    fit_sizes = np.array(sizes, dtype=object if big else np.int64)[fit]
    order = fit[np.argsort(-fit_sizes, kind="stable")]
    axes = [costs for costs in (unit_t, unit_e) if costs[fit].any()]
    if len(axes) < 2:
        return _scan_one_axis(order, (axes[0] if axes else unit_t)[order].tolist(), k_max)

    # The undecided devices' unit costs, in rank order and the narrowest
    # dtype that holds a fitting one, and how many replacers each has among
    # the devices of the blocks before it.
    costs = np.stack((unit_t[order], unit_e[order]))
    costs = costs.astype(np.min_scalar_type(costs.max(initial=0)))
    count = np.zeros(len(order), dtype=np.int64)
    kept = [order[:0]]
    while len(order):
        t, e = costs
        replaces = (t[:_PRUNE_BLOCK, None] <= t) & (e[:_PRUNE_BLOCK, None] <= e)
        size = len(replaces)
        replaces[:, :size] &= _EARLIER[:size, :size]
        count += replaces.sum(axis=0, dtype=np.uint8)  # at most _PRUNE_BLOCK < 256
        live = count < k_max
        kept.append(order[:size][live[:size]])
        live[:size] = False
        order, costs, count = order[live], costs[:, live], count[live]
    return np.sort(np.concatenate(kept))


def _scan_one_axis(order, costs, k_max: int) -> np.ndarray:
    """Ascending indices of the devices in ``order`` with fewer than ``k_max`` replacers.

    ``order`` lists devices in descending rank and ``costs`` their one live
    axis's costs: device j has ``k_max`` replacers iff the ``k_max``-th
    smallest cost before it is no larger than its own. One pass keeps the
    ``k_max`` smallest costs seen so far; a device is kept iff it enters them.
    """

    # The first k_max devices have fewer than k_max devices before them.
    smallest = sorted(costs[:k_max])
    kept = order[:k_max].tolist()
    for i, cost in zip(order[k_max:].tolist(), costs[k_max:]):
        if cost < smallest[-1]:
            smallest.pop()
            bisect.insort(smallest, cost)
            kept.append(i)
    return np.sort(np.array(kept, dtype=order.dtype))


def _dantzig(costs, sizes):
    """The ratio order of one axis, and Dantzig's bound there as a function of the capacity.

    ``order`` lists the positions of the positive-size devices, zero-cost ones
    first, the rest by descending size per cost unit. ``fill(cap)``, for
    ``cap >= 0``, is the best fractional fill of ``cap``, floored: the longest
    prefix of ``order`` whose cost fits, found by bisection over its prefix
    sums (which stay 0 over the zero-cost devices, so those are always taken
    whole), plus the share of the next device that fills the room left.
    Exact in Python ints. Zero-size devices add nothing, so they stay out of
    the ratio sort, where a zero cost and a zero size would compare equal to
    everything.
    """

    # The float key cost / size is 0 for the zero-cost devices, so they sort
    # first, by position, as do equal keys everywhere. Integer true division
    # is correctly rounded, hence monotone in the exact ratio: only
    # neighbours whose ratios round alike can be out of order, and only if
    # some of those differ exactly does the exact comparison sort the nearly
    # sorted list again. Costs are unit counts below 2**63, so cost / size
    # cannot overflow a float however large a size is.
    keyed = sorted([(cost / size, i) for i, (cost, size) in enumerate(zip(costs, sizes)) if size])
    order = [i for _, i in keyed]
    if any(costs[i] * sizes[j] != costs[j] * sizes[i]
           for (x, i), (y, j) in zip(keyed, keyed[1:]) if x == y):
        order.sort(key=lambda i: _BY_RATIO((costs[i], sizes[i])))
    prefix_cost = list(itertools.accumulate(map(costs.__getitem__, order), initial=0))
    prefix_size = list(itertools.accumulate(map(sizes.__getitem__, order), initial=0))

    def fill(cap: int) -> int:
        whole = bisect.bisect_right(prefix_cost, cap) - 1
        if whole == len(order):
            return prefix_size[whole]
        nxt = order[whole]
        return prefix_size[whole] + (cap - prefix_cost[whole]) * sizes[nxt] // costs[nxt]

    return order, fill


def lp_bound(costs, sizes, cap: int) -> int:
    """Dantzig's bound on one axis: the best fractional fill of ``cap``, floored.

    Exact in Python ints (see :func:`_dantzig`).
    """

    return _dantzig(costs, sizes)[1](cap)


def _greedy_value(order, ct, ce, scaled, cap_t: int, cap_e: int) -> int:
    """Value of the set that takes, in ``order``, every device that still fits."""

    value, room_t, room_e = 0, cap_t, cap_e
    for j in order:
        if ct[j] <= room_t and ce[j] <= room_e:
            room_t -= ct[j]
            room_e -= ce[j]
            value += scaled[j]
    return value


def reduce_by_bounds(ct, ce, scaled, cap_t: int, cap_e: int) -> tuple[list[int], int]:
    """Ascending positions of the devices an optimal subset can hold, and the lower bound used.

    The lower bound LB is the value of the best of three greedy fills, which
    take every device that still fits in one order: descending size (lower
    position first among equals), size per time unit and size per energy
    unit. Device j's upper bound UB_j is its size plus the lesser Dantzig
    bound (:func:`lp_bound`) of the two capacities left after its own costs,
    taken over all devices, j included: a set holding j is j plus a set
    fitting that room, and the fractional fill over a larger pool is no
    smaller. Device j is dropped iff UB_j < LB: every set holding it is
    worth less than a set that fits, so no optimal subset holds it. A device
    over either capacity fits in no set and is dropped as well.

    An axis on which every device costs 0 is dead: its Dantzig bound is
    every device's size, so that bound and its ratio order are skipped.
    """

    axes = [(costs, cap, *_dantzig(costs, scaled)) for costs, cap in ((ct, cap_t), (ce, cap_e))
            if any(costs)]
    orders = [sorted(range(len(scaled)), key=scaled.__getitem__, reverse=True)]
    orders += [order for _, _, order, _ in axes]
    lb = max(_greedy_value(order, ct, ce, scaled, cap_t, cap_e) for order in orders)
    survivors = [j for j, (t, e) in enumerate(zip(ct, ce)) if t <= cap_t and e <= cap_e]
    for costs, cap, _, lp in axes:
        survivors = [j for j in survivors if scaled[j] + lp(cap - costs[j]) >= lb]
    return survivors, lb


def _fit_count(costs, cap: int) -> int:
    """How many of ``costs``, ascending and each at most ``cap``, fit ``cap`` together.

    No prefix sum before the first one over ``cap`` passes 2**63, nor that
    one 2**64, so the unsigned sums are exact as far as they are read.
    """

    over = np.cumsum(costs, dtype=np.uint64) > cap
    return int(over.argmax()) if over.any() else len(over)


def _implied(ct, ce, cap_t: int, cap_e: int) -> tuple[int, int]:
    """(cap_t, cap_e), with 0 for each axis the other implies over these devices.

    ``ct`` and ``ce`` are their unit costs, sorted ascending. The time axis
    implies the energy axis if the k largest energy costs sum to at most
    cap_e, k being the most devices whose time costs fit cap_t together. The
    energy axis is tested first, then the time axis the same way against the
    energy axis as it then stands, so of two axes that imply each other only
    the energy one is dropped. Sums are taken in Python ints.
    """

    if sum(ce[len(ce) - _fit_count(ct, cap_t):].tolist()) <= cap_e:
        ce, cap_e = ce * 0, 0
    if sum(ct[len(ct) - _fit_count(ce, cap_e):].tolist()) <= cap_t:
        cap_t = 0
    return cap_t, cap_e


class Reduction(NamedTuple):
    """What :func:`reduce_knapsack` found, and the table fill it leaves to run."""

    kept: int  # devices left by prune_dominated
    survivors: list[int]  # ascending input indices the table fills: those left by
    # reduce_by_bounds, or for the bit table, which skips it, every kept device
    lb: int  # reduce_by_bounds's lower bound, in sizes divided by their gcd; 0 for the bit table
    k_max_bound: int  # the sum of the k_max largest of those sizes among the survivors
    bound: int  # the value bound: the least of k_max_bound and both Dantzig bounds,
    # or for the bit table k_max_bound alone
    caps: tuple[int, int]  # (cap_t, cap_e) after the axis drops, 0 for a dropped axis
    table: str  # "grid", "value" or "bits"
    fill: functools.partial  # fill(): the ascending survivor positions the table picks


def knapsack_2d(unit_t, unit_e, sizes, cap_t: int, cap_e: int) -> list[int]:
    """Indices of the canonical max-``sizes`` subset whose unit costs fit (cap_t, cap_e).

    The canonical optimum is the optimal subset whose membership, read from
    the highest index down, is lexicographically smallest: a device is left
    out whenever taking it only ties. :func:`reduce_knapsack` drops devices
    and axes without changing it and picks the table that is then filled,
    one layer per survivor:

    * the bit table (:func:`_bits_dp`), when at most one axis is live: each
      layer is a Python int whose bit ``c·W + v``, ``W = bound + 1``, is set
      iff some subset of the devices before costs c units on that axis (0
      with no live axis) and is worth v. Device j adds one shift-or,
      ``layer | (layer << c_j·W + size[j])`` masked to the capacity's rows.
      The optimum is the largest v reached within the capacity; from the
      top down, device j is skipped iff the layer before it holds a state
      within the cost left worth at least the target, as in the value
      table below.
    * the grid (:func:`_grid_dp`): ``value[t, e]``, the largest value within
      (t, e) units, in the narrowest unsigned dtype that holds ``bound``.
      Device j is taken at (t, e) iff ``value[t - ct[j], e - ce[j]] +
      size[j] > value[t, e]`` over the devices before j; that take-bit is
      bit ``j % 8`` of byte plane ``j // 8``, walked back from (cap_t, cap_e).
    * the value table (:func:`_value_dp`): ``g[t, v]``, the fewest energy
      units within t time units that reach a scaled value of at least v,
      saturating at ``cap_e + 1``. The optimum V is the largest v with
      ``g[cap_t, v] <= cap_e``; from the top down, device j is skipped iff
      ``g_j[t, V] <= e`` (the devices before it reach V within (t, e)), else
      taken (t, e and V drop by its costs and size). That is the grid's
      rule, so all three tables return the same subset.
    """

    reduction = reduce_knapsack(unit_t, unit_e, sizes, cap_t, cap_e)
    return [reduction.survivors[j] for j in reduction.fill()]


def reduce_knapsack(unit_t, unit_e, sizes, cap_t: int, cap_e: int) -> Reduction:
    """The survivors, bounds, capacities and table of :func:`knapsack_2d`.

    First, each axis the other implies over the fitting devices is dropped
    (:func:`_implied`): if no set of them that fits cap_t can miss cap_e,
    their energy costs and cap_e become 0, and likewise for time. A device
    over either capacity keeps its costs, so it stays out. The feasible
    subsets, and so the canonical optimum, stay the same, and so does
    ``k_max``: the k smallest energy units sum to no more than the k largest.

    :func:`prune_dominated` then drops devices never in the canonical
    optimum. With an axis dropped it compares the live axis alone, and its
    swap still holds: a swap that costs no more on the live axis still fits
    the dead one, since the dead axis is implied over the fitting set. Sizes
    are divided by their gcd.

    Let V be the sum of the ``k_max`` largest scaled sizes of the kept
    devices; a fitting set holds at most ``k_max`` devices, so it is worth
    at most V. If at most one axis is live now, a layer of (cap + 1)·(V + 1)
    bits, cap being the live capacity or 0 with none, has at most
    ``_BITS_MAX`` bits, and the kept devices' layers, the empty one and a
    shifted temporary, (kept + 2)·⌈bits / 8⌉ bytes, fit ``MAX_DP_BYTES``,
    the kept devices go straight to the bit table with ``bound`` V. The
    steps below exist to cut the numpy tables' layers, and a bit layer
    costs less than they spend on each device, so they are skipped; every
    other input takes them.

    :func:`reduce_by_bounds`, skipping a dead
    axis, drops each device j whose upper bound UB_j is below LB, the value
    of a fitting set found greedily: the optimum is at least LB, so no
    optimal subset holds j, and without j the optimal subsets are the same.

    ``bound`` is the most any fitting subset of the survivors is worth: the
    least of the sum of the ``k_max`` largest scaled sizes and each axis's
    Dantzig bound (:func:`lp_bound`) over the survivors' real costs and
    capacities, each a relaxation. A dropped axis's bound still holds, as
    the feasible subsets did not change, and without it the bound could
    pass 64 bits.

    Last, the same test runs on the survivors, which can imply an axis the
    fitting devices did not. The plan stays the same through every drop: at
    each backtrack state, a subset of the undecided devices that fits the
    time left fits the energy left too, since with the devices already taken
    it fits cap_t; every value a take-bit compares is therefore the 1-D one
    (time likewise, after a time drop). Among the numpy tables whose
    buffers fit ``MAX_DP_BYTES``, the one with fewer cells per device runs:
    the value table iff ``bound < cap_e``.

    Raises ConfigurationError if the value bound does not fit 64 bits or
    neither numpy table fits ``MAX_DP_BYTES``, before any DP buffer is
    allocated. Both checks count the survivors only, with a dropped axis at
    one cell; a smaller pool or capacity needs no more bytes, so no input
    planned without these reductions is refused.
    """

    unit_t, unit_e = np.asarray(unit_t, dtype=np.int64), np.asarray(unit_e, dtype=np.int64)
    fit, sorted_t, sorted_e, k_max = _fitting(unit_t, unit_e, cap_t, cap_e)
    live_t, live_e = _implied(sorted_t, sorted_e, cap_t, cap_e)
    live = [unit_t.copy(), unit_e.copy()]
    for costs, cap in zip(live, (live_t, live_e)):
        if not cap:
            costs[fit] = 0  # a device over either capacity keeps its costs, so it stays out
    kept = _prune(*live, sizes, fit, k_max)
    ct, ce = (costs[kept].tolist() for costs in live)
    kept, n_kept = kept.tolist(), len(kept)
    scaled = [int(sizes[i]) for i in kept]
    gcd = math.gcd(*scaled) or 1
    scaled = [size // gcd for size in scaled]
    if not (live_t and live_e):
        top = sum(sorted(scaled, reverse=True)[:k_max])
        bits = ((live_t or live_e) + 1) * (top + 1)
        if bits <= _BITS_MAX and (n_kept + 2) * -(-bits // 8) <= MAX_DP_BYTES:
            fill = functools.partial(_bits_dp, ct, ce, scaled, live_t, live_e, top)
            return Reduction(n_kept, kept, 0, top, top, (live_t, live_e), "bits", fill)
    survivors, lb = reduce_by_bounds(ct, ce, scaled, live_t, live_e)
    scaled, ct, ce, kept = ([values[j] for j in survivors] for values in (scaled, ct, ce, kept))
    k_max_bound = sum(sorted(scaled, reverse=True)[:k_max])
    bound = min(k_max_bound, lp_bound(unit_t[kept].tolist(), scaled, cap_t),
                lp_bound(unit_e[kept].tolist(), scaled, cap_e))
    cap_t, cap_e = _implied(np.sort(ct), np.sort(ce), live_t, live_e)
    ct, ce = ([0] * len(costs) if not cap else costs for costs, cap in ((ct, cap_t), (ce, cap_e)))
    if bound >> 64:
        raise ConfigurationError(
            f"DP values reach {bound} (sizes divided by their gcd {gcd}); "
            "that does not fit 64 bits"
        )

    # Grid, per cell: one take-bit byte plane per 8 survivors, one shift
    # byte and two value layers. Value table, per cell: every layer and one
    # scratch layer.
    grid_dtype = np.min_scalar_type(bound)
    grid_bytes = (-(-len(survivors) // 8) + 1 + 2 * grid_dtype.itemsize) * (cap_t + 1) * (cap_e + 1)
    value_dtype = np.min_scalar_type(cap_e + 1)
    value_bytes = (len(survivors) + 2) * (cap_t + 1) * (bound + 1) * value_dtype.itemsize
    tables = [
        (grid_bytes, cap_e + 1, "grid", _grid_dp, (grid_dtype,)),
        (value_bytes, bound + 1, "value", _value_dp, (bound, value_dtype)),
    ]
    if bound < cap_e:
        tables.reverse()
    for nbytes, _, table, fill, extra in tables:
        if nbytes <= MAX_DP_BYTES:
            fill = functools.partial(fill, ct, ce, scaled, cap_t, cap_e, *extra)
            return Reduction(n_kept, kept, lb, k_max_bound, bound, (cap_t, cap_e), table, fill)
    nbytes, cols, *_ = tables[0]
    raise ConfigurationError(
        f"DP would allocate {nbytes} bytes (limit {MAX_DP_BYTES}) for a "
        f"{cap_t + 1}x{cols}-cell table; coarsen the discretization"
    )


def _grid_dp(ct, ce, scaled, cap_t, cap_e, dtype) -> list[int]:
    """Ascending survivor positions of the canonical optimum, from the grid."""

    value = np.zeros((cap_t + 1, cap_e + 1), dtype=dtype)
    scratch = np.empty_like(value)
    shifted = np.empty(value.shape, dtype=np.uint8)
    planes = np.zeros(((len(scaled) + 7) // 8, cap_t + 1, cap_e + 1), dtype=np.uint8)
    for j, size in enumerate(scaled):
        rows, cols = cap_t + 1 - ct[j], cap_e + 1 - ce[j]
        # Every take value is read from the layer before device j, so it is
        # computed into the scratch layer before `value` is updated in place.
        take = scratch[:rows, :cols]
        np.add(value[:rows, :cols], dtype.type(size), out=take)
        keep = value[ct[j]:, ce[j]:]
        bits = shifted[:rows, :cols]
        np.greater(take, keep, out=bits.view(bool))
        np.maximum(keep, take, out=keep)
        np.left_shift(bits, j % 8, out=bits)
        plane = planes[j // 8, ct[j]:, ce[j]:]
        np.bitwise_or(plane, bits, out=plane)

    picked: list[int] = []
    t, e = cap_t, cap_e
    for j in range(len(scaled) - 1, -1, -1):
        if int(planes[j // 8, t, e]) >> (j % 8) & 1:
            picked.append(j)
            t -= ct[j]
            e -= ce[j]
    picked.reverse()
    return picked


def _value_dp(ct, ce, scaled, cap_t, cap_e, bound, dtype) -> list[int]:
    """Ascending survivor positions of the canonical optimum, from the value table.

    Each layer is stored value-major, ``layer[v, t]``, so every numpy call
    walks rows of cap_t + 1 time cells rather than short value rows.
    """

    inf = cap_e + 1
    layers = np.empty((len(scaled) + 1, bound + 1, cap_t + 1), dtype=dtype)
    layers[0] = inf
    layers[0, 0] = 0
    scratch = np.empty(layers.shape[1:], dtype=dtype)
    for j, size in enumerate(scaled):
        before, after = layers[j], layers[j + 1]
        low, cols = size + 1, cap_t + 1 - ct[j]
        after[:, :ct[j]] = before[:, :ct[j]]
        # Values up to `size` need device j alone, since g[0, .] = 0.
        np.minimum(before[:low, ct[j]:], dtype.type(ce[j]), out=after[:low, ct[j]:])
        # Above it, g[v - size, t - ct] + ce, saturated so it never passes inf.
        take = scratch[:bound + 1 - low, :cols]
        np.minimum(before[1:bound + 1 - size, :cols], dtype.type(inf - ce[j]), out=take)
        np.add(take, dtype.type(ce[j]), out=take)
        np.minimum(before[low:, ct[j]:], take, out=after[low:, ct[j]:])

    picked: list[int] = []
    t, e = cap_t, cap_e
    target = int(np.count_nonzero(layers[-1, :, cap_t] <= cap_e)) - 1
    for j in range(len(scaled) - 1, -1, -1):
        if int(layers[j, target, t]) > e:
            picked.append(j)
            t -= ct[j]
            e -= ce[j]
            target = max(target - scaled[j], 0)
    picked.reverse()
    return picked


def _bits_dp(ct, ce, scaled, cap_t, cap_e, bound) -> list[int]:
    """Ascending survivor positions of the canonical optimum, from the bit table.

    At most one axis is live; a dead axis's capacity and costs are all 0,
    and with neither live the layers hold one cost row. With
    ``W = bound + 1``, bit ``c·W + v`` of layer j is set iff some subset of
    the first j devices costs c units on the live axis and is worth v. A
    subset whose cost fits is worth at most ``bound``, so its value never
    carries into the next cost row, and a cost past the capacity is masked
    off. ``rows`` has bit ``c·W`` set for every cost row c, so
    ``rows · (2^W − 2^v)`` covers every state worth at least v.
    """

    costs, cap = (ct, cap_t) if cap_t else (ce, cap_e)
    width = bound + 1
    mask = (1 << (cap + 1) * width) - 1
    rows = mask // ((1 << width) - 1)
    layers = [1]
    for cost, size in zip(costs, scaled):
        layer = layers[-1]
        layers.append(layer | ((layer << cost * width + size) & mask))

    def worth_at_least(v: int) -> int:
        return (rows << width) - (rows << v)

    # The largest v that some state within the capacity reaches; the empty
    # set reaches 0.
    low, high = 0, bound
    while low < high:
        mid = (low + high + 1) // 2
        if layers[-1] & worth_at_least(mid):
            low = mid
        else:
            high = mid - 1

    # From the top down, device j is skipped iff the devices before it reach
    # the target within the cost left: _value_dp's rule.
    picked: list[int] = []
    t, target, region = cap, low, worth_at_least(low)
    for j in range(len(scaled) - 1, -1, -1):
        if not layers[j] & region:
            picked.append(j)
            t -= costs[j]
            target = max(target - scaled[j], 0)
            region = worth_at_least(target) & ((1 << (t + 1) * width) - 1)
    picked.reverse()
    return picked
