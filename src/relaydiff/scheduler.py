"""Device selection: maximize hosted model bytes under latency/energy budgets.

Each selected device runs exactly one relay stage, so a selection's cost is
the sum of its per-stage costs and its value is the sum of the selected
variants' byte sizes. Three methods share one plan type:

* :func:`select_devices_dp`: the production path. The fleet's stage costs
  are computed once, as arrays (:class:`~relaydiff.cost_model.FleetCosts`),
  and discretized (ceiling for costs, floor for capacities, so a plan that
  fits in units also fits exactly, up to float rounding) and a 0/1 knapsack
  over (time units, energy units) is solved one device at a time with numpy
  (:func:`knapsack_2d`). Devices no optimal plan holds and each budget the
  other one implies are dropped first, and the value bound picks
  one of two tables (:func:`reduce_knapsack`). The DP result is finally
  compared against the greedy baseline, which it must beat and which
  replaces a DP pick that misses the exact budgets by float rounding, so
  the method never loses to no-selection through rounding alone.
* :func:`select_devices_oracle`: exhaustive subset enumeration, feasibility
  judged by the same fsum totals as every plan (left-to-right sums filter,
  and any subset near a budget is summed again exactly). Exponential;
  guarded to small fleets. Ties prefer fewer devices, then the
  lexicographically smallest id set.
* :func:`select_devices_no_ds`: no device selection. Admits devices in
  ascending id order while the running exact totals fit, stops at the first
  misfit.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cost_model import FleetCosts, StageCost, fleet_costs
from .errors import ConfigurationError, ValidationError
from .scenario import Scenario

METHODS = ("dp", "oracle", "no_ds")

# Default grid: budgets map to about 200 units per axis.
DEFAULT_GRID_UNITS = 200

# Refuse to allocate absurd DP buffers instead of swapping the machine.
MAX_DP_BYTES = 1 << 30

# Devices are pruned this many at a time, in descending rank order.
_PRUNE_BLOCK = 64
_EARLIER = np.triu(np.ones((_PRUNE_BLOCK, _PRUNE_BLOCK), dtype=bool), k=1)  # [a, b] iff a < b

# Sorts (cost, size) pairs with cost >= 0, size > 0 by descending size / cost.
_BY_RATIO = functools.cmp_to_key(lambda a, b: b[1] * a[0] - a[1] * b[0])

ORACLE_MAX_DEVICES = 25

# A subset's costs summed left to right and the fsum totals its plan is
# checked with both lie within about 3 * ORACLE_MAX_DEVICES * 2**-53 of the
# exact sum of its phase costs, relatively; where the left-to-right sum is
# further than this margin from a budget, both are on the same side of it.
_ORACLE_MARGIN = 1e-9


@dataclass(frozen=True)
class Budgets:
    """End-to-end latency and total energy caps for one image."""

    t_max_s: float
    e_max_j: float

    def __post_init__(self):
        for name in ("t_max_s", "e_max_j"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValidationError(f"budgets.{name}: must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class Discretization:
    """Unit sizes used to integerize stage costs for the DP."""

    dt_s: float
    de_j: float

    def __post_init__(self):
        for name in ("dt_s", "de_j"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValidationError(f"discretization.{name}: must be finite and > 0, got {value!r}")


def default_discretization(budgets: Budgets) -> Discretization:
    """Budget-proportional grid, about DEFAULT_GRID_UNITS units per axis."""

    dt = budgets.t_max_s / DEFAULT_GRID_UNITS if budgets.t_max_s > 0 else 1.0
    de = budgets.e_max_j / DEFAULT_GRID_UNITS if budgets.e_max_j > 0 else 1.0
    return Discretization(dt_s=dt, de_j=de)


def cost_units(value, unit: float, cap: float = math.inf):
    """ceil(value / unit), bumped so units * unit >= value holds in floats.

    ``value`` is a float (the result is an int) or an array of floats (the
    result is an int64 array, element by element the same rule). A count
    over ``cap`` fits no capacity of ``cap`` however large it is, so it is
    clamped at ``cap + 1``, neither bumped nor refused.
    """

    value = np.asarray(value, dtype=np.float64)
    with np.errstate(over="ignore"):  # an infinite quotient is clamped or refused
        ceiled = np.minimum(np.ceil(np.maximum(value, 0.0) / unit), cap + 1)
    if not (ceiled < 2.0**63).all():
        raise ConfigurationError(
            f"a cost of {value.max()} is 2**63 or more units of {unit}; coarsen the discretization"
        )
    units = ceiled.astype(np.int64)
    while (short := (units * unit < value) & (units <= cap)).any():
        units += short
    return units if units.ndim else int(units)


def capacity_units(budget: float, unit: float) -> int:
    """floor(budget / unit), bumped so units * unit <= budget holds in floats."""

    units = budget / unit
    if not math.isfinite(units):
        raise ConfigurationError(
            f"a budget of {budget} overflows units of {unit}; coarsen the discretization"
        )
    units = math.floor(units)
    while units > 0 and units * unit > budget:
        units -= 1
    return max(units, 0)


@dataclass(frozen=True)
class SchedulePlan:
    """An ordered stage assignment plus its predicted exact totals."""

    stages: tuple[tuple[int, StageCost], ...]
    objective_bytes: int
    t_total_s: float
    e_total_j: float
    budgets: Budgets
    method: str
    discretization: Discretization | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValidationError(f"plan.method: must be one of {METHODS}, got {self.method!r}")
        ids = [dev_id for dev_id, _ in self.stages]
        if ids != sorted(ids) or len(set(ids)) != len(ids):
            raise ValidationError(f"plan.stages: device ids must be strictly ascending, got {ids}")

    @property
    def device_ids(self) -> tuple[int, ...]:
        return tuple(dev_id for dev_id, _ in self.stages)

    @property
    def n_stages(self) -> int:
        return len(self.stages)


def _build_plan(
    fleet: FleetCosts,
    picked,
    budgets: Budgets,
    method: str,
    discretization: Discretization | None,
) -> SchedulePlan:
    picked = sorted(picked)
    totals = fleet.totals(picked)
    plan = SchedulePlan(
        stages=tuple(zip(fleet.ids[picked].tolist(), map(fleet.stage_cost, picked))),
        objective_bytes=sum(fleet.size_bytes[i] for i in picked),
        t_total_s=totals.t_total_s,
        e_total_j=totals.e_total_j,
        budgets=budgets,
        method=method,
        discretization=discretization,
    )
    if not totals.fits(budgets):
        raise RuntimeError(
            f"internal error: {method} produced an infeasible plan "
            f"(t={plan.t_total_s}, e={plan.e_total_j}, budgets={budgets})"
        )
    return plan


def _greedy_count(fleet: FleetCosts, budgets: Budgets) -> int:
    """Length of the longest ascending-id prefix whose exact totals fit.

    Every cost is >= 0 and exactly rounded sums are monotone, so a prefix
    fits only if every shorter one does: gallop to a misfit, then bisect.
    """

    n = len(fleet.ids)
    step = 1
    while step <= n and fleet.totals(slice(0, step)).fits(budgets):
        step *= 2
    good, bad = step // 2, min(step, n + 1)
    while bad - good > 1:
        mid = (good + bad) // 2
        if fleet.totals(slice(0, mid)).fits(budgets):
            good = mid
        else:
            bad = mid
    return good


def select_devices_no_ds(scenario: Scenario, budgets: Budgets) -> SchedulePlan:
    """Baseline without device selection: first devices that happen to fit."""

    fleet = fleet_costs(scenario)
    return _build_plan(fleet, range(_greedy_count(fleet, budgets)), budgets, "no_ds", None)


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

    Devices are decided in descending rank order, a block at a time. Each
    block is compared once, in one vectorized comparison, with itself and
    with every undecided device after it, all of which rank below it. A
    device's count is then its replacers among the earlier devices of its
    own block and of every block before it that were still undecided. The
    block's devices are decided by that count, and every undecided device
    whose count already reaches ``k_max`` is dropped at once. That decides
    exactly as the count over all devices would: replacing is transitive,
    so every replacer of j that was dropped brings ``k_max`` kept replacers
    of its own, all of which replace j. A device with ``k_max`` replacers
    therefore has ``k_max`` kept ones, and any count between the two gives
    the same keep/drop answer. Every count here is between the two: all it
    counts replace the device, and a kept replacer ranks before it and was
    never dropped early, so it is counted.
    """

    unit_t = np.asarray(unit_t, dtype=np.int64)
    unit_e = np.asarray(unit_e, dtype=np.int64)
    fit = np.flatnonzero((unit_t <= cap_t) & (unit_e <= cap_e))
    k_max = int(np.count_nonzero(
        (np.cumsum(np.sort(unit_t[fit])) <= cap_t) & (np.cumsum(np.sort(unit_e[fit])) <= cap_e)
    ))

    # Descending rank: bigger first, equally big by ascending index (a stable
    # sort of the negated sizes). The dtype is never inferred: a size of
    # 2**63 or more stays a Python int in an object array.
    big = max(sizes, default=0) >> 63
    fit_sizes = np.array(sizes, dtype=object if big else np.int64)[fit]
    order = fit[np.argsort(-fit_sizes, kind="stable")]
    # The undecided devices' unit costs, in rank order and the narrowest
    # dtype that holds a fitting one, and how many replacers each has among
    # the devices of the blocks before it.
    costs = np.stack((unit_t[order], unit_e[order])).astype(np.min_scalar_type(max(cap_t, cap_e)))
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
    return np.sort(np.concatenate(kept)), k_max


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

    The lower bound LB is the value of the best of four greedy fills, which
    take every device that still fits in one order: descending size (lower
    position first among equals), size per time unit, size per energy unit,
    and size per combined cost ``ct·cap_e + ce·cap_t`` (each axis's cost as a
    share of its capacity). Device j's upper bound UB_j is its size plus the
    lesser Dantzig bound (:func:`lp_bound`) of the two capacities left after
    its own costs, taken over all devices, j included: a set holding j is j
    plus a set fitting that room, and the fractional fill over a larger pool
    is no smaller. Device j is dropped iff UB_j < LB: every set holding it is
    worth less than a set that fits, so no optimal subset holds it. A device
    over either capacity fits in no set and is dropped as well.
    """

    order_t, lp_t = _dantzig(ct, scaled)
    order_e, lp_e = _dantzig(ce, scaled)
    n = len(scaled)
    by_size = sorted(range(n), key=scaled.__getitem__, reverse=True)
    weight_t, weight_e = max(cap_e, 1), max(cap_t, 1)
    combined = [(t * weight_t + e * weight_e) / size if size else math.inf
                for t, e, size in zip(ct, ce, scaled)]
    by_cost = sorted(range(n), key=combined.__getitem__)
    lb = max(
        _greedy_value(order, ct, ce, scaled, cap_t, cap_e)
        for order in (by_size, order_t, order_e, by_cost)
    )
    survivors = [
        j for j, (t, e, size) in enumerate(zip(ct, ce, scaled))
        if t <= cap_t and e <= cap_e and size + lp_t(cap_t - t) >= lb and size + lp_e(cap_e - e) >= lb
    ]
    return survivors, lb


def _implied(costs, cap: int, other, other_cap: int) -> bool:
    """Whether the k largest ``other`` costs fit, k being the most ``costs`` that fit ``cap``."""

    k = bisect.bisect_right(list(itertools.accumulate(sorted(costs))), cap)
    return sum(sorted(other, reverse=True)[:k]) <= other_cap


class Reduction(NamedTuple):
    """What :func:`reduce_knapsack` found, and the table fill it leaves to run."""

    kept: int  # devices left by prune_dominated
    survivors: list[int]  # ascending input indices of those left by reduce_by_bounds
    lb: int  # reduce_by_bounds's lower bound, in sizes divided by their gcd
    k_max_bound: int  # the sum of the k_max largest of those sizes among the survivors
    bound: int  # the value bound: the least of k_max_bound and both Dantzig bounds
    caps: tuple[int, int]  # (cap_t, cap_e) after the axis drops, 0 for a dropped axis
    table: str  # "grid" or "value"
    fill: functools.partial  # fill(): the ascending survivor positions the table picks


def knapsack_2d(unit_t, unit_e, sizes, cap_t: int, cap_e: int) -> list[int]:
    """Indices of the canonical max-``sizes`` subset whose unit costs fit (cap_t, cap_e).

    The canonical optimum is the optimal subset whose membership, read from
    the highest index down, is lexicographically smallest: a device is left
    out whenever taking it only ties. :func:`reduce_knapsack` drops devices
    and axes without changing it and picks the table that is then filled,
    one 2-D layer per survivor:

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
      rule, so both tables return the same subset.
    """

    reduction = reduce_knapsack(unit_t, unit_e, sizes, cap_t, cap_e)
    return [reduction.survivors[j] for j in reduction.fill()]


def reduce_knapsack(unit_t, unit_e, sizes, cap_t: int, cap_e: int) -> Reduction:
    """The survivors, bounds, capacities and table of :func:`knapsack_2d`.

    :func:`prune_dominated` drops devices never in the canonical optimum,
    and sizes are divided by their gcd. :func:`reduce_by_bounds` then drops
    each device j whose upper bound UB_j is below LB, the value of a fitting
    set found greedily: the optimum is at least LB, so no optimal subset
    holds j, and without j the optimal subsets are the same.

    If no subset of the survivors that fits cap_t can miss cap_e, their
    energy costs and cap_e become 0: with k the most survivors whose time
    units fit cap_t together, the k largest energy units sum to at most
    cap_e (:func:`_implied`; k is all survivors when their total fits). The
    time axis is then tested the same way against the energy axis as it now
    stands, so two axes that imply each other are never both dropped. The
    feasible subsets, and so the canonical optimum, stay the same. So does
    the plan: at each backtrack state, a subset of the undecided devices
    that fits the time left fits the energy left too, since with the
    devices already taken it fits cap_t; every value a take-bit compares is
    therefore the 1-D one (time likewise, after a time drop).

    ``bound`` is the most any fitting subset of the survivors is worth: the
    least of the sum of the ``k_max`` largest scaled sizes and each axis's
    Dantzig bound (:func:`lp_bound`), each a relaxation. It is taken before
    the drops: a dropped axis's bound still holds, as the feasible subsets
    did not change, and without it the bound could pass 64 bits. Among the
    tables whose buffers fit ``MAX_DP_BYTES``, the one with fewer cells per
    device runs: the value table iff ``bound < cap_e``.

    Raises ConfigurationError if the value bound does not fit 64 bits or
    neither table fits ``MAX_DP_BYTES``, before any DP buffer is allocated.
    Both checks count the survivors only, with a dropped axis at one cell;
    a smaller pool or capacity needs no more bytes, so no input planned
    without these reductions is refused.
    """

    kept, k_max = prune_dominated(unit_t, unit_e, sizes, cap_t, cap_e)
    ct, ce = np.asarray(unit_t)[kept].tolist(), np.asarray(unit_e)[kept].tolist()
    kept = kept.tolist()
    scaled = [int(sizes[i]) for i in kept]
    gcd = math.gcd(*scaled) or 1
    scaled = [size // gcd for size in scaled]
    survivors, lb = reduce_by_bounds(ct, ce, scaled, cap_t, cap_e)
    scaled, ct, ce = ([values[j] for j in survivors] for values in (scaled, ct, ce))
    k_max_bound = sum(sorted(scaled, reverse=True)[:k_max])
    bound = min(k_max_bound, lp_bound(ct, scaled, cap_t), lp_bound(ce, scaled, cap_e))
    if _implied(ct, cap_t, ce, cap_e):
        ce, cap_e = [0] * len(ce), 0
    if _implied(ce, cap_e, ct, cap_t):
        ct, cap_t = [0] * len(ct), 0
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
            return Reduction(len(kept), [kept[j] for j in survivors], lb, k_max_bound, bound,
                             (cap_t, cap_e), table, fill)
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


def select_devices_dp(
    scenario: Scenario,
    budgets: Budgets,
    discretization: Discretization | None = None,
) -> SchedulePlan:
    """Constraint-discretized DP selection (see module docstring)."""

    return _select_dp(fleet_costs(scenario), budgets, discretization)


def _select_dp(fleet: FleetCosts, budgets: Budgets, disc: Discretization | None = None) -> SchedulePlan:
    """:func:`select_devices_dp` over the devices and stage costs of ``fleet``."""

    disc = default_discretization(budgets) if disc is None else disc
    cap_t = capacity_units(budgets.t_max_s, disc.dt_s)
    cap_e = capacity_units(budgets.e_max_j, disc.de_j)
    unit_t = cost_units(fleet.t_total_s, disc.dt_s, cap_t)
    unit_e = cost_units(fleet.e_total_j, disc.de_j, cap_e)
    sizes = fleet.size_bytes
    picked = knapsack_2d(unit_t, unit_e, sizes, cap_t, cap_e)

    # Rounding can exclude subsets that fit exactly; never do worse than the
    # no-selection baseline on the exact problem. A pick whose unit costs meet
    # a capacity exactly can also miss the budget by an ulp, because a
    # device's unit cost rounds its left-to-right phase sum while plan totals
    # are fsums; the baseline, which fits exactly, replaces such a pick too.
    greedy = _greedy_count(fleet, budgets)
    if sum(sizes[:greedy]) > sum(sizes[i] for i in picked) or not fleet.totals(picked).fits(budgets):
        picked = range(greedy)

    return _build_plan(fleet, picked, budgets, "dp", disc)


def select_devices_oracle(scenario: Scenario, budgets: Budgets) -> SchedulePlan:
    """Exhaustive optimum over all subsets, judged by the plans' fsum totals.

    Intended as ground truth for small fleets; cost grows as 2^n. Among
    maximum-objective subsets the oracle returns the one with fewest devices,
    breaking remaining ties by lexicographically smallest id tuple.
    """

    fleet = fleet_costs(scenario)
    n = len(fleet.ids)
    if n > ORACLE_MAX_DEVICES:
        raise ConfigurationError(
            f"oracle enumeration over {n} devices exceeds the {ORACLE_MAX_DEVICES}-device guard"
        )

    t_one = fleet.t_total_s.tolist()
    e_one = fleet.e_total_j.tolist()
    size_one = fleet.size_bytes
    ids = fleet.ids.tolist()

    n_masks = 1 << n
    t_sum = [0.0] * n_masks
    e_sum = [0.0] * n_masks
    objective = [0] * n_masks

    def id_tuple(mask: int) -> tuple[int, ...]:
        return tuple(ids[i] for i in range(n) if mask >> i & 1)

    t_low, t_high = budgets.t_max_s * (1 - _ORACLE_MARGIN), budgets.t_max_s * (1 + _ORACLE_MARGIN)
    e_low, e_high = budgets.e_max_j * (1 - _ORACLE_MARGIN), budgets.e_max_j * (1 + _ORACLE_MARGIN)

    best = 0  # the empty subset is always feasible
    for mask in range(1, n_masks):
        low = mask & -mask
        i = low.bit_length() - 1
        rest = mask ^ low
        t_sum[mask] = t_sum[rest] + t_one[i]
        e_sum[mask] = e_sum[rest] + e_one[i]
        objective[mask] = objective[rest] + size_one[i]
        # Left-to-right sums decide a subset only away from the budgets;
        # near one, the fsum predicate that plans are checked with decides.
        if t_sum[mask] > t_high or e_sum[mask] > e_high:
            continue
        if (t_sum[mask] > t_low or e_sum[mask] > e_low) and not fleet.totals(
            [i for i in range(n) if mask >> i & 1]
        ).fits(budgets):
            continue
        if objective[mask] > objective[best]:
            best = mask
        elif objective[mask] == objective[best]:
            if mask.bit_count() < best.bit_count() or (
                mask.bit_count() == best.bit_count() and id_tuple(mask) < id_tuple(best)
            ):
                best = mask

    picked = [i for i in range(n) if best >> i & 1]
    return _build_plan(fleet, picked, budgets, "oracle", None)
