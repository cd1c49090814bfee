"""Device selection: maximize hosted model bytes under latency/energy budgets.

Each selected device runs exactly one relay stage, so a selection's cost is
the sum of its per-stage costs and its value is the sum of the selected
variants' byte sizes. Three methods share one plan type:

* :func:`select_devices_dp`: the production path. The fleet's stage costs
  are computed once, as arrays (:class:`~relaydiff.cost_model.FleetCosts`),
  and discretized on a grid (ceiling for costs, :func:`cost_units`, floor
  for capacities, :func:`capacity_units`, so a plan that fits in units also
  fits exactly, up to float rounding), and the 0/1 knapsack over (time
  units, energy units) is solved by the integer kernel,
  :func:`relaydiff.kernel.knapsack_2d`. The DP result is finally compared
  against the greedy baseline, which it must beat and which replaces a DP
  pick that misses the exact budgets by float rounding, so the method
  never loses to no-selection through rounding alone.
* :func:`select_devices_oracle`: exact optimum by a depth-first walk over
  the subsets that fit, in O(n) memory, feasibility judged by the same fsum
  totals as every plan (left-to-right sums filter, and any subset near a
  budget is summed again exactly). A branch is cut where its subset misses
  a budget or cannot reach the best size found. Exponential; guarded to
  small fleets. Ties prefer fewer devices, then the lexicographically
  smallest id set.
* :func:`select_devices_no_ds`: no device selection. Admits devices in
  ascending id order while the running exact totals fit, stops at the first
  misfit.

Each public function is its method's body applied to the scenario's
:func:`~relaydiff.cost_model.fleet_costs`. :data:`SELECTORS` maps each
method name to that body, which takes a fleet's costs and the budgets, and
is the one map from name to method: the CLI, the sweep and recovery all
select through it, so a run re-plans with the method that planned it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .cost_model import CostTotals, FleetCosts, StageCost, fleet_costs
from .errors import ConfigurationError, ValidationError
from .scenario import Scenario

# Default grid: budgets map to about 200 units per axis.
DEFAULT_GRID_UNITS = 200

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
    """Budget-proportional grid, about DEFAULT_GRID_UNITS units per axis.

    A unit that would be 0, for a zero budget or a subnormal one whose
    quotient underflows, is 1 instead: that budget holds no unit either way.
    """

    return Discretization(dt_s=budgets.t_max_s / DEFAULT_GRID_UNITS or 1.0,
                          de_j=budgets.e_max_j / DEFAULT_GRID_UNITS or 1.0)


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
class SchedulePlan(CostTotals):
    """An ordered stage assignment; its totals are the fsums of its stage costs."""

    stages: tuple[tuple[int, StageCost], ...]
    objective_bytes: int
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
    totals: CostTotals,
    budgets: Budgets,
    method: str,
    discretization: Discretization | None,
) -> SchedulePlan:
    """The plan of the devices at positions ``picked``, whose ``fleet.totals`` are ``totals``."""

    picked = sorted(picked)
    plan = SchedulePlan(
        totals.t_tran_s, totals.t_cmp_s, totals.e_total_j,
        stages=tuple(zip(fleet.ids[picked].tolist(), map(fleet.stage_cost, picked))),
        objective_bytes=sum(fleet.size_bytes[i] for i in picked),
        budgets=budgets,
        method=method,
        discretization=discretization,
    )
    if not plan.fits(budgets):
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

    return _select_no_ds(fleet_costs(scenario), budgets)


def _select_no_ds(fleet: FleetCosts, budgets: Budgets) -> SchedulePlan:
    """:func:`select_devices_no_ds` over the devices and stage costs of ``fleet``."""

    picked = range(_greedy_count(fleet, budgets))
    return _build_plan(fleet, picked, fleet.totals(picked), budgets, "no_ds", None)



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
    picked = kernel.knapsack_2d(unit_t, unit_e, sizes, cap_t, cap_e)

    # Rounding can exclude subsets that fit exactly; never do worse than the
    # no-selection baseline on the exact problem. A pick whose unit costs meet
    # a capacity exactly can also miss the budget by an ulp, because a
    # device's unit cost rounds its left-to-right phase sum while plan totals
    # are fsums; the baseline, which fits exactly, replaces such a pick too.
    greedy = _greedy_count(fleet, budgets)
    totals = fleet.totals(picked)
    if sum(sizes[:greedy]) > sum(sizes[i] for i in picked) or not totals.fits(budgets):
        picked = range(greedy)
        totals = fleet.totals(picked)

    return _build_plan(fleet, picked, totals, budgets, "dp", disc)


def select_devices_oracle(scenario: Scenario, budgets: Budgets) -> SchedulePlan:
    """Exact optimum over all subsets, judged by the plans' fsum totals.

    Intended as ground truth for small fleets. The subsets are walked depth
    first, each one extended only by devices after its last, so memory is
    O(n) and the walk is lexicographic in positions. Costs are >= 0 and both
    the left-to-right sums and the fsum totals are monotone in the subset,
    so a branch is cut where its subset misses a budget, and also where its
    size plus every later device's cannot reach the best size found; the
    worst case is still 2^n subsets. Among maximum-objective subsets the
    oracle returns the one with fewest devices, breaking remaining ties by
    lexicographically smallest id tuple (positions ascend with ids).
    """

    return _select_oracle(fleet_costs(scenario), budgets)


def _select_oracle(fleet: FleetCosts, budgets: Budgets) -> SchedulePlan:
    """:func:`select_devices_oracle` over the devices and stage costs of ``fleet``."""

    n = len(fleet.ids)
    if n > ORACLE_MAX_DEVICES:
        raise ConfigurationError(
            f"oracle enumeration over {n} devices exceeds the {ORACLE_MAX_DEVICES}-device guard"
        )

    t_one = fleet.t_total_s.tolist()
    e_one = fleet.e_total_j.tolist()
    size_one = fleet.size_bytes
    later = list(itertools.accumulate(reversed(size_one), initial=0))[::-1]  # later[i]: sizes from i on
    t_low, t_high = budgets.t_max_s * (1 - _ORACLE_MARGIN), budgets.t_max_s * (1 + _ORACLE_MARGIN)
    e_low, e_high = budgets.e_max_j * (1 - _ORACLE_MARGIN), budgets.e_max_j * (1 + _ORACLE_MARGIN)

    subset: list[int] = []
    best, best_size = [], 0  # the empty subset is always feasible

    def extend(start: int, t: float, e: float, size: int) -> None:
        nonlocal best, best_size
        for i in range(start, n):
            if size + later[i] < best_size:
                return  # nor can a later device's branch, which adds less
            t_i, e_i = t + t_one[i], e + e_one[i]
            # Left-to-right sums decide a subset only away from the budgets;
            # near one, the fsum predicate that plans are checked with decides.
            if t_i > t_high or e_i > e_high:
                continue
            subset.append(i)
            if (t_i <= t_low and e_i <= e_low) or fleet.totals(subset).fits(budgets):
                size_i = size + size_one[i]
                if (-size_i, len(subset), subset) < (-best_size, len(best), best):
                    best, best_size = subset.copy(), size_i
                extend(i + 1, t_i, e_i, size_i)
            subset.pop()

    extend(0, 0.0, 0.0, 0)
    return _build_plan(fleet, best, fleet.totals(best), budgets, "oracle", None)


# Each method's selector, called as selector(fleet, budgets) (see the module docstring).
SELECTORS = {"dp": _select_dp, "oracle": _select_oracle, "no_ds": _select_no_ds}
METHODS = tuple(SELECTORS)
