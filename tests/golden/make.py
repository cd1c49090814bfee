"""The golden digests: one SHA-256 per seeded input, of the bytes a writer gives for it.

Each key of ``digests.json`` names one input; its value is the SHA-256 of
what the package writes for that input: a plan file (``save_plan``), a
trace file (``save_trace``) or a sweep CSV (``relaydiff sweep``). The
corpus:

* DP plans at plan-cold's budgets, {1, 2, 3} s x {100, 200, 300} J: 500
  devices on the default grid, and 40 on a 1000x1000 grid;
* DP plans of a 40-device world over the default sweep budgets;
* no_ds and oracle plans of 12- and 16-device worlds;
* traces of the 40-device seed-1 world's 3 s / 300 J DP plan, and of the
  2 s / 200 J no_ds and oracle plans of a 12- and a 16-device world:
  failure-free, with injected failures, and with failures drawn at 0.3 per
  stage, whose partial traces (``RecoveryInfeasible``) are written too;
* split-baseline traces of the same world;
* ``relaydiff sweep --methods dp,no_ds,oracle,split`` CSVs.

``tests/test_golden.py`` recomputes every entry and also counts which DP
table each plan filled, through ``reduce_knapsack``. The digests depend on
libm's ``log2`` and ``pow`` (the link rates), so they hold on hosts whose
libm rounds as the one that wrote them. Rewrite the file only with an output
change that CHANGES.md states; from the repository root:

    PYTHONPATH=src python3 tests/golden/make.py
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import relaydiff as rd
from relaydiff import scheduler
from relaydiff.cli import main as cli_main

DIGESTS = Path(__file__).resolve().parent / "digests.json"

AREA_M = (500.0, 500.0)
PLAN_COLD_BUDGETS = [(t_max, e_max) for t_max in (1.0, 2.0, 3.0) for e_max in (100.0, 200.0, 300.0)]
SMALL_BUDGETS = [(0.5, 50.0), (1.0, 100.0), (1.5, 300.0), (3.0, 100.0), (3.0, 300.0)]
CHURN_BUDGETS = rd.Budgets(t_max_s=3.0, e_max_j=300.0)
SMALL_RUN_BUDGETS = rd.Budgets(t_max_s=2.0, e_max_j=200.0)
SWEEP_METHODS = "dp,no_ds,oracle,split"


def _plans():
    """(key, plan) of every plan of the corpus."""

    for seed in range(5):
        world = rd.generate_scenario(500, AREA_M, seed=seed)
        for t_max, e_max in PLAN_COLD_BUDGETS:
            yield (f"dp n=500 seed={seed} t_max={t_max} e_max={e_max}",
                   rd.select_devices_dp(world, rd.Budgets(t_max, e_max)))
    for seed in range(2):
        world = rd.generate_scenario(40, AREA_M, seed=seed)
        for t_max, e_max in PLAN_COLD_BUDGETS:
            disc = rd.Discretization(t_max / 1000, e_max / 1000)
            yield (f"dp n=40 seed={seed} t_max={t_max} e_max={e_max} grid=1000x1000",
                   rd.select_devices_dp(world, rd.Budgets(t_max, e_max), disc))
    world = rd.generate_scenario(40, AREA_M, seed=7)
    for t_max in rd.sweep.DEFAULT_T_MAX_GRID:
        for e_max in rd.sweep.DEFAULT_E_MAX_GRID:
            yield (f"dp n=40 seed=7 t_max={t_max} e_max={e_max}",
                   rd.select_devices_dp(world, rd.Budgets(t_max, e_max)))
    for n, seed in ((12, 3), (16, 4)):
        world = rd.generate_scenario(n, AREA_M, seed=seed)
        for t_max, e_max in SMALL_BUDGETS:
            budgets = rd.Budgets(t_max, e_max)
            yield f"no_ds n={n} seed={seed} t_max={t_max} e_max={e_max}", rd.select_devices_no_ds(world, budgets)
            yield f"oracle n={n} seed={seed} t_max={t_max} e_max={e_max}", rd.select_devices_oracle(world, budgets)


def _runs(world, plan, drawn: int):
    """(name, trace) of ``plan``'s runs on ``world``: failure-free, injected
    failures, and failures drawn at 0.3 per stage with ``drawn`` seeds."""

    first, last = plan.device_ids[0], plan.device_ids[-1]
    failures = [("no failures", rd.NO_FAILURES)]
    failures += [(f"injected {first}:{phase}", rd.FailureSpec(injected=((first, phase),)))
                 for phase in ("download", "compute", "upload")]
    failures.append((f"injected {first}:compute {last}:upload",
                     rd.FailureSpec(injected=((first, "compute"), (last, "upload")))))
    failures += [(f"fail-prob 0.3 fail-seed {seed}", rd.FailureSpec(per_stage_prob=0.3, rng_seed=seed))
                 for seed in range(drawn)]
    for name, spec in failures:
        try:
            yield name, rd.simulate_pipeline(world, plan, spec)
        except rd.RecoveryInfeasible as exc:
            yield name, exc.trace


def _traces():
    """(key, trace) of every trace of the corpus, partial ones included."""

    world = rd.generate_scenario(40, AREA_M, seed=1)
    plan = rd.select_devices_dp(world, CHURN_BUDGETS)
    for name, trace in _runs(world, plan, 30):
        yield f"simulate seed=1 t_max=3.0 e_max=300.0 {name}", trace
    for n, seed in ((12, 0), (16, 1)):
        small = rd.generate_scenario(n, AREA_M, seed=seed)
        for method, select in (("no_ds", rd.select_devices_no_ds), ("oracle", rd.select_devices_oracle)):
            for name, trace in _runs(small, select(small, SMALL_RUN_BUDGETS), 6):
                yield f"simulate {method} n={n} seed={seed} t_max=2.0 e_max=200.0 {name}", trace
    pair = rd.pick_split_pair(world)
    for steps, phi in ((pair.n_steps * plan.n_stages, 0.5), (pair.n_steps, 0.25)):
        config = rd.SplitConfig(pair.device_a_id, pair.device_b_id, phi, steps)
        yield (f"split seed=1 t_max=3.0 e_max=300.0 devices={pair.device_a_id},{pair.device_b_id} "
               f"phi={phi} steps={steps}", rd.simulate_split(world, config, CHURN_BUDGETS))


def _sweep_args():
    """The ``relaydiff sweep`` arguments of each sweep CSV of the corpus."""

    yield ["-n", "12", "--seed", "42"]
    yield ["-n", "16", "--seed", "43"]
    yield ["-n", "8", "--seed", "44", "--reps", "2", "--t-grid", "0.5,2,4", "--e-grid", "20,150,400"]


@contextlib.contextmanager
def counted_tables(tables: collections.Counter):
    """Count in ``tables`` the DP table each ``reduce_knapsack`` call picks, while inside."""

    reduce_knapsack = scheduler.reduce_knapsack

    def counted(*args):
        reduction = reduce_knapsack(*args)
        tables[reduction.table] += 1
        return reduction

    scheduler.reduce_knapsack = counted
    try:
        yield tables
    finally:
        scheduler.reduce_knapsack = reduce_knapsack


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(tables: collections.Counter | None = None) -> dict[str, str]:
    """The digest of every input of the corpus, by key; ``tables`` counts the DP tables filled."""

    entries = {}
    with tempfile.TemporaryDirectory() as tmp, counted_tables(collections.Counter() if tables is None else tables):
        path = Path(tmp) / "out"
        for key, plan in _plans():
            rd.save_plan(plan, path)
            entries[key] = _sha256(path)
        for key, trace in _traces():
            rd.save_trace(trace, path)
            entries[key] = _sha256(path)
        for args in _sweep_args():
            argv = ["sweep", *args, "--methods", SWEEP_METHODS, "-o", str(path)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(argv)
            if code != 0:
                raise RuntimeError(f"relaydiff {' '.join(argv)} exited {code}")
            entries[" ".join(["sweep", *args, "--methods", SWEEP_METHODS])] = _sha256(path)
    return entries


def main() -> int:
    DIGESTS.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
