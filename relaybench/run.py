"""relaydiff benchmark: three closed-loop workloads through the public API.

Run from the repository root:

    python3 relaybench/run.py --workload plan-cold --seed 1 --seconds 55 --trace 0
    python3 relaybench/run.py --workload all --seed 1 --seconds 55

``--trace 0`` measures the end-to-end metrics of one workload for
``--seconds`` seconds in this fresh process. ``--trace 1`` is the separate
traced run: it records spans around every public call the benchmark makes
and reports the per-layer metrics of all three workloads (the per-layer list
spans all three), giving each a third of ``--seconds``; the spans are written
to ``.bench_run/spans-seed<N>.json``. ``--workload all`` runs every workload
untraced and then the traced run, each in its own process, and prints every
metric with its unit plus the tracing overhead.

Every job's output is checked: invariants for any seed, and for the recorded
seed a comparison with ``relaybench/reference/<workload>.json`` (refresh with
``--record-jobs N``). The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
1 when a job failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

from measure import (
    NullRecorder, SpanRecorder, cpu_ticks, digest, host_context, min_jobs_for, percentile,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
REFERENCE_DIR = HERE / "reference"
WORKLOAD_NAMES = ("sweep-grid", "plan-cold", "recover-churn")
SETUP_REPEATS = 5
# Failures beyond this many are counted but not printed.
MAX_REPORTED_PROBLEMS = 20


def import_package():
    """Import relaydiff from this checkout's sources; seconds spent importing."""

    require_sources()
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import relaydiff
    import relaydiff.cli  # noqa: F401  (part of what a CLI user pays for)
    import_s = time.perf_counter() - started
    if Path(relaydiff.__file__).resolve().parent != (SRC / "relaydiff").resolve():
        sys.exit(f"error: relaydiff imported from {relaydiff.__file__}, not from {SRC}")
    return relaydiff, import_s


def fresh_import_s() -> float:
    """Seconds to import relaydiff and relaydiff.cli in a fresh interpreter.

    A process imports a module once, so the import part of ``setup_s`` is
    repeated in child processes, one at a time, to take its median.
    """

    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); started = time.perf_counter(); "
            "import relaydiff, relaydiff.cli; print(time.perf_counter() - started)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True, text=True,
                          check=True, timeout=60)
    return float(proc.stdout)


def require_sources() -> None:
    if not (SRC / "relaydiff" / "__init__.py").is_file():
        sys.exit(f"error: no relaydiff sources under {SRC}; run from a full checkout")


def load_reference(name: str, seed: int) -> list[str]:
    path = REFERENCE_DIR / f"{name}.json"
    if not path.is_file():
        return []
    data = json.loads(path.read_text())
    return data["digests"] if data["seed"] == seed else []


class Loop:
    """Closed loop over one workload's jobs, checking every output."""

    def __init__(self, workload, reference: list[str], traced: bool):
        self.w = workload
        self.reference = reference
        self.traced = traced
        self.job_s: list[float] = []
        self.digests: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def setup(self) -> tuple[float, object]:
        """Median seconds of SETUP_REPEATS set-ups, and the first job's input."""

        times = []
        for _ in range(SETUP_REPEATS):
            self.w.rec.job = f"{self.w.name}:setup"
            started = time.perf_counter()
            first = self.w.setup()
            times.append(time.perf_counter() - started)
        return statistics.median(times), first

    def run(self, first_input, seconds: float, min_jobs: int = 0, max_jobs: int | None = None):
        rec = self.w.rec
        inp = first_input
        deadline = time.perf_counter() + seconds
        i = 0
        while True:
            rec.job = f"{self.w.name}:{i}"
            problems: list[str] = []
            try:
                if i:
                    inp = self.w.make_input(i)
                with rec.span("job"):
                    started = time.perf_counter()
                    out = self.w.run(inp)
                    self.job_s.append(time.perf_counter() - started)
                record, problems = self.w.check(inp, out)
                self.digests.append(digest(record))
                if i < len(self.reference) and self.digests[-1] != self.reference[i]:
                    problems.append("output differs from the recorded reference")
                if self.traced:
                    problems += self.w.replay(i, inp, out)
            except Exception:  # a job that raises is a failed job; keep measuring
                problems.append(traceback.format_exc(limit=3).strip())
            if problems:
                self.failed += 1
                self.problems += [f"{self.w.name} job {i}: {p}" for p in problems]
            i += 1
            self.attempted = i
            if max_jobs is not None and i >= max_jobs:
                break
            if max_jobs is None and i >= min_jobs and time.perf_counter() >= deadline:
                break


def untraced(args) -> int:
    rd, import_s = import_package()
    import numpy
    from workloads import WORKLOADS

    ticks = cpu_ticks()
    with work_dir() as workdir:
        workload = WORKLOADS[args.workload](args.seed, workdir, NullRecorder())
        loop = Loop(workload, load_reference(args.workload, args.seed), traced=False)
        setup_s, first = loop.setup()
        import_samples = [import_s] + [fresh_import_s() for _ in range(SETUP_REPEATS - 1)]
        loop.run(first, args.seconds)
    jobs = len(loop.job_s)
    p50 = percentile(loop.job_s, 0.5)
    p90 = percentile(loop.job_s, 0.9)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "jobs_per_s": (jobs / sum(loop.job_s), "1/s"),
        "job_p50_ms": (p50.value * 1e3, "ms"),
        "job_p90_ms": (p90.value * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(import_samples) + setup_s, "s"),
    }
    context = host_context(ROOT, numpy.__version__, getattr(rd, "DP_BACKEND", None))
    context.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, jobs=jobs,
        failed_frac=loop.failed / loop.attempted,
        p90_samples_beyond=p90.beyond,
        p90_meets_tail_rule=p90.meets_tail_rule,
        p90_min_jobs=min_jobs_for(0.9),
        import_s_samples=import_samples,
        cpu_ticks_during_run={k: cpu_ticks().get(k, 0) - v for k, v in ticks.items()},
    )
    return report(metrics, context, loop.attempted, loop.failed, loop.problems)


def traced(args) -> int:
    rd, _ = import_package()
    import numpy
    from workloads import WORKLOADS

    ticks = cpu_ticks()
    rec = SpanRecorder()
    metrics, attempted, failed, problems = {}, 0, 0, []
    order = [args.workload] + [n for n in WORKLOAD_NAMES if n != args.workload]
    with work_dir() as workdir:
        for name in order:
            workload = WORKLOADS[name](args.seed, workdir, rec)
            loop = Loop(workload, load_reference(name, args.seed), traced=True)
            _, first = loop.setup()
            loop.run(first, args.seconds / len(order), min_jobs=workload.count_jobs)
            attempted += loop.attempted
            failed += loop.failed
            problems += loop.problems
            layers = workload.layer_metrics() if not loop.failed else {}
            layers["trace.jobs_per_s"] = (len(loop.job_s) / sum(loop.job_s), "1/s")
            metrics.update({f"{name}.{k}": v for k, v in layers.items()})
    spans_path = RUN_DIR / f"spans-seed{args.seed}.json"
    rec.write(spans_path)
    context = host_context(ROOT, numpy.__version__, getattr(rd, "DP_BACKEND", None))
    context.update(
        traced=True, seed=args.seed, seconds=args.seconds, spans=len(rec.spans),
        spans_file=str(spans_path.relative_to(ROOT)),
        cpu_ticks_during_run={k: cpu_ticks().get(k, 0) - v for k, v in ticks.items()},
    )
    return report(metrics, context, attempted, failed, problems)


def record(args) -> int:
    """Run the first N jobs of a workload and store their output digests."""

    import_package()
    from workloads import WORKLOADS

    with work_dir() as workdir:
        loop = Loop(WORKLOADS[args.workload](args.seed, workdir, NullRecorder()), [], traced=False)
        _, first = loop.setup()
        loop.run(first, 0.0, max_jobs=args.record_jobs)
    if loop.failed:
        print("\n".join(loop.problems[:MAX_REPORTED_PROBLEMS]), file=sys.stderr)
        return 1
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{args.workload}.json"
    path.write_text(json.dumps({"seed": args.seed, "digests": loop.digests}, indent=0) + "\n")
    print(f"wrote {path.relative_to(ROOT)} ({len(loop.digests)} jobs)")
    return 0


@contextmanager
def work_dir():
    """A directory for this process's input and trace files, removed afterwards."""

    workdir = RUN_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(metrics: dict, context: dict, attempted: int, failed: int, problems: list[str]) -> int:
    for line in problems[:MAX_REPORTED_PROBLEMS]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6f} {unit}")
    print(f"{'failed_frac':48s} {failed / attempted:14.6f} frac  ({failed} of {attempted} jobs)")
    print("context " + json.dumps(context, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload untraced, then the traced run, each in a fresh process."""

    results = {}
    status = 0
    for name, trace in [(n, 0) for n in WORKLOAD_NAMES] + [(WORKLOAD_NAMES[0], 1)]:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=170 + 3 * args.seconds)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        label = "traced" if trace else name
        print(f"== {label} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        if lines:
            results[label] = json.loads(lines[-1])
    if "traced" in results:
        print("== tracing overhead (1 - traced / untraced jobs_per_s)")
        for name in WORKLOAD_NAMES:
            if name in results:
                plain = results[name]["metrics"]["jobs_per_s"]["value"]
                with_spans = results["traced"]["metrics"][f"{name}.trace.jobs_per_s"]["value"]
                print(f"{name + '.trace.overhead':48s} {1 - with_spans / plain:14.6f} frac")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": status == 0 and failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {f"{label}.{k}": v for label, r in results.items()
                                  for k, v in r["metrics"].items() if label != "traced"}}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-jobs", type=int, default=0,
                        help="write the reference digests of the first N jobs for --seed")
    args = parser.parse_args(argv)
    require_sources()
    if args.workload == "all":
        return run_all(args)
    if args.record_jobs:
        return record(args)
    return traced(args) if args.trace else untraced(args)


if __name__ == "__main__":
    sys.exit(main())
