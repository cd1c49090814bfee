"""Measurement helpers of the relaydiff benchmark.

Percentiles with the ten-sample tail rule, an in-memory span recorder, self
time, output digests and the host context stamped on every result. Standard
library only, so importing this module costs the measured set-up nothing.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

# A tail percentile is trusted only with this many samples beyond it.
TAIL_SAMPLES = 10


def min_jobs_for(q: float) -> int:
    """Fewest samples for which the q-quantile leaves TAIL_SAMPLES beyond it."""

    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q!r}")
    return math.ceil(TAIL_SAMPLES / (1.0 - q) - 1e-9)


@dataclass(frozen=True)
class Percentile:
    value: float
    n: int
    beyond: int

    @property
    def meets_tail_rule(self) -> bool:
        return self.beyond >= TAIL_SAMPLES


def percentile(samples, q: float) -> Percentile:
    """Nearest-rank q-quantile, with the count of samples ranked beyond it."""

    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    # The epsilon keeps 0.9 * 100 (= 90.00000000000001) at rank 90.
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered) - 1e-9)))
    return Percentile(value=ordered[rank - 1], n=len(ordered), beyond=len(ordered) - rank)


# -- spans ---------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    job: str | None
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Spans kept in memory: name, start, end, the enclosing span and the job.

    Spans of one job share its identifier (``job``); nesting is taken from
    the ``with`` blocks, so a span's parent is the one open around it.
    """

    def __init__(self):
        self.spans: list[Span | None] = []
        self._open: list[int] = []
        self.job: str | None = None

    @contextmanager
    def span(self, name: str):
        """Record the ``with`` block; the yielded handle's ``span`` is set on exit."""

        handle = SpanHandle()
        span_id = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(span_id)
        start = time.perf_counter()
        try:
            yield handle
        finally:
            end = time.perf_counter()
            self._open.pop()
            handle.span = self.spans[span_id] = Span(span_id, parent, self.job, name, start, end)

    def closed(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    def write(self, path: Path) -> None:
        rows = [[s.id, s.parent, s.job, s.name, s.start, s.end] for s in self.spans if s]
        path.write_text(json.dumps({"fields": ["id", "parent", "job", "name", "start_s", "end_s"],
                                    "spans": rows}) + "\n")


class SpanHandle:
    span: Span | None = None


class NullRecorder:
    """Tracing off: every span is one shared no-op context."""

    job = None
    _null = nullcontext()

    def span(self, name: str):
        return self._null


def replay_self(total: float, parts) -> float:
    """Self time of a call measured as its span minus a replay of its parts.

    Used where the parts run inside the program, out of reach of the
    benchmark's spans: the benchmark repeats them through the public API and
    subtracts. The result can dip below zero when the parts are timed slower
    on replay than inside the call; it is reported as measured.
    """

    return total - math.fsum(parts)


# -- outputs -------------------------------------------------------------------


def fmt(value) -> str:
    """Canonical text of one output field: 10 significant digits for floats."""

    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def digest(record) -> str:
    """Short stable hash of a JSON-able output record."""

    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- host context --------------------------------------------------------------


def cpu_ticks() -> dict[str, int]:
    """Aggregate iowait and steal ticks from /proc/stat (read only)."""

    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return {}
    # cpu user nice system idle iowait irq softirq steal ...
    if len(fields) < 9 or fields[0] != "cpu":
        return {}
    return {"iowait": int(fields[5]), "steal": int(fields[8])}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    """HEAD of ``root`` read from .git without running git; None outside a repo."""

    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_context(root: Path, numpy_version: str, dp_backend) -> dict:
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(root),
        "dp_backend": dp_backend,
    }
