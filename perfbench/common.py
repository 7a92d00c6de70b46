"""Shared pieces of the benchmark: run context, outcome accounting, statistics."""

from __future__ import annotations

import math
import os
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

from checker import ScheduleRejected, check_schedule


@dataclass(frozen=True)
class RunContext:
    """What one benchmark run was asked to do."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    workdir: Path  # scratch space inside the checkout
    sync: str = "os"


@dataclass
class Outcome:
    """Operations attempted and failed, and whether every check held.

    A failed operation is one whose output broke a check (or that errored).
    ``known`` failures are the expected ones of a fault kept in the
    workload on purpose; any other failure, or any run-level breach, makes
    the run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    reported: int = 0

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, why: str, known: bool = False) -> None:
        self.attempted += 1
        self.failed += 1
        if not known:
            self.breach(why)

    def breach(self, why: str) -> None:
        """A check failed that no single counted operation owns."""
        self.correct = False
        if self.reported < 20:
            self.reported += 1
            print(f"perfbench: {why}", file=sys.stderr)


def input_seed(run_seed: int, index: int) -> int:
    """Generator seed of input ``index`` of a run with seed ``run_seed``."""
    return run_seed * 100_003 + index


def check_result(
    jobs, T: float, cals, places, reported: int, lower_bound: float, witness: int
) -> str | None:
    """The checks every schedule must pass; returns why it failed, or None."""
    try:
        check_schedule(jobs, T, cals, places, reported)
    except ScheduleRejected as exc:
        return f"schedule rejected: {exc}"
    # A certified lower bound may not exceed any feasible schedule's count.
    slack = 1e-6 * max(1.0, lower_bound)
    if lower_bound > reported + slack:
        return f"lower bound {lower_bound} exceeds calibrations {reported}"
    if lower_bound > witness + slack:
        return f"lower bound {lower_bound} exceeds planted witness {witness}"
    return None


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values, q: float, minimum: int) -> float:
    """The ``q`` percentile, warning when fewer than 10 samples lie beyond it."""
    if len(values) < minimum:
        print(
            f"perfbench: only {len(values)} samples; the p{round(q * 100)} "
            f"tail needs {minimum}",
            file=sys.stderr,
        )
    return percentile(values, q)


def max_rate_from_service(service: list[float], q: float, limit: float) -> float:
    """Highest open-loop arrival rate one serial caller could accept.

    The measured per-operation service times are replayed, in order,
    through a FIFO queue fed at a fixed rate (Lindley's recursion).  The
    rate passes when the ``q`` percentile of latency, counted from each
    arrival, stays within ``limit`` and the queue drains by the end.
    Bisection on the rate gives a continuous answer.
    """

    def passes(rate: float) -> bool:
        gap = 1.0 / rate
        wait = 0.0
        latencies = []
        for s in service:
            latencies.append(wait + s)
            wait = max(0.0, wait + s - gap)
        return percentile(latencies, q) <= limit and wait <= limit

    lo, hi = 1e-6, 1.0 / min(service)
    if passes(hi):
        return hi
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size (VmHWM) of a process, in MB."""
    for line in Path(f"/proc/{pid or os.getpid()}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid or os.getpid()}")


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}
