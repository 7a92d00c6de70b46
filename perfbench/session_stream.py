"""``session_stream``: streaming arrivals through ``ISESession``.

Each trace is one seeded ``mixed_instance`` whose jobs arrive in release
order (releases clamped to the session's start at 0), each submitted at its
release time with a commit horizon, journaled with ``sync="os"`` (durable
across SIGKILL; the host's fdatasync is then not what is timed).  An
operation is one ``submit_job``: a local repair into committed capacity or
a re-solve of the uncommitted suffix, plus one journal append.

Checks from outside: every final schedule passes the independent checker,
its count respects the certified lower bound and the planted witness, and
every calibration a receipt or advance reported committed is still in the
final schedule (never-retract).
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

from checker import rows_of
from common import (
    Outcome,
    RunContext,
    check_result,
    input_seed,
    max_rate_from_service,
    median,
    metric,
    peak_rss_mb,
    tail,
)
from spans import Tracer

from repro.analysis import combined_lower_bound
from repro.core.job import Instance
from repro.instances import mixed_instance
from repro.online import ISESession

N = 60
MACHINES = 2
T = 10.0
HORIZON = 2.0
TAIL_Q = 0.99
TAIL_MIN = 1000
LIMIT_S = 0.1  # latency limit for max_rate_rps
COUNT_TRACES = 3  # traced traces whose counts are reported
WARMUP_SEED = 987_654_321


@dataclass
class Trace:
    instance: Instance
    witness: int
    arrivals: list


def make_trace(seed: int) -> Trace:
    generated = mixed_instance(N, MACHINES, T, seed)
    jobs = tuple(replace(j, release=max(j.release, 0.0)) for j in generated.instance.jobs)
    instance = Instance(
        jobs=jobs, machines=MACHINES, calibration_length=T, name=generated.instance.name
    )
    arrivals = sorted(jobs, key=lambda j: (j.release, j.job_id))
    return Trace(instance, generated.witness_calibrations, arrivals)


@dataclass
class Streamed:
    session: ISESession
    starts: list[float]  # per submit_job
    seconds: list[float]
    repaired: list[bool]
    committed: set  # (start, machine) reported committed along the way


def stream(trace: Trace, directory: Path | None, name: str, sync: str) -> Streamed:
    session = ISESession.create(
        directory, name, machines=MACHINES, calibration_length=T,
        commit_horizon=HORIZON, sync=sync,
    )
    starts, seconds, repaired, committed = [], [], [], set()
    for job in trace.arrivals:
        tic = time.perf_counter()
        starts.append(tic)
        receipt = session.submit_job(
            job.job_id, release=job.release, deadline=job.deadline,
            processing=job.processing, at=job.release,
        )
        seconds.append(time.perf_counter() - tic)
        repaired.append(receipt.repaired)
        committed.update(receipt.newly_committed)
    end = max(j.deadline for j in trace.arrivals) + T
    committed.update(session.advance(end).newly_committed)
    return Streamed(session, starts, seconds, repaired, committed)


def _check(trace: Trace, streamed: Streamed, lower: float) -> str | None:
    schedule = streamed.session.schedule
    cals, places = rows_of(schedule)
    jobs = [(j.job_id, j.release, j.deadline, j.processing) for j in trace.instance.jobs]
    why = check_result(jobs, T, cals, places, schedule.num_calibrations, lower, trace.witness)
    if why is None:
        lost = streamed.committed - set(cals)
        if lost:
            why = f"committed calibrations {sorted(lost)[:3]} were retracted"
    return why


def setup(ctx: RunContext):
    warm = make_trace(WARMUP_SEED)
    stream(warm, None, "warmup", ctx.sync).session.close()
    return None


def teardown(state) -> None:
    pass


def _run(ctx: RunContext, keep):
    """Stream whole traces for the run's seconds; ``keep`` sees each one."""
    outcome = Outcome()
    root = Path(tempfile.mkdtemp(prefix="sessions-", dir=ctx.workdir))
    first_count = None
    try:
        deadline = time.perf_counter() + ctx.seconds
        index = 0
        while index < COUNT_TRACES or time.perf_counter() < deadline:
            trace = make_trace(input_seed(ctx.seed, index))
            streamed = stream(trace, root, f"trace-{index}", ctx.sync)
            journal = ISESession.journal_path(root, f"trace-{index}")
            streamed.session.close()
            lower = combined_lower_bound(trace.instance).best
            why = _check(trace, streamed, lower)
            # An operation is one arrival; a bad final schedule fails them all.
            for _ in streamed.seconds:
                if why is None:
                    outcome.ok()
                else:
                    outcome.fail(why)
            if index == 0:
                first_count = streamed.session.schedule.num_calibrations
            keep(index, trace, streamed, lower, journal.stat().st_size)
            index += 1
        again = stream(make_trace(input_seed(ctx.seed, 0)), None, "again", ctx.sync)
        if again.session.schedule.num_calibrations != first_count:
            outcome.breach("trace 0 streamed twice gave different counts")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return outcome


def measure(state, ctx: RunContext):
    seconds: list[float] = []
    totals = {"cals": 0, "lower": 0.0}

    def keep(index, trace, streamed, lower, journal_bytes):
        seconds.extend(streamed.seconds)
        totals["cals"] += streamed.session.schedule.num_calibrations
        totals["lower"] += lower

    outcome = _run(ctx, keep)
    metrics = {
        "latency_p50_s": metric(median(seconds), "s"),
        "latency_tail_s": metric(tail(seconds, TAIL_Q, TAIL_MIN), "s"),
        "jobs_per_s": metric(len(seconds) / sum(seconds), "1/s"),
        "max_rate_rps": metric(max_rate_from_service(seconds, TAIL_Q, LIMIT_S), "1/s"),
        "calibrations_per_lb": metric(totals["cals"] / totals["lower"], "ratio"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    return outcome, metrics


def traced(state, ctx: RunContext):
    """Spans from receipts and ``journal_write_seconds``."""
    tracer = Tracer()
    counts = {"session.repairs": 0, "session.replans": 0, "journal.bytes": 0}
    journal_s: list[float] = []

    def keep(index, trace, streamed, lower, journal_bytes):
        for start, secs, repaired in zip(streamed.starts, streamed.seconds, streamed.repaired):
            tracer.begin_op()
            tracer.add("session.repair" if repaired else "session.replan", start, start + secs)
        journal_s.append(streamed.session.journal_write_seconds / len(streamed.seconds))
        if index < COUNT_TRACES:
            counts["session.repairs"] += sum(streamed.repaired)
            counts["session.replans"] += len(streamed.repaired) - sum(streamed.repaired)
            counts["journal.bytes"] += journal_bytes

    outcome = _run(ctx, keep)
    tracer.write(ctx.workdir / f"spans-{ctx.workload}-seed{ctx.seed}.json")
    metrics = {
        "session.repair_s": metric(median(list(tracer.per_op("session.repair").values())), "s"),
        "session.replan_s": metric(median(list(tracer.per_op("session.replan").values())), "s"),
        "journal.write_s": metric(median(journal_s), "s"),
    }
    metrics.update({name: metric(value, "count") for name, value in counts.items()})
    return outcome, metrics
