"""Offline workloads: ``long_lp`` and ``short_mm``.

Each operation is one ``solve_ise`` call, with the default ``ISEConfig``,
on a unique generated instance.  The untimed part of each operation checks
the schedule with the benchmark's own checker and the method's properties.

The traced run replays every solve through the layers' public functions,
in pipeline order, with a span around each call, and requires the replay
to reach the same calibration count as ``solve_ise``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from checker import jobs_of, rows_of
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

import repro.mm.preemptive_bound as preemptive_bound
from repro import solve_ise
from repro.analysis import short_window_lower_bound
from repro.core.partition import partition_jobs
from repro.core.validate import check_ise, check_tise
from repro.instances import long_window_instance, short_window_instance
from repro.longwindow.calibration_points import (
    potential_calibration_points,
    prune_dominated_points,
)
from repro.longwindow.edf import assign_jobs_edf
import repro.longwindow.lp_relaxation as lp_relaxation
from repro.longwindow.lp_relaxation import build_tise_lp
from repro.longwindow.rounding import round_calibrations
from repro.lp import get_backend
from repro.mm.registry import get_mm_algorithm
from repro.shortwindow.intervals import partition_short_jobs
from repro.shortwindow.transform import interval_mm_to_ise


@dataclass(frozen=True)
class OfflineSpec:
    generator: Callable
    n: int
    machines: int
    T: float
    tail_q: float  # the reported tail percentile
    tail_min: int  # samples needed for >= 10 beyond it
    limit_s: float  # latency limit for max_rate_rps
    count_ops: int  # traced ops whose counts are reported
    long: bool


SPECS = {
    "long_lp": OfflineSpec(long_window_instance, 48, 3, 10.0, 0.90, 100, 0.5, 8, True),
    "short_mm": OfflineSpec(short_window_instance, 240, 3, 10.0, 0.80, 50, 0.75, 4, False),
}
WARMUP_SEED = 987_654_321
ZERO_TOL = 1e-9  # the LP value below which a calibration point is empty


def setup(ctx: RunContext):
    spec = SPECS[ctx.workload]
    # Warm-up: one solve of a smaller instance of the same family.
    solve_ise(spec.generator(spec.n // 2, spec.machines, spec.T, seed=WARMUP_SEED).instance)
    return spec


def teardown(spec) -> None:
    pass


def _check(spec: OfflineSpec, generated, result) -> str | None:
    cals, places = rows_of(result.schedule)
    why = check_result(
        jobs_of(generated.instance),
        spec.T,
        cals,
        places,
        result.num_calibrations,
        result.lower_bound.best,
        generated.witness_calibrations,
    )
    if why is None and spec.long:
        # Theorem 12: at most 12 x OPT calibrations on at most 18 m machines.
        machines = len({m for _, m in cals} | {m for _, _, m in places})
        if result.num_calibrations > 12 * generated.witness_calibrations:
            why = (
                f"{result.num_calibrations} calibrations exceed 12 x witness "
                f"{generated.witness_calibrations}"
            )
        elif machines > 18 * spec.machines:
            why = f"{machines} machines exceed 18 m = {18 * spec.machines}"
    return why


def _generate(spec: OfflineSpec, ctx: RunContext, index: int):
    return spec.generator(
        spec.n, spec.machines, spec.T, seed=input_seed(ctx.seed, index)
    )


def _determinism(spec, ctx, outcome: Outcome, first_count: int | None) -> None:
    """The same instance solved again must give the same count."""
    if first_count is None:
        return
    again = solve_ise(_generate(spec, ctx, 0).instance).num_calibrations
    if again != first_count:
        outcome.breach(f"instance 0 solved twice: {first_count} then {again}")


def measure(spec: OfflineSpec, ctx: RunContext):
    outcome = Outcome()
    times: list[float] = []
    jobs = cals = 0
    lower = 0.0
    first_count = None
    deadline = time.perf_counter() + ctx.seconds
    index = 0
    while time.perf_counter() < deadline:
        generated = _generate(spec, ctx, index)
        index += 1
        tic = time.perf_counter()
        try:
            result = solve_ise(generated.instance)
        except Exception as exc:  # noqa: BLE001 - counted and reported
            outcome.fail(f"solve raised {type(exc).__name__}: {exc}")
            continue
        times.append(time.perf_counter() - tic)
        why = _check(spec, generated, result)
        if why is not None:
            outcome.fail(why)
            continue
        outcome.ok()
        if first_count is None and index == 1:
            first_count = result.num_calibrations
        jobs += spec.n
        cals += result.num_calibrations
        lower += result.lower_bound.best
    _determinism(spec, ctx, outcome, first_count)
    metrics = {
        "latency_p50_s": metric(median(times), "s"),
        "latency_tail_s": metric(tail(times, spec.tail_q, spec.tail_min), "s"),
        "jobs_per_s": metric(jobs / sum(times), "1/s"),
        "max_rate_rps": metric(
            max_rate_from_service(times, spec.tail_q, spec.limit_s), "1/s"
        ),
        "calibrations_per_lb": metric(cals / lower, "ratio"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    return outcome, metrics


# ---------------------------------------------------------------------------
# Traced replay
# ---------------------------------------------------------------------------


@contextmanager
def _patched(module, name: str, replacement):
    """Swap ``module.name`` for ``replacement`` during a traced replay only."""
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield
    finally:
        setattr(module, name, original)


def _counting_flow_calls(tracer: Tracer):
    """Count calls of the preemptive max-flow feasibility test."""
    feasible = preemptive_bound.preemptive_feasible

    def counted(*args, **kwargs):
        now = time.perf_counter()
        tracer.add("bound.flow", now, now, **{"bound.flow_calls": 1})
        return feasible(*args, **kwargs)

    return _patched(preemptive_bound, "preemptive_feasible", counted)


def _replay_long(tracer: Tracer, instance) -> int:
    jobs, T = instance.jobs, instance.calibration_length
    m_prime = 3 * instance.machines
    with tracer.span("points.gen_s") as s:
        points = potential_calibration_points(jobs, T)
        s.counts["points.input"] = len(points)
    with tracer.span("points.prune_s") as s:
        kept = prune_dominated_points(points, jobs, T)
        s.counts["points.kept"] = len(kept)
    # The compressed build prunes its points itself.  They are pruned
    # already, and pruning is idempotent, so the replay skips that second
    # pass rather than count the prune twice.
    with tracer.span("lp.build_s") as s, _patched(
        lp_relaxation, "prune_dominated_points", lambda points, jobs, T: list(points)
    ):
        model = build_tise_lp(jobs, T, m_prime, kept, formulation="compressed", names=False)
        s.counts.update(
            {f"lp.{k}": model.stats[k] for k in ("rows", "cols", "nnz")}
        )
    with tracer.span("lp.solve_s") as s:
        solution = get_backend("highs")(model.lp)
        s.counts["lp.iterations"] = solution.iterations
    fractional = {
        t: float(solution.x[i]) for t, i in model.c_vars.items() if solution.x[i] > ZERO_TOL
    }
    with tracer.span("rounding.s") as s:
        rounding = round_calibrations(
            fractional, machine_budget=m_prime, calibration_length=T, threshold=0.5
        )
        s.counts["rounding.calibrations"] = rounding.num_calibrations
    with tracer.span("edf.s"):
        schedule = assign_jobs_edf(jobs, rounding.schedule, mirror=True)
        schedule = schedule.prune_empty_calibrations({j.job_id: j.processing for j in jobs})
    with tracer.span("validate.s"):
        check_tise(instance, schedule)
    return schedule.num_calibrations


def _replay_short(tracer: Tracer, instance) -> int:
    jobs, T = instance.jobs, instance.calibration_length
    with tracer.span("intervals.s") as s:
        partition = partition_short_jobs(jobs, T, gamma=2.0)
        s.counts["intervals.buckets"] = len(partition.buckets)
        s.counts["intervals.max_bucket_jobs"] = max(len(b.jobs) for b in partition.buckets)
    mm = get_mm_algorithm("best_greedy")
    merged = None
    for bucket in partition.buckets:
        with tracer.span("mm.solve_s") as s:
            mm_schedule = mm.solve(bucket.jobs, speed=1.0)
            s.counts["mm.machines"] = mm_schedule.num_machines
        with tracer.span("lift.s") as s:
            lifted = interval_mm_to_ise(bucket.jobs, mm_schedule, bucket.start, T, 2.0)
            s.counts["lift.crossing_jobs"] = lifted.crossing_jobs
        with tracer.span("bound.pipeline_s"):
            preemptive_bound.preemptive_machine_lower_bound(bucket.jobs, 1.0)
        # Disjoint machines per interval: the calibrations, and so the
        # count, are those of the pipeline's shared per-pass pools.
        merged = lifted.schedule if merged is None else merged.merged_with(lifted.schedule)
    merged = merged.prune_empty_calibrations({j.job_id: j.processing for j in jobs})
    with tracer.span("validate.s"):
        check_ise(instance, merged)
    with tracer.span("bound.solver_s"):
        short_window_lower_bound(jobs, T, gamma=2.0)
    return merged.num_calibrations


# Spans are named after the metric they feed.
TIMED = (
    "points.gen_s", "points.prune_s", "lp.build_s", "lp.solve_s", "rounding.s", "edf.s",
    "intervals.s", "mm.solve_s", "lift.s", "bound.pipeline_s", "bound.solver_s", "validate.s",
)
COUNTS = (
    "points.input", "points.kept", "lp.rows", "lp.cols", "lp.nnz", "lp.iterations",
    "rounding.calibrations", "intervals.buckets", "intervals.max_bucket_jobs",
    "mm.machines", "lift.crossing_jobs", "bound.flow_calls",
)


def traced(spec: OfflineSpec, ctx: RunContext):
    outcome = Outcome()
    tracer = Tracer()
    solve_spans: dict[int, float] = {}
    deadline = time.perf_counter() + ctx.seconds
    index = 0
    while index < spec.count_ops or time.perf_counter() < deadline:
        generated = _generate(spec, ctx, index)
        index += 1
        op = tracer.begin_op()
        with tracer.span("solve_ise") as s:
            result = solve_ise(generated.instance)
        solve_spans[op] = s.seconds
        why = _check(spec, generated, result)
        split = partition_jobs(generated.instance)
        if spec.long:
            sub = generated.instance.restricted_to(split.long_jobs)
            replayed = _replay_long(tracer, sub)
        else:
            sub = generated.instance.restricted_to(split.short_jobs)
            with _counting_flow_calls(tracer):
                replayed = _replay_short(tracer, sub)
        if why is None and replayed != result.num_calibrations:
            why = f"replay reached {replayed} calibrations, solve_ise {result.num_calibrations}"
        if why is None:
            outcome.ok()
        else:
            outcome.fail(why)
    tracer.write(ctx.workdir / f"spans-{ctx.workload}-seed{ctx.seed}.json")

    metrics = {
        name: metric(median(list(tracer.per_op(name).values())), "s") for name in TIMED
    }
    # The replayed layers are the top-level spans beside each solve_ise span.
    replayed_s: dict[int, float] = {}
    for span in tracer.spans:
        if span.parent == -1 and span.name != "solve_ise":
            replayed_s[span.op] = replayed_s.get(span.op, 0.0) + span.seconds
    metrics["solver.self_s"] = metric(
        median([solve_spans[op] - replayed_s.get(op, 0.0) for op in solve_spans]), "s"
    )
    first_ops = set(range(spec.count_ops))
    for name in COUNTS:
        metrics[name] = metric(tracer.count(name, first_ops), "count")
    return outcome, metrics
