"""Independent ISE schedule checker.

This module deliberately shares no code with the program under test: it
reads plain numbers (job windows, calibration starts, placements) and
re-derives feasibility from the problem statement alone:

* every job is placed exactly once, inside its window ``[r_j, d_j]``;
* each job runs inside one calibration ``[t, t + T)`` on its machine;
* no two jobs overlap on a machine;
* no two calibrations on a machine overlap;
* the reported calibration count equals the schedule's.

Times are floats, so comparisons allow a slack of ``REL_TOL * T`` (times are
measured in units of ``T``; the slack is relative so that rescaled inputs
are judged alike).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from typing import Iterable, Mapping, Sequence

REL_TOL = 1e-6

JobRow = tuple[int, float, float, float]  # (id, release, deadline, processing)
CalRow = tuple[float, int]  # (start, machine)
PlaceRow = tuple[int, float, int]  # (job id, start, machine)


class ScheduleRejected(Exception):
    """The schedule breaks one of the checked rules."""


def jobs_of(instance) -> list[JobRow]:
    """Plain job rows from an instance-like object (``.jobs`` of records)."""
    return [(j.job_id, j.release, j.deadline, j.processing) for j in instance.jobs]


def rows_of(schedule) -> tuple[list[CalRow], list[PlaceRow]]:
    """Plain calibration and placement rows from a schedule-like object."""
    cals = [(c.start, c.machine) for c in schedule.calibrations]
    places = [(p.job_id, p.start, p.machine) for p in schedule.placements]
    return cals, places


def rows_of_wire(payload: Mapping) -> tuple[list[CalRow], list[PlaceRow]]:
    """Plain rows from the JSON schedule a server response carries."""
    cals = [(float(c["start"]), int(c["machine"])) for c in payload["calibrations"]]
    places = [
        (int(p["job"]), float(p["start"]), int(p["machine"]))
        for p in payload["placements"]
    ]
    return cals, places


def check_schedule(
    jobs: Sequence[JobRow],
    T: float,
    calibrations: Iterable[CalRow],
    placements: Iterable[PlaceRow],
    reported_calibrations: int,
) -> None:
    """Raise :class:`ScheduleRejected` unless the schedule is feasible."""
    tol = REL_TOL * T
    cals = sorted(calibrations)
    places = list(placements)
    if reported_calibrations != len(cals):
        raise ScheduleRejected(
            f"reported {reported_calibrations} calibrations, schedule has {len(cals)}"
        )

    by_id = {}
    for job_id, release, deadline, processing in jobs:
        if job_id in by_id:
            raise ScheduleRejected(f"job {job_id} appears twice in the input")
        by_id[job_id] = (release, deadline, processing)
    placed: set[int] = set()
    for job_id, _, _ in places:
        if job_id not in by_id:
            raise ScheduleRejected(f"placement of unknown job {job_id}")
        if job_id in placed:
            raise ScheduleRejected(f"job {job_id} is placed more than once")
        placed.add(job_id)
    missing = sorted(set(by_id) - placed)
    if missing:
        raise ScheduleRejected(f"jobs {missing[:5]} are never placed")

    cal_starts: dict[int, list[float]] = defaultdict(list)
    for start, machine in cals:
        cal_starts[machine].append(start)
    for machine, starts in cal_starts.items():
        for a, b in zip(starts, starts[1:]):
            if b < a + T - tol:
                raise ScheduleRejected(
                    f"calibrations at {a} and {b} overlap on machine {machine}"
                )

    runs: dict[int, list[tuple[float, float, int]]] = defaultdict(list)
    for job_id, start, machine in places:
        release, deadline, processing = by_id[job_id]
        end = start + processing
        if start < release - tol or end > deadline + tol:
            raise ScheduleRejected(
                f"job {job_id} runs [{start}, {end}] outside its window "
                f"[{release}, {deadline}]"
            )
        # Calibrations on a machine are disjoint (checked above), so only the
        # latest one starting by ``start`` can contain the job.
        starts = cal_starts.get(machine, [])
        k = bisect_right(starts, start + tol) - 1
        if k < 0 or end > starts[k] + T + tol:
            raise ScheduleRejected(
                f"job {job_id} on machine {machine} lies in no single calibration"
            )
        runs[machine].append((start, end, job_id))
    for machine, spans in runs.items():
        spans.sort()
        for (_, end_a, job_a), (start_b, _, job_b) in zip(spans, spans[1:]):
            if start_b < end_a - tol:
                raise ScheduleRejected(
                    f"jobs {job_a} and {job_b} overlap on machine {machine}"
                )
