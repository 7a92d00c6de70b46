"""Tests for the benchmark's independent schedule checker.

Run with ``python3 -m pytest perfbench``.  Each rule the checker enforces
has one hand-broken schedule that it must reject; the generators' planted
witness schedules must all pass.
"""

from __future__ import annotations

import pytest

from checker import ScheduleRejected, check_schedule, jobs_of, rows_of
from repro.instances import (
    clustered_instance,
    long_window_instance,
    mixed_instance,
    short_window_instance,
    unit_instance,
)

T = 10.0
# Two jobs sharing one calibration on machine 0, one job alone on machine 1.
JOBS = [(0, 0.0, 20.0, 4.0), (1, 0.0, 20.0, 5.0), (2, 30.0, 40.0, 6.0)]
CALS = [(0.0, 0), (30.0, 1)]
PLACES = [(0, 0.0, 0), (1, 4.0, 0), (2, 31.0, 1)]


def test_accepts_valid_schedule():
    check_schedule(JOBS, T, CALS, PLACES, reported_calibrations=2)


@pytest.mark.parametrize(
    ("cals", "places", "reported", "reason"),
    [
        (CALS, PLACES[:2], 2, "never placed"),
        (CALS, PLACES + [(0, 12.0, 1)], 2, "more than once"),
        (CALS, [(0, 0.0, 0), (1, 4.0, 0), (2, 29.0, 1)], 2, "outside its window"),
        ([(0.0, 0), (25.0, 1)], [(0, 0.0, 0), (1, 4.0, 0), (2, 34.0, 1)], 2,
         "no single calibration"),
        (CALS, [(0, 0.0, 0), (1, 3.0, 0), (2, 31.0, 1)], 2, "overlap on machine 0"),
        ([(0.0, 0), (5.0, 0), (30.0, 1)], PLACES, 3, "calibrations at 0.0 and 5.0"),
        (CALS, PLACES, 3, "reported 3 calibrations"),
    ],
    ids=[
        "job-missing",
        "job-placed-twice",
        "job-outside-window",
        "job-outside-calibration",
        "jobs-overlap",
        "calibrations-overlap",
        "count-mismatch",
    ],
)
def test_rejects_broken_schedule(cals, places, reported, reason):
    with pytest.raises(ScheduleRejected, match=reason):
        check_schedule(JOBS, T, cals, places, reported_calibrations=reported)


def test_rejects_job_on_uncalibrated_machine():
    with pytest.raises(ScheduleRejected, match="no single calibration"):
        check_schedule(
            JOBS, T, CALS, [(0, 0.0, 0), (1, 4.0, 0), (2, 31.0, 2)], 2
        )


@pytest.mark.parametrize(
    "generated",
    [
        long_window_instance(40, 3, 10.0, seed=1),
        short_window_instance(60, 3, 10.0, seed=2),
        mixed_instance(40, 2, 10.0, seed=3),
        unit_instance(30, 2, 5, seed=4),
        clustered_instance(40, 2, 10.0, seed=5),
    ],
    ids=lambda g: g.family,
)
def test_accepts_planted_witness(generated):
    cals, places = rows_of(generated.witness)
    check_schedule(
        jobs_of(generated.instance),
        generated.instance.calibration_length,
        cals,
        places,
        reported_calibrations=generated.witness_calibrations,
    )
