"""``serve_mixed``: ``repro-ise serve`` over HTTP with a mix of repeats.

The server runs in its own process with its defaults (2 workers, queue 64,
non-strict, verify off).  One client process with at most two threads, and
so at most two connections, sends ``POST /solve`` with ``include_schedule``.

Traffic comes in rounds of 20 requests: 12 unique seeded
``mixed_instance`` inputs, 2 exact copies, 2 retries that reuse an
earlier ``request_id``, 2 copies translated by +1000, and 2 fixed probes:
a random job order and a x4 rescale of seed-independent instances, taken
in turn from ``PERMUTE_PROBES`` and ``RESCALE_PROBES``.  Every repeat must
return its original's calibration count.  The probes do not today
(``solve_ise`` depends on job order and on the time unit); they fail on
every run and are counted as failed, not hidden.

A run has three phases, each made of whole rounds.  On a shared host the
speed of the same code drifts by a quarter over tens of seconds, so the
phases are not run one after the other: the run is ``BLOCKS`` blocks, each
holding a part of every phase, and each metric is taken over the whole
run.

1. fixed rate: an open loop at ``FIXED_RPS``, each request timed from when
   it was due; gives the latency metrics and counted operations.  The rate
   keeps the server's one interpreter about a fifth busy, so that latency
   is mostly service time: near half busy, a slower second of the host
   queues requests and the latencies of the same code spread by a quarter
   (the tail by much more);
2. closed loop: ``CLOSED_ROUNDS`` rounds per block on two connections back
   to back; gives ``jobs_per_s``, the closed-loop request rate and counted
   operations;
3. ``max_rate_rps`` search: one open-loop step per block, bisecting between
   the highest rate that met ``LIMIT_S`` and the lowest that missed it,
   below the closed-loop rate measured so far.  These requests only mark a
   rate as missed.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from checker import rows_of_wire
from common import (
    Outcome,
    RunContext,
    check_result,
    input_seed,
    median,
    metric,
    peak_rss_mb,
    percentile,
    tail,
)
from spans import Tracer

from repro.core.job import Instance, Job
from repro.instances import instance_to_dict, mixed_instance

ROUND = 20
UNIQUE = 12
FIXED_RPS = 10.0
# Of the fixed phase: 32 of its 160 requests lie beyond.  Not p90, the
# highest with ten beyond: host stalls reach the slowest tenth, and its
# spread over ten runs of the same code was 17-27%.
TAIL_Q = 0.80
TAIL_MIN = 50
LIMIT_S = 0.15  # latency limit of a search step
STEP_ROUNDS = 6  # requests per search step: 120, so 12 lie beyond its p90
STEP_Q = 0.90
CLOSED_ROUNDS = 7  # per block
BLOCKS = 3  # so three search steps
SEARCH_FROM = 0.8  # first search step, in units of the closed-loop rate
# Seeds of mixed_instance(24, 2, 10.0, seed) whose count changes when its
# jobs are shuffled (random.Random(seed)) or its times scaled by 4.
PERMUTE_PROBES = (14, 15, 25)
RESCALE_PROBES = (2, 5, 11)
CONNECTIONS = 2
FIXED_SHARE = 0.8  # share of the run's seconds given to the fixed phase


@dataclass
class Request:
    body: bytes
    jobs: list  # checker rows of the instance as sent
    T: float
    n: int
    witness: int
    kind: str  # unique | copy | retry | translate | permute | rescale
    original: str  # key of the instance whose count this one must match
    # filled by the client
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    reply: dict = field(default_factory=dict)
    size: int = 0


def _transformed(instance: Instance, scale=1.0, shift=0.0, shuffle_seed=None) -> Instance:
    jobs = [
        Job(j.job_id, j.release * scale + shift, j.deadline * scale + shift,
            j.processing * scale)
        for j in instance.jobs
    ]
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(jobs)
    return Instance(
        jobs=tuple(jobs),
        machines=instance.machines,
        calibration_length=instance.calibration_length * scale,
        name=instance.name,
    )


def _request(instance, witness, kind, original, request_id=None) -> Request:
    payload = {"instance": instance_to_dict(instance), "include_schedule": True}
    if request_id is not None:
        payload["request_id"] = request_id
    return Request(
        body=json.dumps(payload).encode(),
        jobs=[(j.job_id, j.release, j.deadline, j.processing) for j in instance.jobs],
        T=instance.calibration_length,
        n=len(instance.jobs),
        witness=witness,
        kind=kind,
        original=original,
    )


class Rounds:
    """Round ``r`` of the traffic, made from the run seed on first use."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cache: dict[int, list[Request]] = {}
        self.probes = {}
        for k in PERMUTE_PROBES + RESCALE_PROBES:
            g = mixed_instance(24, 2, 10.0, seed=k)
            self.probes[f"probe-{k}"] = (g.instance, g.witness_calibrations)

    def __getitem__(self, r: int) -> list[Request]:
        if r not in self.cache:
            self.cache[r] = self._make(r)
        return [
            Request(q.body, q.jobs, q.T, q.n, q.witness, q.kind, q.original)
            for q in self.cache[r]
        ]

    def _make(self, r: int) -> list[Request]:
        uniques = []
        for k in range(UNIQUE):
            index = r * UNIQUE + k
            g = mixed_instance(16 + 4 * (index % 5), 2, 10.0, seed=input_seed(self.seed, index))
            key = f"{self.seed}-{r}-{k}"
            uniques.append(
                (g, key, _request(g.instance, g.witness_calibrations, "unique", key, key))
            )

        def repeat(k, kind):
            g, key, _ = uniques[k]
            if kind == "copy":
                return _request(g.instance, g.witness_calibrations, kind, key)
            if kind == "retry":
                return _request(g.instance, g.witness_calibrations, kind, key, key)
            shifted = _transformed(g.instance, shift=1000.0)
            return _request(shifted, g.witness_calibrations, kind, key)

        def probe(seeds, kind):
            seed = seeds[r % len(seeds)]
            key = f"probe-{seed}"
            instance, witness = self.probes[key]
            if kind == "permute":
                return _request(_transformed(instance, shuffle_seed=seed), witness, kind, key)
            return _request(_transformed(instance, scale=4.0), witness, kind, key)

        u = [req for _, _, req in uniques]
        return [
            u[0], u[1], u[2], u[3], u[4], u[5], repeat(0, "copy"), u[6],
            repeat(2, "retry"), u[7], repeat(4, "translate"), u[8], repeat(1, "copy"),
            u[9], repeat(3, "retry"), u[10], repeat(5, "translate"), u[11],
            probe(PERMUTE_PROBES, "permute"), probe(RESCALE_PROBES, "rescale"),
        ]


def _post(port: int, path: str, body: bytes | None = None) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        if body is None:
            conn.request("GET", path)
        else:
            conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _send(port: int, req: Request) -> None:
    req.sent = time.perf_counter()
    try:
        req.status, raw = _post(port, "/solve", req.body)
    except OSError:
        req.status, raw = 0, b"{}"
    req.done = time.perf_counter()
    req.size = len(raw)
    try:
        req.reply = json.loads(raw)
    except ValueError:
        req.reply = {}


def _open_loop(port: int, reqs: list[Request], rate: float) -> None:
    """Send ``reqs`` on two connections, request ``i`` due at ``i / rate``."""
    start = time.perf_counter() + 0.01
    lock = threading.Lock()
    cursor = iter(range(len(reqs)))

    def worker() -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            req = reqs[i]
            req.due = start + i / rate
            pause = req.due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            _send(port, req)

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def _closed_loop(port: int, reqs: list[Request]) -> float:
    """Send ``reqs`` on two connections back to back; returns the wall time."""
    lock = threading.Lock()
    cursor = iter(reqs)
    tic = time.perf_counter()

    def worker() -> None:
        while True:
            with lock:
                req = next(cursor, None)
            if req is None:
                return
            req.due = time.perf_counter()
            _send(port, req)

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - tic


@dataclass
class ServeState:
    server: subprocess.Popen
    port: int
    rounds: Rounds
    probe_counts: dict[str, int]  # calibration count of each probe's original


def setup(ctx: RunContext) -> ServeState:
    env = dict(os.environ)
    src = str(ctx.workdir.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
        cwd=ctx.workdir.parent, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        banner = server.stdout.readline()
        port = int(banner.split("http://127.0.0.1:")[1].split()[0])
        rounds = Rounds(ctx.seed)
        fixed_rounds = _fixed_rounds(ctx)
        for r in range(fixed_rounds):
            rounds[r]  # make the fixed phase's inputs up front
        # Warm-up: the probes' originals, whose counts the probes must match.
        probe_counts = {}
        for key, (instance, _) in rounds.probes.items():
            body = json.dumps({"instance": instance_to_dict(instance)}).encode()
            status, raw = _post(port, "/solve", body)
            if status != 200:
                raise RuntimeError(f"warm-up request failed with HTTP {status}")
            probe_counts[key] = json.loads(raw)["num_calibrations"]
        return ServeState(server, port, rounds, probe_counts)
    except BaseException:
        _stop(server)
        raise


def _stop(server: subprocess.Popen) -> None:
    server.terminate()
    try:
        server.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        server.kill()
        server.communicate()


def teardown(state: ServeState) -> None:
    _stop(state.server)


def _fixed_rounds(ctx: RunContext) -> int:
    return max(BLOCKS, round(FIXED_SHARE * ctx.seconds * FIXED_RPS / ROUND))


def _judge(
    reqs: list[Request], counts: dict[str, int], probe_counts: dict[str, int], outcome: Outcome
) -> None:
    """Check every reply: status, shed, schedule, bounds, repeat counts."""
    for req in reqs:
        reply = req.reply
        if req.status != 200:
            outcome.fail(f"{req.kind} request got HTTP {req.status}: {reply.get('error')}")
            continue
        if reply.get("shed"):
            outcome.fail(f"{req.kind} request was shed")
            continue
        cals, places = rows_of_wire(reply["schedule"])
        why = check_result(
            req.jobs, req.T, cals, places, reply["num_calibrations"],
            reply["lower_bound"], req.witness,
        )
        if why is not None:
            outcome.fail(f"{req.kind} request: {why}")
            continue
        if req.kind == "retry" and not reply.get("idempotent_replay"):
            outcome.fail("a retried request_id was solved again")
            continue
        expected = probe_counts.get(req.original, counts.get(req.original))
        if req.kind != "unique" and reply["num_calibrations"] != expected:
            why = f"{req.kind} copy returned {reply['num_calibrations']} calibrations, original {expected}"
            outcome.fail(why, known=req.kind in ("permute", "rescale"))
            continue
        outcome.ok()


def _run_rounds(state: ServeState, first: int, count: int, rate: float) -> list[Request]:
    reqs = [req for r in range(first, first + count) for req in state.rounds[r]]
    _open_loop(state.port, reqs, rate)
    return reqs


def _unique_counts(reqs: list[Request]) -> dict[str, int]:
    return {
        q.original: q.reply["num_calibrations"]
        for q in reqs
        if q.kind == "unique" and q.status == 200
    }


def _meets(reqs: list[Request]) -> bool:
    """Whether open-loop traffic met the latency limit and was all served.

    It misses when its p90, timed from when each request was due, exceeds
    ``LIMIT_S``, or a request was refused or shed, or a backlog grew (the
    last request left more than ``LIMIT_S`` after it was due).
    """
    return (
        percentile([q.done - q.due for q in reqs], STEP_Q) <= LIMIT_S
        and reqs[-1].sent - reqs[-1].due <= LIMIT_S
        and all(q.status == 200 and not q.reply.get("shed") for q in reqs)
    )


class _Search:
    """Bisection for ``max_rate_rps``, one step at a time.

    ``passed`` is a rate already run that met the limit (the fixed phase's,
    or 0).  No step exceeds the closed-loop request rate measured before
    it on the same two connections: above it an open loop can only build
    a backlog.  The first step is at ``SEARCH_FROM`` of that rate; each
    further step bisects between the highest rate that met the limit and
    the lowest that missed it (the closed-loop rate until one does).
    """

    def __init__(self, passed: float) -> None:
        self.met = passed
        self.missed = float("inf")
        self.log: list[str] = []

    def step(self, state: ServeState, first: int, capacity: float) -> None:
        hi = min(self.missed, capacity)
        rate = max(self.met, SEARCH_FROM * hi) if not self.log else (self.met + hi) / 2
        reqs = _run_rounds(state, first, STEP_ROUNDS, rate)
        met = _meets(reqs)
        self.log.append(
            f"{rate:.1f}/s p{round(STEP_Q * 100)}="
            f"{percentile([q.done - q.due for q in reqs], STEP_Q) * 1e3:.1f} ms"
            + ("" if met else " missed")
        )
        if met:
            self.met = max(self.met, rate)
        else:
            self.missed = min(self.missed, rate)


def measure(state: ServeState, ctx: RunContext):
    outcome = Outcome()
    fixed_total = _fixed_rounds(ctx)
    closed_first = fixed_total
    search_first = closed_first + BLOCKS * CLOSED_ROUNDS
    fixed: list[Request] = []
    closed: list[Request] = []
    closed_seconds = 0.0
    search = None
    for block in range(BLOCKS):
        first = block * fixed_total // BLOCKS
        fixed += _run_rounds(
            state, first, (block + 1) * fixed_total // BLOCKS - first, FIXED_RPS
        )
        c0 = closed_first + block * CLOSED_ROUNDS
        reqs = [req for r in range(c0, c0 + CLOSED_ROUNDS) for req in state.rounds[r]]
        closed_seconds += _closed_loop(state.port, reqs)
        closed += reqs
        if search is None:
            search = _Search(FIXED_RPS if _meets(fixed) else 0.0)
        search.step(state, search_first + block * STEP_ROUNDS, len(closed) / closed_seconds)

    _judge(fixed, _unique_counts(fixed), state.probe_counts, outcome)
    _judge(closed, _unique_counts(closed), state.probe_counts, outcome)
    latencies = [q.done - q.due for q in fixed]
    lateness = [q.sent - q.due for q in fixed]
    print(
        f"perfbench: serve_mixed generator lateness p50={median(lateness) * 1e3:.2f} ms "
        f"max={max(lateness) * 1e3:.2f} ms over {len(fixed)} requests"
    )
    print(
        f"perfbench: closed-loop {len(closed) / closed_seconds:.1f}/s; search steps "
        + ", ".join(search.log),
        file=sys.stderr,
    )
    if search.met == 0:
        print("perfbench: no rate run met the latency limit", file=sys.stderr)

    jobs = sum(q.n for q in closed if q.status == 200)
    good = [q for q in fixed if q.status == 200]
    cals = sum(q.reply["num_calibrations"] for q in good if q.kind == "unique")
    lower = sum(q.reply["lower_bound"] for q in good if q.kind == "unique")
    metrics = {
        "latency_p50_s": metric(median(latencies), "s"),
        "latency_tail_s": metric(tail(latencies, TAIL_Q, TAIL_MIN), "s"),
        "jobs_per_s": metric(jobs / closed_seconds, "1/s"),
        "max_rate_rps": metric(search.met, "1/s"),
        "calibrations_per_lb": metric(cals / lower, "ratio"),
        "peak_rss_mb": metric(peak_rss_mb(state.server.pid), "MB"),
    }
    return outcome, metrics


def traced(state: ServeState, ctx: RunContext):
    """Fixed-rate rounds for the run's seconds; spans from reply fields and /stats."""
    outcome = Outcome()
    tracer = Tracer()
    fixed = _fixed_rounds(ctx)
    reqs: list[Request] = []
    deadline = time.perf_counter() + ctx.seconds
    r = 0
    while r < fixed or time.perf_counter() < deadline:
        reqs += _run_rounds(state, r, fixed, FIXED_RPS)
        r += fixed
    _judge(reqs, _unique_counts(reqs), state.probe_counts, outcome)
    _, raw = _post(state.port, "/stats")
    stats = json.loads(raw)

    solved = [q for q in reqs if q.status == 200 and not q.reply.get("idempotent_replay")]
    for q in reqs:
        if q.status != 200:
            continue
        tracer.begin_op()
        trip = tracer.add("http.round_trip", q.due, q.done, **{"http.bytes_out": q.size})
        # The server reports its queue wait and solve time, not when they
        # began; the spans are laid end to end from when the request left.
        waited = q.sent + q.reply["queue_wait"]
        tracer.add("queue.wait", q.sent, waited, parent=trip)
        tracer.add("service.solve", waited, waited + q.reply["solve_seconds"], parent=trip)
    tracer.write(ctx.workdir / f"spans-{ctx.workload}-seed{ctx.seed}.json")

    first_rounds = reqs[: fixed * ROUND]
    overhead = [
        (q.done - q.sent) - q.reply["queue_wait"] - q.reply["solve_seconds"] for q in solved
    ]
    metrics = {
        "queue.wait_s": metric(median([q.reply["queue_wait"] for q in solved]), "s"),
        "queue.peak_depth": metric(stats["queue"]["peak_depth"], "count"),
        "service.solve_s.unique": metric(
            median([q.reply["solve_seconds"] for q in solved if q.kind == "unique"]), "s"
        ),
        "service.solve_s.repeat": metric(
            median([q.reply["solve_seconds"] for q in solved if q.kind != "unique"]), "s"
        ),
        "service.idempotent_replays": metric(
            sum(1 for q in first_rounds if q.reply.get("idempotent_replay")), "count"
        ),
        "service.shed_solves": metric(stats["counters"]["shed_solves"], "count"),
        "http.overhead_s": metric(median(overhead), "s"),
        "http.bytes_out": metric(median([q.size for q in reqs if q.status == 200]), "count"),
    }
    return outcome, metrics
