#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload long_lp --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` is the separate traced run that yields the per-layer metrics
(a layer a workload does not exercise, or cannot trace from outside,
reports 0).  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the exit status is 1
when ``correct`` is false.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODULES = {
    "long_lp": "offline",
    "short_mm": "offline",
    "serve_mixed": "serve_mixed",
    "session_stream": "session_stream",
}
SETUP_SAMPLES = 3  # fresh-interpreter start-ups behind setup_s


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--sync", choices=("os", "full"), default="os",
        help="session_stream journal durability (README's reference figure)",
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print 'ready', tear down (one setup_s sample)",
    )
    return parser.parse_args(argv)


def _setup_seconds(args: argparse.Namespace) -> float:
    """Median time from spawning a fresh interpreter to its 'ready' line."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--sync", args.sync, "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        tic = time.perf_counter()
        child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - tic)
        finally:
            child.stdout.close()
            child.wait(timeout=60)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"setup sample failed (exit {child.returncode})")
    return statistics.median(samples)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources under {src}; run from the root "
            "of a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(HERE), str(src)]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    from common import RunContext

    ctx = RunContext(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        workdir=ROOT / ".perfbench",
        sync=args.sync,
    )
    ctx.workdir.mkdir(exist_ok=True)
    module = importlib.import_module(MODULES[args.workload])
    state = module.setup(ctx)
    try:
        if args.setup_only:
            print("ready", flush=True)
            return 0
        if ctx.trace:
            outcome, metrics = module.traced(state, ctx)
            for spec in bench["per_layer"]:
                metrics.setdefault(spec["name"], {"value": 0, "unit": spec["unit"]})
            wanted = [spec["name"] for spec in bench["per_layer"]]
        else:
            setup_s = _setup_seconds(args)
            outcome, metrics = module.measure(state, ctx)
            metrics["setup_s"] = {"value": setup_s, "unit": "s"}
            wanted = [spec["name"] for spec in bench["end_to_end"]]
    finally:
        module.teardown(state)
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        raise RuntimeError(f"workload did not report {missing}")
    print(
        f"perfbench: {args.workload} seed={args.seed} attempted={outcome.attempted} "
        f"failed={outcome.failed} correct={outcome.correct}"
    )
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {name: metrics[name] for name in wanted},
            }
        )
    )
    # The result line is printed either way; a run whose checks failed
    # also says so by its exit status.
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
