#!/usr/bin/env python3
"""Make a result set: run each workload once per seed, keep each last line.

Usage (from the root of a checkout)::

    python3 perfbench/collect.py --out perfbench/results/a --runs 10

writes ``<out>/<workload>.jsonl``, one run per line (its result object plus
``seed``).  Runs are sequential; ``--trace 1`` collects traced runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    for workload in args.workloads.split(","):
        if workload not in names:
            parser.error(f"unknown workload {workload!r}")
        with open(args.out / f"{workload}.jsonl", "a") as sink:
            for seed in range(args.first_seed, args.first_seed + args.runs):
                command = bench["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                ]
                tic = time.perf_counter()
                done = subprocess.run(
                    command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600
                )
                try:
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                except (IndexError, ValueError):
                    print(f"{workload} seed {seed}: exit {done.returncode}, no result",
                          file=sys.stderr)
                    return 1
                if done.returncode != 0:
                    # An incorrect run is kept, so that compare.py flags it.
                    print(f"{workload} seed {seed}: exit {done.returncode}", file=sys.stderr)
                result["seed"] = seed
                sink.write(json.dumps(result) + "\n")
                sink.flush()
                values = " ".join(
                    f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                )
                print(f"{workload} seed={seed} took={time.perf_counter() - tic:.1f}s "
                      f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
