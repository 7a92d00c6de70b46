#!/usr/bin/env python3
"""Compare two result sets made by ``collect.py``.

Usage::

    python3 perfbench/compare.py perfbench/results/a perfbench/results/b

For each workload and end-to-end metric it prints both sets' medians and
quartiles (``statistics.quantiles(values, n=4)``), each set's spread (the
quartile distance as a share of the median), and how far the second
median moved in the metric's worse direction.  The sets agree when, for
every metric, each spread is within the metric's bound in
``BENCHMARK.json`` (``setup_s`` excepted), the second median is no worse
than the first by more than the bound, every run is ``correct``, and the
share of failed operations is the same.  Exit status 0 when they agree, 1
when not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[str, list[dict]]:
    return {
        path.stem: [json.loads(line) for line in path.read_text().splitlines() if line]
        for path in sorted(directory.glob("*.jsonl"))
    }


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, spread)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("inf")


def failed_share(runs: list[dict]) -> set[Fraction]:
    return {Fraction(r["failed"], r["attempted"]) for r in runs}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", type=Path)
    parser.add_argument("second", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, second = load(args.first), load(args.second)
    agree = True
    header = (
        f"{'metric':<22}{'bound':>6}  {'first: median [q1, q3] spread':<44}"
        f"{'second: median [q1, q3] spread':<44}{'worse by':>9}"
    )
    for workload in [w["name"] for w in bench["workloads"]]:
        a, b = first.get(workload, []), second.get(workload, [])
        if len(a) < 2 or len(b) < 2:
            print(f"\n{workload}: fewer than two runs in a set; skipped")
            agree = False
            continue
        print(f"\n{workload}  ({len(a)} vs {len(b)} runs)\n{header}")
        for spec in bench["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            cells, verdict = [], []
            medians = []
            for runs in (a, b):
                m, q1, q3, spread = summary([r["metrics"][name]["value"] for r in runs])
                medians.append(m)
                cells.append(f"{m:<11.5g}[{q1:.5g}, {q3:.5g}] {spread:6.1%}")
                if name != "setup_s" and spread > bound:
                    verdict.append("spread")
            sign = 1 if spec["better"] == "lower" else -1
            worse = sign * (medians[1] - medians[0]) / medians[0]
            if worse > bound:
                verdict.append("worse")
            agree &= not verdict
            print(
                f"{name:<22}{bound:>6.0%}  {cells[0]:<44}{cells[1]:<44}{worse:>+9.1%}"
                + ("  <- " + ", ".join(verdict) if verdict else "")
            )
        incorrect = [
            f"{label} seed {r.get('seed', '?')}"
            for label, runs in (("first", a), ("second", b))
            for r in runs
            if not r["correct"]
        ]
        if incorrect:
            agree = False
            print(f"incorrect runs: {', '.join(incorrect)}  <- incorrect")
        shares = failed_share(a) | failed_share(b)
        line = ", ".join(str(s) for s in sorted(shares))
        if len(shares) != 1:
            agree = False
            line += "  <- differs"
        print(f"failed share: {line}")
    print("\nresult sets agree within the bounds" if agree else "\nresult sets DO NOT agree")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
