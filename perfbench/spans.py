"""In-memory span recorder for the traced benchmark run.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (or -1) and ``op`` the operation the span belongs to.
Spans are recorded around calls into the program's public functions from
the benchmark's own files, kept in memory, and written out once at the end.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``span()`` nests through an explicit stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    def begin_op(self) -> int:
        self.op += 1
        return self.op

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def add(
        self, name: str, start: float, end: float, parent: int | None = None, **counts: float
    ) -> int:
        """Record a span measured elsewhere (by the program, or a client)."""
        if parent is None:
            parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, start, end, parent, self.op, dict(counts)))
        return len(self.spans) - 1

    def per_op(self, name: str) -> dict[int, float]:
        """Total seconds of spans called ``name`` in each operation."""
        totals: dict[int, float] = {}
        for s in self.spans:
            if s.name == name:
                totals[s.op] = totals.get(s.op, 0.0) + s.seconds
        return totals

    def count(self, key: str, ops: set[int] | None = None) -> float:
        """Sum of one count over every span (optionally of some operations)."""
        return sum(
            s.counts.get(key, 0.0)
            for s in self.spans
            if ops is None or s.op in ops
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
                **({"counts": s.counts} if s.counts else {}),
            }
            for s in self.spans
        ]
        path.write_text(json.dumps(rows))
