"""The traced run's own spans.

The benchmark wraps each call into a layer's public API in a span
(name, start, end, parent, run id), keeps the spans in memory and
writes them out when the run ends.  Two derived figures come from
them:

* a span's *self time* — its duration minus the part of its interval
  covered by its child spans;
* ``unattributed_s`` — process wall time minus the summed top-level
  spans, the reconciliation check that shows time no layer claims.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass
class SpanRecord:
    name: str
    span_id: int
    parent: Optional[int]
    start: float
    end: float
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span tree for one traced benchmark run."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self._clock = clock
        self._stack: List[int] = []
        self.spans: List[SpanRecord] = []

    @contextmanager
    def span(self, name: str):
        record = SpanRecord(
            name=name,
            span_id=len(self.spans),
            parent=self._stack[-1] if self._stack else None,
            start=self._clock(),
            end=0.0,
            run_id=self.run_id,
        )
        self.spans.append(record)
        self._stack.append(record.span_id)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = self._clock()

    def add(self, name: str, start: float, end: float, parent: Optional[int] = None) -> SpanRecord:
        """Record a finished interval (e.g. a program-emitted stage span
        re-based onto this clock) under ``parent``."""
        record = SpanRecord(name, len(self.spans), parent, start, end, self.run_id)
        self.spans.append(record)
        return record

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(asdict(record), sort_keys=True) + "\n")


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: List[SpanRecord]) -> Dict[int, float]:
    """Self time per span id: duration minus the union of its
    children's intervals (clipped to the parent)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - _covered(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


def self_time_by_name(spans: List[SpanRecord]) -> Dict[str, float]:
    """Summed self time per span name."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.span_id]
    return totals


def unattributed(spans: List[SpanRecord], wall_s: float) -> float:
    """Process wall time minus the summed top-level spans."""
    return wall_s - sum(s.duration for s in spans if s.parent is None)


def adopt(recorder: SpanRecorder, program_spans, parent: Optional[int]) -> Dict[str, float]:
    """Copy spans the program emitted through ``repro.obs`` (host wall
    clock, the same ``perf_counter`` as the recorder's) under
    ``parent``, keeping their tree.  Returns wall seconds per program
    span name."""
    ids: Dict[str, int] = {}
    walls: Dict[str, float] = {}
    for span in sorted(program_spans, key=lambda s: s.wall_start):
        if not span.wall_start:
            continue
        mapped = ids.get(span.parent_id, parent) if span.parent_id else parent
        ids[span.span_id] = recorder.add(span.name, span.wall_start, span.wall_end, mapped).span_id
        walls[span.name] = walls.get(span.name, 0.0) + span.wall_seconds
    return walls
