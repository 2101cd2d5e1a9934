"""Sample statistics and in-memory spans for the perf harness.

Nothing here imports ``repro``: the helpers are shared by the parent
(``run.py``), the measuring child (``worker.py``) and the self-tests.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

__all__ = [
    "median",
    "quartiles",
    "summary",
    "percentile",
    "host_info",
    "Span",
    "Tracer",
]


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, q3)`` exactly as ``statistics.quantiles(values, n=4)`` gives
    them (the benchmark contract's spread rule uses the same function);
    a single sample is its own quartiles."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def summary(values: Sequence[float], unit: str) -> Dict[str, object]:
    """Median (the reported ``value``), quartiles and sample count of one
    series."""
    q1, q3 = quartiles(values)
    return {
        "value": median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "unit": unit,
    }


def percentile(values: Sequence[float], p: float) -> Optional[float]:
    """The ``p``-th percentile (nearest rank), or ``None`` when fewer than
    ten samples lie beyond it — a tail read off a handful of samples is
    noise, so the harness refuses to print one."""
    if not 0 < p < 100:
        raise ValueError("p must be in (0, 100)")
    n = len(values)
    beyond = n * (100.0 - p) / 100.0
    if beyond < 10:
        return None
    ordered = sorted(values)
    rank = max(1, -(-n * p // 100))  # ceil(n * p / 100)
    return float(ordered[int(rank) - 1])


def _read_int(path: str) -> Optional[int]:
    try:
        with open(path, encoding="ascii") as fh:
            text = fh.read().strip()
    except OSError:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
    digits = text.rstrip("KMG")
    return int(digits) * scale if digits.isdigit() else None


def host_info() -> Dict[str, Optional[int]]:
    """Core count and cache sizes as the kernel reports them."""
    sizes: Dict[int, int] = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in range(8):
        level = _read_int(f"{base}/index{index}/level")
        size = _read_int(f"{base}/index{index}/size")
        if level and size:
            sizes[level] = max(size, sizes.get(level, 0))
    return {
        "nproc": os.cpu_count(),
        "l2_bytes": sizes.get(2),
        "llc_bytes": sizes.get(max(sizes)) if sizes else None,
    }


@dataclass
class Span:
    """One timed interval: ``parent`` is the index of the enclosing span
    (-1 at top level); ``run`` groups the spans of one staged pass."""

    name: str
    workload: str
    index: int
    t0: float
    dt: float
    parent: int
    run: str


class Tracer:
    """Records nested spans in memory; nothing is written until
    :meth:`write_chrome` is called at exit."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._run = ""

    @contextmanager
    def run(self, label: str) -> Iterator[None]:
        """Label every span opened inside with ``label`` (one staged or
        probe pass)."""
        previous, self._run = self._run, label
        try:
            yield
        finally:
            self._run = previous

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else -1
        record = Span(
            name, self.workload, len(self.spans), 0.0, 0.0, parent, self._run
        )
        self.spans.append(record)
        self._stack.append(record.index)
        record.t0 = time.perf_counter()
        try:
            yield record
        finally:
            record.dt = time.perf_counter() - record.t0
            self._stack.pop()

    def self_times(self) -> List[float]:
        """Per span: duration minus the time its direct children cover."""
        out = [s.dt for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.dt
        return out

    def total(self, name: str, run: str) -> float:
        """Summed duration of the spans called ``name`` in pass ``run``
        (0 when that pass never opened one: no time was spent there)."""
        return sum(s.dt for s in self.spans if s.name == name and s.run == run)

    def top_level_total(self, run: str) -> float:
        """Summed duration of the parent-less spans of pass ``run``."""
        return sum(s.dt for s in self.spans if s.run == run and s.parent < 0)

    def write_chrome(self, path: str) -> None:
        """Dump every span in Chrome-trace (``chrome://tracing`` /
        Perfetto) JSON; timestamps are microseconds since the first span."""
        origin = min((s.t0 for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name,
                "cat": s.run,
                "ph": "X",
                "ts": (s.t0 - origin) * 1e6,
                "dur": s.dt * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {
                    "workload": s.workload,
                    "index": s.index,
                    "parent": s.parent,
                },
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
