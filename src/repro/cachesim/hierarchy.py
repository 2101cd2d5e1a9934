"""Cache hierarchy: exact trace mode and the analytic sweep model.

Two interfaces over an L1/L2/L3/DRAM stack:

* :class:`CacheHierarchy` — trace-driven: every line address walks the
  levels (L1 miss -> L2 -> L3 -> DRAM), with inclusive fills.  Exact but
  slow; used for validation and tiny Table II configurations.
* :func:`analyze_sweeps` — analytic: execution is described as *sweeps*
  (a pass over a working set); each sweep's lines are served by the
  smallest level that holds its resident set.  This is the model that
  scales to full Table II inputs.

Both report bytes served per level, which a
:class:`~repro.runtime.machine.MachineModel` converts into the per-level
"% of clockticks" columns of Table II.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from ..runtime.machine import MachineModel
from .cache import CacheLevel

__all__ = ["CacheHierarchy", "SweepEvent", "SweepProfile", "analyze_sweeps"]

LEVELS = ("L1", "L2", "L3", "DRAM")


class CacheHierarchy:
    """Inclusive three-level cache in front of DRAM (trace-driven)."""

    def __init__(
        self,
        l1_bytes: int = 64 * 1024,
        l2_bytes: int = 1024 * 1024,
        l3_bytes: int = 32 * 1024 * 1024,
        line_bytes: int = 64,
        assocs: Tuple[int, int, int] = (8, 16, 16),
    ) -> None:
        self.line_bytes = line_bytes
        self.levels = [
            CacheLevel(l1_bytes, line_bytes, assocs[0]),
            CacheLevel(l2_bytes, line_bytes, assocs[1]),
            CacheLevel(l3_bytes, line_bytes, assocs[2]),
        ]
        self.served = {name: 0 for name in LEVELS}

    def reset(self) -> None:
        for lv in self.levels:
            lv.reset()
        self.served = {name: 0 for name in LEVELS}

    def access_line(self, line_addr: int) -> str:
        """Access a line; returns the level that served it."""
        for i, lv in enumerate(self.levels):
            if lv.access_line(line_addr):
                name = LEVELS[i]
                self.served[name] += self.line_bytes
                # Refresh recency in upper levels happened in access_line;
                # lower levels untouched (inclusive fill already done).
                return name
        self.served["DRAM"] += self.line_bytes
        return "DRAM"

    def access_stream(self, line_addrs: Iterable[int]) -> Dict[str, int]:
        before = dict(self.served)
        for a in line_addrs:
            self.access_line(int(a))
        return {k: self.served[k] - before[k] for k in LEVELS}


@dataclass(frozen=True)
class SweepEvent:
    """One pass over a working set.

    Attributes
    ----------
    working_set_bytes:
        Resident set the pass iterates over.
    bytes_moved:
        Total traffic of the pass (reads + writes).
    cold:
        Force serving from DRAM (first touch of the data).
    flops:
        Arithmetic attributed to the pass (for stall-share estimates).
    """

    working_set_bytes: int
    bytes_moved: int
    cold: bool = False
    flops: float = 0.0


@dataclass
class SweepProfile:
    """Aggregated per-level traffic + derived Table II columns."""

    bytes_per_level: Dict[str, float] = field(
        default_factory=lambda: {k: 0.0 for k in LEVELS}
    )
    flops: float = 0.0

    def merge_event(self, level: str, ev: SweepEvent) -> None:
        self.bytes_per_level[level] += ev.bytes_moved
        self.flops += ev.flops

    # -- derived metrics ----------------------------------------------------

    def time_per_level(self, machine: MachineModel) -> Dict[str, float]:
        scale = machine.thread_scale()
        bws = {
            "L1": machine.l1_bw * scale,
            "L2": machine.l2_bw * scale,
            "L3": machine.l3_bw * scale,
            # DRAM bandwidth saturates well below linear thread scaling
            # (same law as MachineModel.bandwidth_for_working_set).
            "DRAM": machine.dram_bw * scale**0.5,
        }
        return {k: self.bytes_per_level[k] / bws[k] for k in LEVELS}

    def _flop_seconds(self, machine: MachineModel) -> float:
        return self.flops / (machine.flops * machine.thread_scale())

    def clocktick_shares(self, machine: MachineModel) -> Dict[str, float]:
        """Per-level share of total cycles (Table II's '% of clockticks')."""
        mem = self.time_per_level(machine)
        total = sum(mem.values()) + self._flop_seconds(machine)
        if total <= 0:
            return {k: 0.0 for k in LEVELS}
        return {k: mem[k] / total for k in LEVELS}

    def memory_bound_share(self, machine: MachineModel) -> float:
        """Proxy for Table II's 'Memory/Pipeline slots' percentage."""
        mem = sum(self.time_per_level(machine).values())
        total = mem + self._flop_seconds(machine)
        return mem / total if total > 0 else 0.0

    def execution_seconds(self, machine: MachineModel) -> float:
        return sum(self.time_per_level(machine).values()) + self._flop_seconds(
            machine
        )


def analyze_sweeps(
    events: Sequence[SweepEvent],
    l1_bytes: int = 64 * 1024,
    l2_bytes: int = 1024 * 1024,
    l3_bytes: int = 32 * 1024 * 1024,
) -> SweepProfile:
    """Analytic residency model: each sweep is served by the smallest level
    that fits its working set (DRAM when ``cold`` or nothing fits)."""
    prof = SweepProfile()
    for ev in events:
        if ev.cold or ev.working_set_bytes > l3_bytes:
            level = "DRAM"
        elif ev.working_set_bytes <= l1_bytes:
            level = "L1"
        elif ev.working_set_bytes <= l2_bytes:
            level = "L2"
        else:
            level = "L3"
        prof.merge_event(level, ev)
    return prof
