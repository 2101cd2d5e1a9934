"""Sec. V-A text — single-node OpenMP strong scaling.

"HiSVSIM exhibits a close-to-linear speedup in this strong scaling case"
for 2..128 threads.  Two curves side by side:

* **modeled** — the :class:`~repro.runtime.machine.MachineModel` thread
  model applied to the circuit's cache-profiled sweeps (any thread
  count, any width; this is what the paper-scale tables use);
* **measured** — actual wall time of the hierarchical executor running
  the same partition strategy through
  :class:`~repro.sv.backend.ThreadedBackend` at each thread count, on a
  width small enough to execute for real (``measured_qubits``).  The
  measured baseline is one thread — the serial backend's mapper — so
  measured speedup is exactly what a user gets from
  ``backend="threaded"``.

Measured numbers are bounded by the host (oversubscribed thread counts
flatten out at ``os.cpu_count()``); the modeled curve keeps the paper's
idealised shape.  Columns stay comparable because both run the same
dagP partitions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from ..analysis.tables import render_table
from ..cachesim.hierarchy import analyze_sweeps
from ..cachesim.trace import sweeps_for_partition
from ..circuits.generators import build
from ..runtime.machine import WORKSTATION_LIKE
from ..sv import HierarchicalExecutor, ThreadedBackend, zero_state
from .common import Scale, partition_cached

__all__ = ["ThreadScalingResult", "run", "PAPER_THREADS"]

PAPER_THREADS = (2, 4, 8, 16, 32, 64, 128)

#: Default width for the measured column: large enough for the threaded
#: backend's row blocks to hold real work, small enough to execute
#: everywhere (2^18 amplitudes, 4 MB).
MEASURED_QUBITS = 18


@dataclass
class ThreadScalingRow:
    threads: int
    seconds: float
    speedup: float
    efficiency: float
    measured_seconds: Optional[float] = None
    measured_speedup: Optional[float] = None


@dataclass
class ThreadScalingResult:
    circuit: str
    rows: List[ThreadScalingRow]
    measured_circuit: Optional[str] = None

    def table(self) -> str:
        title = f"Single-node thread scaling ({self.circuit}"
        if self.measured_circuit:
            title += f"; measured on {self.measured_circuit}"
        title += ")"

        def _m(value, digits):
            return "-" if value is None else round(value, digits)

        return render_table(
            [
                "threads",
                "model t(s)",
                "model x",
                "eff",
                "meas t(s)",
                "meas x",
            ],
            [
                (
                    r.threads,
                    round(r.seconds, 3),
                    round(r.speedup, 2),
                    round(r.efficiency, 2),
                    _m(r.measured_seconds, 4),
                    _m(r.measured_speedup, 2),
                )
                for r in self.rows
            ],
            title=title,
        )


def _measure(circuit, partition, threads: int, repeats: int = 1) -> float:
    """Best-of-``repeats`` wall time of one hierarchical execution."""
    with ThreadedBackend(threads) as backend:
        executor = HierarchicalExecutor(backend=backend)
        # Compile plans outside the timed region (shared across repeats).
        executor.run(circuit, partition, zero_state(circuit.num_qubits))
        best = float("inf")
        for _ in range(repeats):
            state = zero_state(circuit.num_qubits)
            t0 = time.perf_counter()
            executor.run(circuit, partition, state)
            best = min(best, time.perf_counter() - t0)
    return best


def run(
    circuit_name: str = "bv",
    num_qubits: int = 30,
    limit: int = 16,
    threads: Optional[List[int]] = None,
    scale: Optional[Scale] = None,
    measure: bool = True,
    measured_qubits: int = MEASURED_QUBITS,
) -> ThreadScalingResult:
    threads = list(threads or (1,) + PAPER_THREADS)
    if scale is not None:
        # Keep the measured column proportionate at reduced scales
        # (tiny runs real amplitudes elsewhere too; don't exceed them).
        measured_qubits = min(measured_qubits, scale.base_qubits)
    circuit = build(circuit_name, num_qubits)
    partition = partition_cached(circuit, "dagP", limit)
    events = sweeps_for_partition(circuit, partition)

    measured: dict = {}
    m_name = None
    if measure:
        m_qubits = min(measured_qubits, num_qubits)
        m_circuit = build(circuit_name, m_qubits)
        m_partition = partition_cached(
            m_circuit, "dagP", min(limit, max(3, m_qubits - 3))
        )
        m_name = f"{circuit_name}_{m_qubits}"
        for t in threads:
            measured[t] = _measure(m_circuit, m_partition, t)

    rows: List[ThreadScalingRow] = []
    base = None
    m_base = measured.get(threads[0]) if measured else None
    for t in threads:
        machine = WORKSTATION_LIKE.with_threads(t)
        prof = analyze_sweeps(
            events,
            l1_bytes=machine.l1_bytes,
            l2_bytes=machine.l2_bytes,
            l3_bytes=machine.l3_bytes,
        )
        secs = prof.execution_seconds(machine)
        if base is None:
            base = secs
        m_secs = measured.get(t)
        rows.append(
            ThreadScalingRow(
                threads=t,
                seconds=secs,
                speedup=base / secs if secs > 0 else 0.0,
                efficiency=(base / secs) / t if secs > 0 else 0.0,
                measured_seconds=m_secs,
                measured_speedup=(
                    m_base / m_secs
                    if m_secs is not None and m_base and m_secs > 0
                    else None
                ),
            )
        )
    return ThreadScalingResult(
        circuit=f"{circuit_name}_{num_qubits}", rows=rows,
        measured_circuit=m_name,
    )
