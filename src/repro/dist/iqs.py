"""IQS-style static-mapping baseline (the paper's Intel-QS comparison).

The baseline keeps the identity layout at all times: qubits ``0..l-1``
live in shard offsets, ``l..n-1`` address the rank.  A gate touching a
rank-resident qubit swaps that qubit into a scratch local position,
executes, and swaps straight back — two half-state exchanges *per gate*,
which is the per-gate communication HiSVSIM's per-part remapping avoids.

Two published Intel-QS optimisations are modelled as toggles:

* ``control_fastpath`` — a rank-resident *control* never moves: ranks
  whose address bit is 0 are spectators, the rest apply the reduced gate.
  Only targets are swapped in.
* ``diagonal_fastpath`` — diagonal gates multiply every amplitude by a
  factor of its own basis index, so they execute with no communication
  regardless of operand residency.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.gates import Gate, controlled
from ..runtime.comm import SimComm
from ..runtime.machine import FRONTERA_LIKE, MachineModel
from ..runtime.metrics import ComputeStats, RunReport
from ..sv.backend import shared_backend
from ..sv.layout import QubitLayout
from ._cost import charge_gate
from .exchange import swap_qubit_positions
from .state import AMP_BYTES, DistributedStateVector, open_run

__all__ = ["IQSEngine"]


class IQSEngine:
    """Static-mapping distributed engine with per-gate exchanges.

    The Intel-QS-style baseline the paper compares against: the qubit
    layout never changes, so every gate touching a process qubit pays an
    exchange (minus the control/diagonal fast paths).

    >>> import numpy as np
    >>> from repro.circuits.generators import qft
    >>> from repro.sv.simulator import StateVectorSimulator
    >>> qc = qft(6)
    >>> state, report = IQSEngine(num_ranks=4).run(qc)
    >>> sim = StateVectorSimulator(6); _ = sim.run(qc)
    >>> bool(np.allclose(state.to_full(), sim.state, atol=1e-10))
    True
    """

    def __init__(
        self,
        num_ranks: int,
        machine: MachineModel = FRONTERA_LIKE,
        dry_run: bool = False,
        control_fastpath: bool = True,
        diagonal_fastpath: bool = True,
    ) -> None:
        if num_ranks < 1 or (num_ranks & (num_ranks - 1)) != 0:
            raise ValueError("num_ranks must be a positive power of two")
        self.num_ranks = num_ranks
        self.machine = machine
        self.dry_run = dry_run
        self.control_fastpath = control_fastpath
        self.diagonal_fastpath = diagonal_fastpath

    # -- public API ---------------------------------------------------------

    def run(
        self,
        circuit: QuantumCircuit,
        initial_full: Optional[np.ndarray] = None,
        comm: Optional[SimComm] = None,
    ):
        """Execute ``circuit`` gate by gate; returns ``(state, report)``.

        ``comm`` injects the communicator (stats reset at the start);
        it must be an *in-process* comm — the baseline's per-gate
        swap-in/swap-out bookkeeping models a static mapping and is not
        wired for SPMD socket transports (use
        :class:`~repro.dist.hisvsim.HiSVSimEngine` for real multi-
        process runs).
        """
        n = circuit.num_qubits
        if comm is not None and comm.rank is not None:
            raise ValueError(
                "IQSEngine supports in-process comms only; SPMD "
                "transports go through HiSVSimEngine"
            )
        wall0 = time.perf_counter()
        state = open_run(n, self.num_ranks, comm, self.dry_run, initial_full)
        comm, local_bits = state.comm, state.local_bits
        identity = QubitLayout.identity(n)
        shard_bytes = AMP_BYTES << local_bits

        compute = ComputeStats()
        comp_seconds = 0.0
        for gate in circuit:
            if gate.num_qubits > local_bits:
                raise ValueError(
                    f"gate {gate.name} needs {gate.num_qubits} operands but "
                    f"only {local_bits} local qubits per rank are available"
                )
            comp_seconds += charge_gate(
                self.machine, compute, gate, local_bits, shard_bytes
            )
            if self.diagonal_fastpath and gate.is_diagonal:
                if not self.dry_run:
                    state.apply_diagonal_global(gate)
                continue
            required = (
                gate.target_qubits
                if self.control_fastpath and gate.num_controls
                else gate.qubits
            )
            swapped_in = [q for q in required if q >= local_bits]
            if swapped_in:
                operands = set(gate.qubits)
                scratch = [
                    q for q in range(local_bits) if q not in operands
                ][: len(swapped_in)]
                layout = identity
                for high, low in zip(swapped_in, scratch):
                    layout = swap_qubit_positions(layout, high, low)
                state.remap(layout)
                if not self.dry_run:
                    self._apply(state, gate)
                state.remap(identity)
            elif not self.dry_run:
                self._apply(state, gate)
        state.release_spare()

        comm_seconds = self.machine.exchange_time(
            comm.stats.max_bytes_per_rank,
            comm.stats.max_msgs_per_rank,
            self.num_ranks,
        )
        report = RunReport(
            engine="IQS",
            circuit=circuit.name,
            strategy="Intel",
            num_qubits=n,
            num_ranks=self.num_ranks,
            comp_seconds=comp_seconds,
            comm_seconds=comm_seconds,
            wall_seconds=time.perf_counter() - wall0,
            comm=comm.stats,
            compute=compute,
        )
        return state, report

    # -- internals ----------------------------------------------------------

    def _apply(self, state: DistributedStateVector, gate: Gate) -> None:
        """Apply a (non-fastpathed-diagonal) gate under the current layout."""
        layout = state.layout
        local_bits = state.local_bits
        if not (self.control_fastpath and gate.num_controls):
            state.apply_gate_local(gate)
            return
        process_controls = [
            q for q in gate.control_qubits
            if layout.position(q) >= local_bits
        ]
        local_controls = [
            q for q in gate.control_qubits
            if layout.position(q) < local_bits
        ]
        if not process_controls:
            state.apply_gate_local(gate)
            return
        # Rank-resident controls select the participating ranks; the rest
        # of the gate (surviving controls + targets) applies locally.
        ranks = np.arange(state.comm.num_ranks, dtype=np.int64)
        active = np.ones(ranks.size, dtype=bool)
        for q in process_controls:
            active &= ((ranks >> (layout.position(q) - local_bits)) & 1) == 1
        if not np.any(active):
            return
        matrix = controlled(gate.base_matrix(), len(local_controls))
        operands = list(local_controls) + list(gate.target_qubits)
        positions = [layout.position(q) for q in operands]
        sub = state.shards[active]
        shared_backend("serial").apply_matrix_rows(
            sub, matrix, positions, local_bits
        )
        state.shards[active] = sub
