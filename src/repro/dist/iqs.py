"""IQS-style static-mapping baseline (the paper's Intel-QS comparison).

The baseline keeps the identity layout at all times: qubits ``0..l-1``
live in shard offsets, ``l..n-1`` address the rank.  A gate touching a
rank-resident qubit swaps that qubit into a scratch local position,
executes, and swaps straight back — two half-state exchanges *per gate*,
which is the per-gate communication HiSVSIM's per-part remapping avoids.

Two published Intel-QS optimisations are modelled as toggles:

* ``control_fastpath`` — a rank-resident *control* never moves; only
  targets are swapped in.
* ``diagonal_fastpath`` — a diagonal gate multiplies every amplitude by
  a factor of its own basis index, so nothing is swapped in.

The fast paths decide layouts, not kernels: each gate then runs as a
one-gate plan through ``DistributedStateVector.run_plan``, the part
runner :class:`~repro.dist.hisvsim.HiSVSimEngine` uses.  An
operand left on a rank bit is a high bit of the rows held in process:
the strided lane's control peel touches only the control-1 slices (the
active ranks) and a diagonal op multiplies in place.  Staging is the
only thing that tells the baseline apart.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..runtime.comm import SimComm
from ..runtime.machine import FRONTERA_LIKE, MachineModel
from ..runtime.metrics import ComputeStats, RunReport
from ..sv.backend import shared_backend
from ..sv.fusion import compile_part
from ..sv.layout import QubitLayout
from ._cost import charge_gate
from .exchange import swap_qubit_positions
from .state import AMP_BYTES, open_run

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
        it must be an *in-process* comm: a socket rank does not hold an
        operand the fast paths leave on a rank bit (use
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
        backend = shared_backend("serial")
        for i, gate in enumerate(circuit):
            if gate.num_qubits > local_bits:
                raise ValueError(
                    f"gate {gate.name} needs {gate.num_qubits} operands but "
                    f"only {local_bits} local qubits per rank are available"
                )
            comp_seconds += charge_gate(
                self.machine, compute, gate, local_bits, shard_bytes
            )
            if self.diagonal_fastpath and gate.is_diagonal:
                required = ()
            elif self.control_fastpath:
                required = gate.target_qubits
            else:
                required = gate.qubits
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
                state.run_plan(
                    compile_part(circuit, [i], gate.qubits, fuse=False),
                    backend,
                )
            state.remap(identity)
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
