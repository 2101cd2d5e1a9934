"""HiSVSIM distributed engine: partition-driven remapping (Sec. III-D).

One remap per part instead of one exchange per gate: before a part runs,
the state moves to that part's layout in
:func:`~repro.dist.exchange.remap_schedule` (exactly the missing
working-set qubits swapped into local positions, evicting residents the
next part does not need).  After that staging step a part is an
ordinary part of the rows held here: it runs through
:meth:`~repro.dist.state.DistributedStateVector.run_plan`, the part
runner the IQS baseline uses too, with its plan renamed to the positions
its qubits now hold.  Communication is
therefore proportional to the number of parts — the quantity the dagP
partitioner minimises — rather than to the number of gates on high
qubits, which is the IQS baseline's cost.

Multi-level execution (Sec. IV) runs each part as its level-2 inner
parts, in order, one ``run_plan`` each, and charges computation against
the *inner* working set: inner state vectors sized to the LLC run at
cache bandwidth at the price of one gather/scatter sweep per inner part
(Fig. 10's trade).
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..config import RunOptions
from ..partition.base import Partition
from ..partition.multilevel import MultilevelPartition
from ..runtime.comm import SimComm
from ..runtime.machine import FRONTERA_LIKE, MachineModel
from ..runtime.metrics import ComputeStats, RunReport
from ..sv.backend import resolve_backend
from ..sv.fusion import PlanCache
from ._cost import charge_gate
from .exchange import remap_schedule
from .state import AMP_BYTES, open_run

__all__ = ["HiSVSimEngine"]


class HiSVSimEngine:
    """Simulated multi-node execution of an acyclic partition.

    One layout exchange per part (instead of per gate), then one
    ``state.run_plan`` over the rows held here — every rank's shard in
    process, this rank's one row on a socket rank.  That is the paper's
    core claim, with byte-exact communication accounting on ``report``.

    >>> import numpy as np
    >>> from repro.circuits.generators import qft
    >>> from repro.partition import get_partitioner
    >>> from repro.sv.simulator import StateVectorSimulator
    >>> qc = qft(6)
    >>> partition = get_partitioner("dagP").partition(qc, 4)
    >>> state, report = HiSVSimEngine(num_ranks=4).run(qc, partition)
    >>> sim = StateVectorSimulator(6); _ = sim.run(qc)
    >>> bool(np.allclose(state.to_full(), sim.state, atol=1e-10))
    True
    >>> report.num_parts == partition.num_parts
    True

    Parameters
    ----------
    num_ranks:
        Virtual rank count (power of two).
    machine:
        Performance model converting counted work to simulated seconds.
    dry_run:
        Use :class:`~repro.dist.state.LayoutOnlyState`: no amplitudes,
        closed-form traffic — identical accounting to a real run.
    options:
        The :class:`~repro.config.RunOptions` (``None``: the defaults,
        fused).  It reads ``fuse``, ``max_fused_qubits``, ``backend`` and
        ``threads``; the paper's gate-for-gate model, as the figures
        compare it with IQS, is ``fuse=False``.
    plan_cache:
        Optional shared :class:`~repro.sv.fusion.PlanCache` — pass the
        hierarchical executor's cache to share compiled parts across
        engines.
    **overrides:
        Fields it reads, by keyword (``fuse=False``), folded into
        ``options``.
    """

    def __init__(
        self,
        num_ranks: int,
        machine: MachineModel = FRONTERA_LIKE,
        dry_run: bool = False,
        options: Optional[RunOptions] = None,
        *,
        plan_cache: Optional[PlanCache] = None,
        **overrides,
    ) -> None:
        if num_ranks < 1 or (num_ranks & (num_ranks - 1)) != 0:
            raise ValueError("num_ranks must be a positive power of two")
        self.num_ranks = num_ranks
        self.machine = machine
        self.dry_run = dry_run
        self.options = options = RunOptions.fold(
            options, overrides, "HiSVSimEngine",
            ("strategy", "limit", "method"),
        )
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self.backend = resolve_backend(options.backend, options.threads)

    # -- public API ---------------------------------------------------------

    def run(
        self,
        circuit: QuantumCircuit,
        partition: Partition,
        multilevel: Optional[MultilevelPartition] = None,
        initial_full: Optional[np.ndarray] = None,
        comm: Optional[SimComm] = None,
    ):
        """Execute ``circuit`` as partitioned; returns ``(state, report)``.

        ``state`` is a :class:`~repro.dist.state.DistributedStateVector`
        (or a :class:`~repro.dist.state.LayoutOnlyState` under
        ``dry_run``); ``report`` is a
        :class:`~repro.runtime.metrics.RunReport` with model timings.

        ``comm`` injects the communicator (checked and reset by
        :func:`~repro.dist.state.open_run`).  Passing a
        :class:`~repro.dist.transport.SocketTransport` turns this call
        into one rank of an SPMD run: every worker process executes the
        same deterministic loop and ``remap`` moves amplitude blocks
        over TCP.
        """
        n = circuit.num_qubits
        if partition.num_qubits != n or partition.num_gates != len(circuit):
            raise ValueError("partition does not describe this circuit")
        if multilevel is not None and multilevel.outer != partition:
            # Inner partitions index gates relative to *their* outer part, so
            # a foreign outer would silently regroup gates across dependencies.
            raise ValueError(
                "multilevel partition does not describe this partition"
            )
        wall0 = time.perf_counter()
        state = open_run(n, self.num_ranks, comm, self.dry_run, initial_full)
        comm, local_bits = state.comm, state.local_bits
        working_set = partition.max_working_set()
        if working_set > local_bits:
            raise ValueError(
                f"part working set {working_set} exceeds local capacity "
                f"{local_bits}"
            )

        compute = ComputeStats()
        comp_seconds = comm_seconds = 0.0
        schedule = remap_schedule(partition, n, local_bits)
        for i, (part, layout) in enumerate(zip(partition.parts, schedule)):
            bytes_before = comm.stats.max_bytes_per_rank
            msgs_before = comm.stats.max_msgs_per_rank
            state.remap(layout)
            comm_seconds += self.machine.exchange_time(
                comm.stats.max_bytes_per_rank - bytes_before,
                comm.stats.max_msgs_per_rank - msgs_before,
                self.num_ranks,
            )
            inner = multilevel.inner[i] if multilevel is not None else None
            comp_seconds += self._execute_part(
                circuit, part, inner, state, local_bits, compute
            )
        state.release_spare()

        strategy = partition.strategy + ("-ML" if multilevel is not None else "")
        report = RunReport(
            engine="HiSVSIM",
            circuit=circuit.name,
            strategy=strategy,
            num_qubits=n,
            num_ranks=self.num_ranks,
            comp_seconds=comp_seconds,
            comm_seconds=comm_seconds,
            wall_seconds=time.perf_counter() - wall0,
            comm=comm.stats,
            compute=compute,
            num_parts=partition.num_parts,
        )
        return state, report

    # -- internals ----------------------------------------------------------

    def _execute_part(
        self,
        circuit: QuantumCircuit,
        part,
        inner: Optional[Partition],
        state,
        local_bits: int,
        compute: ComputeStats,
    ) -> float:
        """Run (and charge) one part; returns model seconds."""
        gate_indices = part.gate_indices
        shard_bytes = AMP_BYTES << local_bits
        seconds = 0.0
        if inner is None or inner.num_parts <= 1:
            groups = [(gate_indices, local_bits, part.qubits)]
        else:
            # Level-2 order: gates grouped by inner part; each group's
            # sweeps stream against its (cache-sized) inner working set.
            # Inner parts come from ``circuit.subcircuit``, which keeps
            # global qubit labels, so their working sets are usable here.
            groups = [
                (
                    tuple(gate_indices[j] for j in ip.gate_indices),
                    ip.working_set_size,
                    ip.qubits,
                )
                for ip in inner.parts
            ]
        for indices, width, qubits in groups:
            if width < local_bits:
                # Gather into / scatter out of 2^width inner vectors: one
                # streaming pass over the shard each way.
                seconds += self.machine.memcpy_time(2 * shard_bytes)
                working_set = AMP_BYTES << width
            else:
                working_set = shard_bytes
            plan = self.plan_cache.get_or_compile(
                circuit,
                indices,
                qubits,
                fuse=self.options.fuse,
                max_fused_qubits=self.options.max_fused_qubits,
            )
            for op in plan.ops:
                seconds += charge_gate(
                    self.machine, compute, op, local_bits, working_set
                )
            if not self.dry_run:
                # After ``remap`` the group's qubits sit at local
                # positions, so it is an ordinary part of the rows held
                # here.
                state.run_plan(plan, self.backend)
        return seconds
