"""Hierarchical Gather-Execute-Scatter execution (Algorithm 1, Sec. III-C).

For each part: build inner state vectors over the part's working set,
execute the part's gates on them, scatter results back.  The gather
index table turns the outer state into a ``(2^(n-w), 2^w)`` matrix
whose rows are all the inner state vectors at once, and gates run
batched across rows: numerically the paper's loop (one inner state
vector per combination of non-part qubits, kept test-side as the
reference), dramatically faster in numpy.

Before execution, each part's gate list is compiled through
:mod:`repro.sv.fusion` (default on): maximal ``<= max_fused_qubits``
groups collapse to single unitaries, so a part of ``G`` gates costs
``~G / fusion_factor`` kernel sweeps over the inner vectors instead of
``G``.  Compiled plans are cached per part, so repeated executions of
the same partition (sweeps, reruns) skip both grouping and matrix
construction.  ``fuse=False`` reproduces the one-sweep-per-gate path.

Where the sweeps run is delegated to an
:class:`~repro.sv.backend.ExecutionBackend` (``backend=``): serial (the
default) or threaded row-block parallelism, both on one block rule.
Results are bitwise reproducible *within* a backend; threaded agrees
with serial bit for bit at a power-of-two thread count and to 1e-10
otherwise (an uneven row split can move a GEMM's last ulp).  Parts
whose fused groups are small enough skip the gather matrix
entirely (the strided fast lane — see ``docs/backends.md``); the trace
records which lane each part took.

*What* runs them is decided per part in :meth:`HierarchicalExecutor.run`
from the state's representation (``method=`` only picks the starting
one, see :meth:`~HierarchicalExecutor.initial_state`): a
:class:`~repro.sv.stabilizer.StabilizerState` takes a Clifford-only
part's source gates on the tableau; the first other part converts it to
amplitudes once, and every dense part goes to the backend's part sweep
(:func:`~repro.sv.backend.run_part_group`).
``method="auto"`` starts every circuit that could be materialised (and
every all-Clifford one) in tableau form, so a leading run of Clifford
parts never sweeps ``2^n`` amplitudes; a circuit whose first part is not
Clifford-only starts from ``zero_state(n)``, bit-identical to a dense
start, and a dense array input always takes the pre-routing path.

:meth:`HierarchicalExecutor.run_group` runs ``K`` circuits of one
structure over one partition together: each part binds their plans in
one pass and sweeps their dense states as one stack, every circuit's
bits and counts being those of :meth:`~HierarchicalExecutor.run` alone.

When the block rule makes a state one block
(:func:`~repro.sv.backend.one_block`: ``2^15`` amplitudes or fewer on
one thread), gathering it buys no locality: a run of consecutive
gathered parts keeps it in the workspace
(:class:`~repro.sv.backend.ResidentBlock`), one gather and one scatter
per run instead of per part, with the bits and the per-part trace of
parts run alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..partition.base import Partition
from .backend import (
    ExecutionBackend,
    ResidentBlock,
    one_block,
    resolve_backend,
    run_part_group,
)
from .engine import resolve_method
from .fusion import (
    DEFAULT_MAX_FUSED_QUBITS,
    CacheCounters,
    CompiledPartPlan,
    PlanCache,
)
from .stabilizer import MAX_DENSE_QUBITS, StabilizerState, is_clifford_circuit

__all__ = ["HierarchicalExecutor", "ExecutionTrace"]


@dataclass
class ExecutionTrace:
    """Per-part accounting collected during a hierarchical run.

    ``part_gates`` counts *source* gates per part (sums to the circuit's
    gate count regardless of fusion); ``part_ops`` counts the kernel
    sweeps actually executed after compilation — their difference is what
    fusion saved.  ``part_seconds`` records measured wall time per part
    and ``backend_parts`` counts parts per backend identity (e.g.
    ``{"threaded[4]": 3}``), so a run's parallel coverage is auditable.

    Engine routing is accounted the same way: ``part_engines`` records
    the engine that executed each part (``"dense"`` / ``"stabilizer"``),
    ``engine_parts`` totals parts per engine, and
    ``boundary_conversions`` counts tableau→dense materialisations at
    Clifford/non-Clifford part boundaries.

    Kernel-path routing: ``strided_parts`` / ``gathered_parts`` count
    dense parts per path (the gather-free strided lane vs the
    gather-matrix sweep) and ``strided_ops`` / ``gathered_ops`` the
    kernel sweeps each executed; ``diagonal_ops`` counts, across both
    paths, the sweeps whose fused product is diagonal — the ones that
    ran as an in-place multiply instead of copy + GEMM + write-back.
    ``gather_elements``/``scatter_elements`` grow only for gathered
    parts — strided parts move no gather traffic at all.

    >>> trace = ExecutionTrace(part_gates=[10, 6], part_ops=[3, 2])
    >>> trace.num_parts, trace.total_gates, trace.sweeps_saved
    (2, 16, 11)
    """

    part_qubits: List[Tuple[int, ...]] = field(default_factory=list)
    part_gates: List[int] = field(default_factory=list)
    part_ops: List[int] = field(default_factory=list)
    part_seconds: List[float] = field(default_factory=list)
    backend_parts: Dict[str, int] = field(default_factory=dict)
    gather_elements: int = 0
    scatter_elements: int = 0
    part_engines: List[str] = field(default_factory=list)
    engine_parts: Dict[str, int] = field(default_factory=dict)
    boundary_conversions: int = 0
    strided_parts: int = 0
    gathered_parts: int = 0
    strided_ops: int = 0
    gathered_ops: int = 0
    diagonal_ops: int = 0

    @property
    def num_parts(self) -> int:
        return len(self.part_gates)

    @property
    def total_gates(self) -> int:
        return sum(self.part_gates)

    @property
    def total_ops(self) -> int:
        return sum(self.part_ops)

    @property
    def total_seconds(self) -> float:
        """Measured wall time across all parts (gather+execute+scatter)."""
        return sum(self.part_seconds)

    @property
    def sweeps_saved(self) -> int:
        """Kernel sweeps avoided by fusion (0 when fusion is off)."""
        return self.total_gates - self.total_ops


class HierarchicalExecutor:
    """Runs a partitioned circuit against a full state vector.

    >>> import numpy as np
    >>> from repro.circuits.generators import qft
    >>> from repro.partition import get_partitioner
    >>> from repro.sv.simulator import StateVectorSimulator, zero_state
    >>> qc = qft(6)
    >>> partition = get_partitioner("dagP").partition(qc, 4)
    >>> state = HierarchicalExecutor().run(qc, partition, zero_state(6))
    >>> sim = StateVectorSimulator(6); _ = sim.run(qc)
    >>> bool(np.allclose(state, sim.state, atol=1e-12))
    True

    Parameters
    ----------
    mode:
        ``"batched"``, the only value (kept for callers that pass it).
    fuse:
        Compile each part's gates into fused unitaries before execution
        (default on; numerically identical to the unfused path).
    max_fused_qubits:
        Arity cap for fused dense unitaries (clipped to the working-set
        size per part).
    plan_cache:
        Optional shared :class:`~repro.sv.fusion.PlanCache`; pass one to
        reuse compiled plans across executors and engines.
    backend:
        Where sweeps run: an :class:`~repro.sv.backend.ExecutionBackend`
        instance, a name (``"serial"`` / ``"threaded"``), or ``None`` to
        follow ``REPRO_BACKEND`` (default serial).
    threads:
        Worker count for a backend resolved by name/environment
        (default: ``REPRO_THREADS`` or the machine's core count).
    method:
        Simulation method — ``"auto"`` / ``"dense"`` / ``"stabilizer"``,
        or ``None`` to follow ``REPRO_METHOD`` (default ``auto``).  The
        method decides what :meth:`initial_state` hands out; :meth:`run`
        itself routes on the *state representation*, so dense arrays
        always take the exact pre-routing path.
    """

    def __init__(
        self,
        mode: str = "batched",
        *,
        fuse: bool = True,
        max_fused_qubits: int = DEFAULT_MAX_FUSED_QUBITS,
        plan_cache: Optional[PlanCache] = None,
        backend: Union[None, str, ExecutionBackend] = None,
        threads: Optional[int] = None,
        method: Optional[str] = None,
    ) -> None:
        if mode != "batched":
            raise ValueError(f"mode must be 'batched', got {mode!r}")
        self.fuse = bool(fuse)
        self.max_fused_qubits = int(max_fused_qubits)
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self.backend = resolve_backend(backend, threads)
        self.method = resolve_method(method)

    def initial_state(
        self, circuit: QuantumCircuit
    ) -> Union[np.ndarray, "StabilizerState"]:
        """The ``|0…0>`` state in the representation this run should use.

        ``method="dense"`` always yields a dense array;
        ``method="stabilizer"`` always yields a tableau (hybrid runs
        convert at the first non-Clifford part).  ``method="auto"``
        yields a tableau whenever the run could materialise it — up to
        :data:`~repro.sv.stabilizer.MAX_DENSE_QUBITS` qubits, or at any
        width when every gate is Clifford — so :meth:`run` keeps a
        circuit's leading Clifford parts on the tableau.  A circuit
        whose first part is not Clifford-only starts from
        ``zero_state(n)`` in :meth:`run`, bit-identically to a dense
        start; a wider non-Clifford circuit gets a dense array here.
        """
        n = circuit.num_qubits
        if self.method == "stabilizer" or (
            self.method == "auto"
            and (n <= MAX_DENSE_QUBITS or is_clifford_circuit(circuit.gates))
        ):
            return StabilizerState(n)
        from .simulator import zero_state

        return zero_state(n)

    def run(
        self,
        circuit: QuantumCircuit,
        partition: Partition,
        state: Union[np.ndarray, StabilizerState],
        trace: Optional[ExecutionTrace] = None,
        *,
        structural_key=None,
        cache_counters: Optional[CacheCounters] = None,
    ) -> Union[np.ndarray, StabilizerState]:
        """Execute all parts in order against ``state``.

        A dense ``state`` (a writable ``complex128`` array of ``2^n``
        amplitudes; anything else is refused before the first part) is
        mutated in place and returned.  A
        :class:`~repro.sv.stabilizer.StabilizerState` (from
        :meth:`initial_state`) takes Clifford parts on the tableau (their
        *source* gates — fused dense matrices are useless to it); the
        first non-Clifford part materialises it to dense amplitudes
        (counted in ``trace.boundary_conversions`` unless the tableau is
        still ``|0...0>``, which becomes ``zero_state(n)`` byte for
        byte) and the return value is then that dense array, not the
        input object.

        Every dense part makes one
        :meth:`~repro.sv.fusion.PlanCache.get_or_compile` lookup.
        ``structural_key`` (optional) is passed on to it: a fingerprint
        of the circuit's structure
        (:func:`repro.serve.circuit_fingerprint`) lets structurally
        identical circuits — parameter sweeps — reuse one fusion
        structure and its gather tables, rebuilding only the fused
        matrices.  ``cache_counters`` (optional) receives this call's
        plan-cache events (:class:`~repro.sv.fusion.CacheCounters`);
        the cache itself counts nothing.  This is :meth:`run_group` for
        one circuit; its exception, if any, is raised.
        """
        (out,) = self.run_group(
            [circuit],
            partition,
            [state],
            [trace],
            structural_key=structural_key,
            cache_counters=cache_counters,
        )
        if isinstance(out, Exception):
            raise out
        return out

    def run_group(
        self,
        circuits: Sequence[QuantumCircuit],
        partition: Partition,
        states: Sequence[Union[np.ndarray, StabilizerState]],
        traces: Optional[Sequence[Optional[ExecutionTrace]]] = None,
        *,
        structural_key=None,
        cache_counters: Optional[CacheCounters] = None,
    ) -> List[Union[np.ndarray, StabilizerState, Exception]]:
        """:meth:`run` for ``K`` circuits that share ``partition``: item
        ``k`` is circuit ``k``'s final state, or the exception that
        stopped it.

        Each circuit is routed, looked up, counted and traced
        (``traces[k]``) exactly as :meth:`run` does it alone.  Per part,
        the circuits whose state is a tableau and whose part is
        Clifford-only run it on their tableau one by one; every other
        one is dense for it, and the dense ones make one
        :meth:`~repro.sv.fusion.PlanCache.get_or_compile_group` lookup
        and one :func:`~repro.sv.backend.run_part_group` call on the
        backend's mapper, which sweeps the plans of one structure as
        one stack.  Circuits of one structure share plan structures
        only under one ``structural_key``; without one, each circuit's
        plans are its own and it sweeps alone.  A circuit
        whose check, conversion or bind fails drops out with its
        exception; the others go on.  Where the state is one block, the
        dense parts share a :class:`~repro.sv.backend.ResidentBlock`,
        written back when a part cannot join its run and at the end.

        >>> from repro.circuits.generators import qaoa
        >>> from repro.partition import get_partitioner
        >>> jobs = [qaoa(6, p=1, gammas=[g], betas=[0.3]) for g in (0.2, 0.4)]
        >>> partition = get_partitioner("dagP").partition(jobs[0], 4)
        >>> ex = HierarchicalExecutor(method="dense")
        >>> states = [ex.initial_state(qc) for qc in jobs]
        >>> a, b = ex.run_group(jobs, partition, states, structural_key="q6")
        >>> bool(np.array_equal(a, ex.run(jobs[0], partition,
        ...                               ex.initial_state(jobs[0]))))
        True
        """
        jobs = len(circuits)
        if traces is None:
            traces = [None] * jobs
        out: List = list(states)
        for k, (circuit, state) in enumerate(zip(circuits, states)):
            n = circuit.num_qubits
            if partition.num_qubits != n or partition.num_gates != len(
                circuit
            ):
                out[k] = ValueError("partition does not describe this circuit")
            elif isinstance(state, StabilizerState):
                if state.num_qubits != n:
                    out[k] = ValueError("state width mismatch")
            elif not isinstance(state, np.ndarray):
                out[k] = ValueError(
                    "state must be a numpy array or a StabilizerState, "
                    f"got {type(state).__name__}"
                )
            elif state.shape != (1 << n,):
                out[k] = ValueError("state length mismatch")
            elif state.dtype != np.complex128:
                out[k] = ValueError(
                    f"state must be complex128, got {state.dtype}"
                )
            elif not state.flags.writeable:
                out[k] = ValueError("state is read-only")
        n = partition.num_qubits
        # A state that is one block stays gathered across a run of parts.
        resident = (
            ResidentBlock() if one_block(self.backend.map_blocks, n) else None
        )
        for part in partition.parts:
            dense = []
            for k, state in enumerate(out):
                if isinstance(state, np.ndarray):
                    dense.append(k)
                elif isinstance(state, StabilizerState):
                    try:
                        gates = [circuits[k][g] for g in part.gate_indices]
                        if is_clifford_circuit(gates):
                            self._run_tableau_part(
                                part, gates, state, traces[k]
                            )
                            continue
                        if traces[k] is not None and not state.is_zero_state:
                            traces[k].boundary_conversions += 1
                        out[k] = state.to_dense()
                    except Exception as exc:
                        out[k] = exc
                        continue
                    dense.append(k)
            if not dense:
                continue
            group = circuits
            if len(dense) < jobs:
                group = [circuits[k] for k in dense]
            plans = self.plan_cache.get_or_compile_group(
                group,
                part.gate_indices,
                part.qubits,
                structural_key=structural_key,
                fuse=self.fuse,
                max_fused_qubits=self.max_fused_qubits,
                counters=cache_counters,
            )
            if any(isinstance(plan, Exception) for plan in plans):
                # Failed lookups drop out; the others sweep.
                for k, plan in zip(dense, plans):
                    if isinstance(plan, Exception):
                        out[k] = plan
                dense = [k for k in dense if isinstance(out[k], np.ndarray)]
                plans = [p for p in plans if not isinstance(p, Exception)]
            if len(dense) == jobs:  # every circuit sweeps this part
                self._run_part(plans, out, n, traces, resident)
            elif dense:
                self._run_part(
                    plans,
                    [out[k] for k in dense],
                    n,
                    [traces[k] for k in dense],
                    resident,
                )
        if resident is not None:
            resident.flush()
        return out

    # -- internals --------------------------------------------------------

    def _run_tableau_part(self, part, gates, state, trace) -> None:
        """A Clifford part's *source* gates, applied to the tableau."""
        t0 = time.perf_counter()
        state.apply_all(gates)
        elapsed = time.perf_counter() - t0
        if trace is not None:
            trace.part_qubits.append(tuple(part.qubits))
            trace.part_gates.append(len(gates))
            trace.part_ops.append(len(gates))
            trace.part_seconds.append(elapsed)
            self._record_engine(trace, "stabilizer")

    @staticmethod
    def _record_engine(trace: ExecutionTrace, name: str) -> None:
        trace.part_engines.append(name)
        trace.engine_parts[name] = trace.engine_parts.get(name, 0) + 1

    def _run_part(
        self,
        plans: List[CompiledPartPlan],
        states: List[np.ndarray],
        n: int,
        traces: List[Optional[ExecutionTrace]],
        resident: Optional[ResidentBlock],
    ) -> None:
        t0 = time.perf_counter()
        lanes = run_part_group(
            plans, states, n, self.backend.strided_max,
            self.backend.map_blocks, resident,
        )
        # The stack's jobs share its time.
        elapsed = (time.perf_counter() - t0) / len(plans)
        label = self.backend.describe()
        for plan, path, trace in zip(plans, lanes, traces):
            if trace is None:
                continue
            trace.part_qubits.append(tuple(plan.qubits))
            trace.part_gates.append(plan.num_source_gates)
            trace.part_ops.append(plan.num_ops)
            trace.part_seconds.append(elapsed)
            trace.backend_parts[label] = trace.backend_parts.get(label, 0) + 1
            if path == "strided":
                trace.strided_parts += 1
                trace.strided_ops += plan.num_ops
            else:
                trace.gathered_parts += 1
                trace.gathered_ops += plan.num_ops
                trace.gather_elements += 1 << n
                trace.scatter_elements += 1 << n
            trace.diagonal_ops += sum(op.is_diagonal for op in plan.ops)
            self._record_engine(trace, "dense")
