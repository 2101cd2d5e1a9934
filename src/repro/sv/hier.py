"""Hierarchical Gather-Execute-Scatter execution (Algorithm 1, Sec. III-C).

For each part: build inner state vectors over the part's working set,
execute the part's gates on them, scatter results back.  Two engines:

* ``mode="batched"`` (default): the gather index table turns the outer
  state into a ``(2^(n-w), 2^w)`` matrix whose rows are all the inner
  state vectors at once; gates run batched across rows.  Numerically
  identical to the literal loop, dramatically faster in numpy.
* ``mode="literal"``: the paper's loop — one inner state vector per
  combination of non-part qubits — kept for validation and cache tracing.

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
amplitudes once, and every dense part goes to ``backend.run_plan``.
``method="auto"`` starts every circuit that could be materialised (and
every all-Clifford one) in tableau form, so a leading run of Clifford
parts never sweeps ``2^n`` amplitudes; a circuit whose first part is not
Clifford-only starts from ``zero_state(n)``, bit-identical to a dense
start, and a dense array input always takes the pre-routing path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..partition.base import Partition
from .backend import ExecutionBackend, resolve_backend
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
        ``"batched"`` or ``"literal"`` (see module docstring).
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
        if mode not in ("batched", "literal"):
            raise ValueError("mode must be 'batched' or 'literal'")
        self.mode = mode
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

        A dense ``state`` (``complex128``, ``2^n`` amplitudes; anything
        else is refused before the first part) is mutated in place and
        returned.  A
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
        the cache itself counts nothing.
        """
        n = circuit.num_qubits
        if partition.num_qubits != n or partition.num_gates != len(circuit):
            raise ValueError("partition does not describe this circuit")
        if isinstance(state, StabilizerState):
            if state.num_qubits != n:
                raise ValueError("state width mismatch")
        elif state.shape != (1 << n,):
            raise ValueError("state length mismatch")
        elif state.dtype != np.complex128:
            raise ValueError(f"state must be complex128, got {state.dtype}")
        for part in partition.parts:
            if isinstance(state, StabilizerState):
                gates = [circuit[g] for g in part.gate_indices]
                if is_clifford_circuit(gates):
                    self._run_tableau_part(part, gates, state, trace)
                    continue
                if trace is not None and not state.is_zero_state:
                    trace.boundary_conversions += 1
                state = state.to_dense()
            plan = self.plan_cache.get_or_compile(
                circuit,
                part.gate_indices,
                part.qubits,
                structural_key=structural_key,
                fuse=self.fuse,
                max_fused_qubits=self.max_fused_qubits,
                counters=cache_counters,
            )
            self._run_part(plan, state, n, trace)
        return state

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
        plan: CompiledPartPlan,
        state: np.ndarray,
        n: int,
        trace: Optional[ExecutionTrace],
    ) -> None:
        t0 = time.perf_counter()
        path = self.backend.run_plan(plan, state, n, self.mode)
        elapsed = time.perf_counter() - t0
        if trace is not None:
            trace.part_qubits.append(tuple(plan.qubits))
            trace.part_gates.append(plan.num_source_gates)
            trace.part_ops.append(plan.num_ops)
            trace.part_seconds.append(elapsed)
            label = self.backend.describe()
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
