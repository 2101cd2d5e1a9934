"""The traced pass: the pipeline run one public call per layer, plus probes.

End-to-end metrics never come from here.  A traced run interleaves

* **reference passes** — the workload's ordinary cold pass, timed from
  outside, as the denominator of ``trace.staged_over_e2e``;
* **staged passes** — the same work re-driven stage by stage (parse ->
  partition -> compile -> gather-table/gather/apply/scatter -> outputs,
  or -> remap/execute/to_full), each call inside a span;

and then runs **probes** of the workload's own circuits: the other
partitioners, warm runs under each strategy, the strided-lane pair, the
host copy rate, stabilizer routing, and the counters ``BatchRunner`` /
``HiSVSimEngine`` report for the workload that drives them.

A stage time is the median over the staged passes of that stage's spans.
A layer the workload's pipeline never enters has no spans and counts
nothing, so its metrics read 0 (``dist.remap_s`` on a single-node
workload: no time was spent there).  A probe that raises reports ``None``
for its metrics and bumps ``trace.probe_errors``; it never takes the run
down.
"""

from __future__ import annotations

import gc
import os
import time
import traceback
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.circuits import qasm
from repro.circuits.circuit import QuantumCircuit
from repro.dag import build_dag
from repro.dist import (
    DistributedStateVector,
    HiSVSimEngine,
    IQSEngine,
    plan_layout_for_part,
)
from repro.partition import get_partitioner
from repro.runtime.comm import SimComm
from repro.serve import circuit_fingerprint, structural_fingerprint
from repro.sv.backend import SerialBackend, get_backend
from repro.sv.fusion import (
    DEFAULT_MAX_FUSED_QUBITS,
    CacheCounters,
    PlanCache,
    compile_part,
    compile_partition,
)
from repro.sv.hier import ExecutionTrace, HierarchicalExecutor
from repro.sv.kernels import (
    apply_matrix_batched,
    apply_matrix_strided,
    bytes_touched_gather_part,
    bytes_touched_strided,
    flops_for_gate,
    split_controls,
    strided_max_qubits,
)
from repro.sv.pauli import expectations
from repro.sv.simulator import sample_counts, zero_state
from repro.sv.stabilizer import StabilizerState, is_clifford_circuit

import spec
from stats import Tracer, host_info, median, percentile
from workloads import (
    STRATEGY,
    DistQft,
    Item,
    Verifier,
    Workload,
    batch_runner,
    hier_executor,
)

__all__ = ["run_traced"]

STRATEGIES = ("Nat", "DFS", "dagP")
MIN_ITERATIONS = 2
RANKS = DistQft.RANKS
COPY_PROBE_BYTES = 128 << 20
MAX_ITERATIONS = 8


class Planned(NamedTuple):
    """A circuit under its ``dagP`` partition, with the cache that holds
    its compiled plans (what ``probe_strategies`` leaves for later probes)."""

    circuit: QuantumCircuit
    partition: object
    cache: PlanCache


class Executed(NamedTuple):
    """One part a staged pass swept, and the kernel lane it took."""

    plan: object
    lane: str
    num_qubits: int


# ---------------------------------------------------------------------------
# Staged pipelines
# ---------------------------------------------------------------------------


def takes_strided_lane(plan, strided_max: int) -> bool:
    """The executor's documented routing rule (docs/backends.md), restated
    through public calls: a part runs gather-free when every op has at
    most ``strided_max`` target qubits after control extraction.
    ``TracedRun.check_lane_rule`` checks the count this yields against
    ``ExecutionTrace.strided_parts``."""
    if strided_max < 0:
        return False
    for op in plan.ops:
        if len(op.qubits) <= strided_max:
            continue
        _, targets, _ = split_controls(op.matrix(), op.qubits)
        if len(targets) > strided_max:
            return False
    return True


def staged_part(
    tr: Tracer, plan, state: np.ndarray, smax: int, executed: List[Executed]
) -> None:
    """One part, replayed from outside through the kernel layer's calls."""
    n = state.size.bit_length() - 1
    # The executor re-derives the lane on every run of every part.
    with tr.span("kernels.route"):
        strided = takes_strided_lane(plan, smax)
    if strided:
        executed.append(Executed(plan, "strided", n))
        with tr.span("kernels.strided"):
            for op in plan.ops:
                apply_matrix_strided(
                    state, op.matrix(), op.qubits, n, diagonal=op.is_diagonal
                )
        return
    executed.append(Executed(plan, "gather", n))
    with tr.span("layout.gather_table"):
        table = plan.gather_table(n)
    with tr.span("kernels.gather"):
        inner = state[table]
    with tr.span("kernels.apply"):
        width = len(plan.qubits)
        for op in plan.local_ops():
            apply_matrix_batched(
                inner, op.matrix(), op.qubits, width, diagonal=op.is_diagonal
            )
    with tr.span("kernels.scatter"):
        state[table] = inner


def staged_hier(
    tr: Tracer,
    items: Sequence[Item],
    executed: List[Executed],
    texts: Optional[Sequence[str]],
) -> None:
    """Single-node pipeline: [parse] -> partition -> compile -> parts."""
    smax = strided_max_qubits()
    kept = []  # as the cold pass keeps every circuit's plans and output
    for i, item in enumerate(items):
        qc = item.circuit
        if texts is not None:
            with tr.span("circuits.qasm_parse"):
                qc = qasm.loads(texts[i], name=item.label)
        with tr.span("partition.dagP"):
            partition = get_partitioner(STRATEGY).partition(qc, item.limit)
        with tr.span("fusion.compile_cold"):
            plans = compile_partition(qc, partition, cache=PlanCache())
        with tr.span("hier.initial_state"):
            state = zero_state(qc.num_qubits)
        for plan in plans:
            staged_part(tr, plan, state, smax, executed)
        kept.append((qc, partition, plans, state))


def staged_serve(
    tr: Tracer, jobs, limit: int, executed: List[Executed]
) -> CacheCounters:
    """Batch pipeline: fingerprints -> partition once -> per job bind,
    parts, sampling, expectations (``BatchRunner``'s loop from outside)."""
    smax = strided_max_qubits()
    with tr.span("serve.fingerprint"):
        keys = [
            (circuit_fingerprint(j.circuit), structural_fingerprint(j.circuit))
            for j in jobs
        ]
    partitions: Dict[str, object] = {}
    cache = PlanCache()
    counters = CacheCounters()
    for job, (_, structural) in zip(jobs, keys):
        qc = job.circuit
        n = qc.num_qubits
        if structural not in partitions:
            with tr.span("partition.dagP"):
                partitions[structural] = get_partitioner(STRATEGY).partition(
                    qc, limit
                )
        with tr.span("hier.initial_state"):
            state = zero_state(n)
        for part in partitions[structural].parts:
            with tr.span("fusion.bind"):
                plan = cache.get_or_bind(
                    qc,
                    part.gate_indices,
                    part.qubits,
                    structural_key=structural,
                    counters=counters,
                )
            staged_part(tr, plan, state, smax, executed)
        if job.shots:
            with tr.span("outputs.sample_counts"):
                sample_counts(state, job.shots, job.seed or 0)
        if job.observables:
            with tr.span("outputs.expectations"):
                expectations(state, job.observables, n)
    return counters


def staged_dist(tr: Tracer, items: Sequence[Item], ranks: int) -> None:
    """Distributed pipeline: partition -> per part compile, remap, shard
    sweeps -> gather (``HiSVSimEngine.run``'s loop from outside)."""
    backend = SerialBackend()
    for item in items:
        qc = item.circuit
        n = qc.num_qubits
        local_bits = n - (ranks.bit_length() - 1)
        with tr.span("partition.dagP"):
            partition = get_partitioner(STRATEGY).partition(
                qc, min(item.limit, local_bits)
            )
        cache = PlanCache()
        with tr.span("dist.initial_state"):
            state = DistributedStateVector.zero(n, SimComm(ranks))
        for i, part in enumerate(partition.parts):
            following = (
                partition.parts[i + 1].qubits
                if i + 1 < partition.num_parts
                else None
            )
            with tr.span("fusion.compile_cold"):
                plan = cache.get_or_compile(
                    qc,
                    part.gate_indices,
                    part.qubits,
                    fuse=True,
                    max_fused_qubits=min(
                        DEFAULT_MAX_FUSED_QUBITS, max(local_bits, 1)
                    ),
                )
            with tr.span("dist.remap"):
                state.remap(
                    plan_layout_for_part(
                        state.layout, part.qubits, local_bits, following
                    )
                )
            with tr.span("dist.execute"):
                for op in plan.ops:
                    state.apply_gate_local(op, backend=backend)
        with tr.span("dist.to_full"):
            state.to_full()


# Stage time -> the staged spans that add up to it.
_SPAN_METRICS = {
    "circuits.qasm_parse_s": ("circuits.qasm_parse",),
    "partition.dagP.s": ("partition.dagP",),
    "fusion.compile_cold_s": ("fusion.compile_cold",),
    "fusion.bind_s": ("fusion.bind",),
    "layout.gather_table_s": ("layout.gather_table",),
    "kernels.route_s": ("kernels.route",),
    "kernels.gather_s": ("kernels.gather",),
    "kernels.apply_s": ("kernels.apply", "kernels.strided"),
    "kernels.scatter_s": ("kernels.scatter",),
    "outputs.sample_counts_s": ("outputs.sample_counts",),
    "outputs.expectations_s": ("outputs.expectations",),
    "serve.fingerprint_s": ("serve.fingerprint",),
    "dist.remap_s": ("dist.remap",),
    "dist.execute_s": ("dist.execute",),
    "dist.to_full_s": ("dist.to_full",),
}


# ---------------------------------------------------------------------------
# Probes (each returns a dict of metric name -> value)
# ---------------------------------------------------------------------------


def _timed(fn: Callable[[], object]) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _named(prefix: str) -> tuple:
    return tuple(n for n in spec.PER_LAYER if n.startswith(prefix))


def probe_host(smoke: bool) -> Dict[str, object]:
    """STREAM-style copy rate: best of five ``np.copyto`` between two
    arrays of ``COPY_PROBE_BYTES`` each (64x the per-core L2; the shared
    LLC of this class of host is larger than any array worth touching)."""
    info = host_info()
    words = (1 << 18) if smoke else COPY_PROBE_BYTES // 8
    src = np.ones(words, dtype=np.float64)
    dst = np.zeros(words, dtype=np.float64)
    best = min(_timed(lambda: np.copyto(dst, src)) for _ in range(5))
    return {
        "host.copy_gbs": 2 * src.nbytes / best / 1e9,
        "host.l2_bytes": info["l2_bytes"],
        "host.llc_bytes": info["llc_bytes"],
        "host.nproc": info["nproc"],
    }


def probe_circuits(workload: Workload, items: Sequence[Item]) -> Dict[str, object]:
    texts = workload.texts or [qasm.dumps(i.circuit) for i in items]
    return {
        "circuits.gates": workload.source_gates(),
        "circuits.qasm_bytes": sum(len(t.encode()) for t in texts),
    }


def probe_dag(items: Sequence[Item]) -> Dict[str, object]:
    seconds = nodes = edges = 0
    for item in items:
        t0 = time.perf_counter()
        dag = build_dag(item.circuit)
        seconds += time.perf_counter() - t0
        nodes += dag.num_nodes
        edges += sum(len(s) for s in dag.succ)
    return {"dag.build_s": seconds, "dag.nodes": nodes, "dag.edges": edges}


def probe_strategies(
    items: Sequence[Item], method: str, planned: List[Planned]
) -> Dict[str, object]:
    """Each partitioner on the workload's circuits and a warm single-node
    ``run`` (plans compiled beforehand) under its partition, then the
    ``dagP`` run again on two threads.  Leaves the ``dagP`` partitions and
    their plan caches in ``planned``."""
    out: Dict[str, object] = {}
    for strategy in STRATEGIES:  # dagP last: its run and trace are kept
        part_s = run_s = parts = 0
        trace = ExecutionTrace()
        for item in items:
            qc = item.circuit
            t0 = time.perf_counter()
            partition = get_partitioner(strategy).partition(qc, item.limit)
            part_s += time.perf_counter() - t0
            parts += partition.num_parts
            executor = hier_executor(method)
            compile_partition(qc, partition, cache=executor.plan_cache)
            state = executor.initial_state(qc)
            gc.collect()
            t0 = time.perf_counter()
            executor.run(qc, partition, state, trace)
            run_s += time.perf_counter() - t0
            if strategy == STRATEGY:
                planned.append(Planned(qc, partition, executor.plan_cache))
        if strategy != STRATEGY:  # dagP's time is a stage of every pipeline
            out[f"partition.{strategy}.s"] = part_s
        out[f"partition.{strategy}.parts"] = parts
        out[f"hier.run_s.{strategy}"] = run_s
    out["partition.dagP.max_working_set"] = max(
        p.partition.max_working_set() for p in planned
    )
    out["hier.part_s_sum"] = trace.total_seconds
    out["hier.part_s_max"] = max(trace.part_seconds)
    out["hier.overhead_s"] = run_s - trace.total_seconds
    out["hier.parts_strided"] = trace.strided_parts
    out["hier.parts_gathered"] = trace.gathered_parts
    out["hier.parts_stabilizer"] = trace.engine_parts.get("stabilizer", 0)
    with get_backend("threaded", threads=2) as backend:
        threaded = 0.0
        for qc, partition, _ in planned:
            executor = HierarchicalExecutor(
                mode="batched", fuse=True, backend=backend, method=method,
                plan_cache=PlanCache(),
            )
            compile_partition(qc, partition, cache=executor.plan_cache)
            state = executor.initial_state(qc)
            threaded += _timed(lambda: executor.run(qc, partition, state))
    out["backend.threaded2.run_s"] = threaded
    out["backend.threaded2.speedup"] = run_s / threaded
    return out


STRATEGY_METRICS = tuple(
    n for n in _named("partition.") + _named("hier.") + _named("backend.")
    if n != "partition.dagP.s"
)


def probe_fusion(planned: Sequence[Planned]) -> Dict[str, object]:
    """``compile_partition`` again on a cache that already holds every
    plan (all hits), and what fusion made of the source gates."""
    warm = gates = ops = 0
    for qc, partition, cache in planned:
        t0 = time.perf_counter()
        plans = compile_partition(qc, partition, cache=cache)
        warm += time.perf_counter() - t0
        gates += sum(p.num_source_gates for p in plans)
        ops += sum(p.num_ops for p in plans)
    return {
        "fusion.compile_warm_s": warm,
        "fusion.source_gates": gates,
        "fusion.ops": ops,
        "fusion.sweep_reduction": gates / ops,
    }


FUSION_METRICS = (
    "fusion.compile_warm_s", "fusion.source_gates", "fusion.ops",
    "fusion.sweep_reduction",
)


def probe_layout(executed: Sequence[Executed]) -> Dict[str, object]:
    """The second ``gather_table`` call per part (small tables are
    memoised on the structure; big ones are rebuilt every time)."""
    seconds = 0.0
    for plan, lane, n in executed:
        if lane == "gather":
            seconds += _timed(lambda: plan.gather_table(n))
    return {"layout.gather_table_cached_s": seconds}


def probe_kernel_model(executed: Sequence[Executed]) -> Dict[str, object]:
    """Op counts and the computed (not measured) bytes and flops of the
    parts whose spans feed ``kernels.*_s``."""
    dense = diagonal = model_bytes = flops = 0
    for plan, lane, n in executed:
        for op in plan.ops:
            if op.is_diagonal:
                diagonal += 1
            else:
                dense += 1
            flops += flops_for_gate(len(op.qubits), n, op.is_diagonal)
            if lane == "strided":
                controls, _, _ = split_controls(op.matrix(), op.qubits)
                model_bytes += bytes_touched_strided(n, len(controls))
        if lane == "gather":
            model_bytes += bytes_touched_gather_part(n, plan.num_ops)
    return {
        "kernels.ops_dense": dense,
        "kernels.ops_diagonal": diagonal,
        "kernels.model_bytes": model_bytes,
        "kernels.model_flops": flops,
    }


KERNEL_MODEL_METRICS = (
    "kernels.ops_dense", "kernels.ops_diagonal", "kernels.model_bytes",
    "kernels.model_flops",
)


def probe_lane(n: int) -> Dict[str, object]:
    """One ``h`` part at the workload's width down each kernel lane."""
    q = n // 2
    qc = QuantumCircuit(n).h(q)
    plan = compile_part(qc, [0], [q])
    state = zero_state(n)
    out = {}
    for name, smax in (("strided", 2), ("gathered", -1)):
        backend = SerialBackend(strided_max=smax)
        backend.run_plan(plan, state, n)
        out[f"kernels.{name}_1op_s"] = median(
            [_timed(lambda: backend.run_plan(plan, state, n)) for _ in range(3)]
        )
    return out


LANE_METRICS = ("kernels.strided_1op_s", "kernels.gathered_1op_s")


def probe_stabilizer(planned: Sequence[Planned]) -> Dict[str, object]:
    """``auto`` against forced-tableau routing, and the boundary cost, on
    the circuits that open with an all-Clifford part (on any other circuit
    the two policies route alike)."""
    out = dict.fromkeys(_named("stabilizer."), 0)
    for qc, partition, _ in planned:
        if not is_clifford_circuit(
            [qc[g] for g in partition.parts[0].gate_indices]
        ):
            continue
        for method in ("auto", "stabilizer"):
            executor = hier_executor(method)
            executor.run(qc, partition, executor.initial_state(qc))
            state = executor.initial_state(qc)
            trace = ExecutionTrace()
            seconds = _timed(lambda: executor.run(qc, partition, state, trace))
            if method == "auto":
                out["stabilizer.auto_run_s"] += seconds
            else:
                out["stabilizer.forced_run_s"] += seconds
                out["stabilizer.boundary_conversions"] += (
                    trace.boundary_conversions
                )
        tableau = StabilizerState(qc.num_qubits)
        for part in partition.parts:
            gates = [qc[g] for g in part.gate_indices]
            if not is_clifford_circuit(gates):
                break
            tableau.apply_all(gates)
        out["stabilizer.to_dense_s"] += _timed(tableau.to_dense)
    return out


def probe_serve_engine(
    workload: Workload, latencies_ms: List[float]
) -> Dict[str, object]:
    """``BatchRunner`` counters on a cold batch, job latencies and runner
    overhead on the next (warm) one, and a third batch on two workers."""
    batches = [workload.batch(1000 + i) for i in range(3)]
    runner = batch_runner(workload.limit)
    cold = runner.run(batches[0]).stats
    report = runner.run(batches[1])
    seconds = [r.seconds for r in report.results]
    latencies_ms.extend(1e3 * s for s in seconds)
    # Sharing the first runner's plan cache makes this batch warm too:
    # structures hit, only the new circuits' matrices are bound.
    runner2 = batch_runner(
        workload.limit, workers=2, plan_cache=runner.plan_cache
    )
    two = _timed(lambda: runner2.run(batches[2]))
    return {
        "serve.partitions_computed": cold.partitions_computed,
        "serve.partition_hits": cold.partition_hits,
        "serve.structures_compiled": cold.structures_compiled,
        "serve.plans_bound": cold.plans_bound,
        "serve.runner_overhead_s": report.stats.seconds - sum(seconds),
        "serve.workers2.batch_s": two,
    }


SERVE_ENGINE_METRICS = (
    "serve.partitions_computed", "serve.partition_hits",
    "serve.structures_compiled", "serve.plans_bound",
    "serve.runner_overhead_s", "serve.workers2.batch_s",
)


def probe_dist_engine(items: Sequence[Item], ranks: int) -> Dict[str, object]:
    """Exchange counts straight from ``RunReport.comm``, against IQS."""
    exchanges = total = msgs = per_rank = iqs = 0
    comm_s = comp_s = 0.0
    for item in items:
        qc = item.circuit
        local_bits = qc.num_qubits - (ranks.bit_length() - 1)
        partition = get_partitioner(STRATEGY).partition(
            qc, min(item.limit, local_bits)
        )
        engine = HiSVSimEngine(
            ranks, fuse=True, backend="serial", plan_cache=PlanCache()
        )
        _, report = engine.run(qc, partition)
        exchanges += report.comm.steps
        total += report.comm.total_bytes
        msgs += report.comm.total_msgs
        per_rank += int(report.comm.max_bytes_per_rank)
        comm_s += report.comm_seconds
        comp_s += report.comp_seconds
        _, baseline = IQSEngine(ranks, dry_run=True).run(qc)
        iqs += baseline.comm.total_bytes
    return {
        "dist.exchanges": exchanges,
        "dist.bytes_total": total,
        "dist.msgs_total": msgs,
        "dist.max_bytes_per_rank": per_rank,
        "dist.model_comm_s": comm_s,
        "dist.model_comp_s": comp_s,
        "dist.iqs_bytes_total": iqs,
        "dist.bytes_vs_iqs": total / iqs,
    }


DIST_ENGINE_METRICS = (
    "dist.exchanges", "dist.bytes_total", "dist.msgs_total",
    "dist.max_bytes_per_rank", "dist.model_comm_s", "dist.model_comp_s",
    "dist.iqs_bytes_total", "dist.bytes_vs_iqs",
)


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


class TracedRun:
    def __init__(self, workload: Workload, verifier: Verifier) -> None:
        self.workload = workload
        self.verifier = verifier
        self.tracer = Tracer(workload.name)
        self.metrics: Dict[str, object] = {}
        self.errors: List[str] = []
        self.staged_runs: List[str] = []
        self.reference_s: List[float] = []  # ordinary cold passes
        self.latencies_ms: List[float] = []  # warm jobs, probe_serve_engine
        self.executed: List[Executed] = []  # parts of the last staged pass
        self.planned: List[Planned] = []
        self.serve_counters = CacheCounters()

    def staged_pass(self, label: str, k: int) -> None:
        """The workload's own pipeline, one public call per layer."""
        w, tr = self.workload, self.tracer
        self.executed = []
        with tr.run(label):
            if w.pipeline == "serve":
                # Not the batch the reference pass just ran: the program
                # keeps a process-wide (name, params) -> matrix cache, so
                # the same angles a second time would bind cheaper.
                self.serve_counters = staged_serve(
                    tr, w.batch(2 * k + 1), w.limit, self.executed
                )
            elif w.pipeline == "dist":
                staged_dist(tr, w.probe_items(), RANKS)
            else:
                staged_hier(tr, w.probe_items(), self.executed, w.texts)

    def iteration(self, k: int) -> None:
        """One reference cold pass, then one staged pass of the same work."""
        w = self.workload
        w.prepare(k)
        gc.collect()
        t0 = time.perf_counter()
        ctx, outputs = w.cold(k)
        cold_s = time.perf_counter() - t0
        self.verifier.add_pass(outputs, k, False)
        del ctx, outputs
        gc.collect()
        label = f"staged#{k}"
        self.staged_pass(label, k)
        self.staged_runs.append(label)
        self.reference_s.append(cold_s)

    def probe(
        self, label: str, names: Sequence[str], fn: Callable[[], dict]
    ) -> None:
        """Run one probe inside a span; ``names`` are the metrics it must
        return, and what reads ``None`` when it raises."""
        gc.collect()
        try:
            with self.tracer.run(label), self.tracer.span(label):
                values = fn()
            if set(values) != set(names):
                raise KeyError(f"returned {sorted(values)}")
        except Exception:  # a probe must never take the run down
            self.errors.append(f"{label}: {traceback.format_exc(limit=3)}")
            values = dict.fromkeys(names)
        self.metrics.update(values)

    def probes(self) -> None:
        w = self.workload
        items = w.probe_items()
        self.probe("probe:host", _named("host."), lambda: probe_host(w.smoke))
        self.probe(
            "probe:circuits",
            ("circuits.gates", "circuits.qasm_bytes"),
            lambda: probe_circuits(w, items),
        )
        self.probe("probe:dag", _named("dag."), lambda: probe_dag(items))
        self.probe(
            "probe:strategies",
            STRATEGY_METRICS,
            lambda: probe_strategies(items, w.METHOD, self.planned),
        )
        self.probe(
            "probe:fusion", FUSION_METRICS, lambda: probe_fusion(self.planned)
        )
        self.probe(
            "probe:layout",
            ("layout.gather_table_cached_s",),
            lambda: probe_layout(self.executed),
        )
        self.probe(
            "probe:kernel_model",
            KERNEL_MODEL_METRICS,
            lambda: probe_kernel_model(self.executed),
        )
        self.probe(
            "probe:lane",
            LANE_METRICS,
            lambda: probe_lane(max(i.circuit.num_qubits for i in items)),
        )
        self.probe(
            "probe:stabilizer",
            _named("stabilizer."),
            lambda: probe_stabilizer(self.planned),
        )
        if w.pipeline == "serve":
            self.probe(
                "probe:serve_engine",
                SERVE_ENGINE_METRICS,
                lambda: probe_serve_engine(w, self.latencies_ms),
            )
        if w.pipeline == "dist":
            self.probe(
                "probe:dist_engine",
                DIST_ENGINE_METRICS,
                lambda: probe_dist_engine(items, RANKS),
            )

    def check_lane_rule(self, executor_strided: Optional[int]) -> None:
        """``takes_strided_lane`` must route as the executor did.  Only
        comparable where both saw the same circuits once each."""
        if self.workload.pipeline != "hier" or executor_strided is None:
            return
        staged = sum(1 for e in self.executed if e.lane == "strided")
        if staged != executor_strided:
            self.errors.append(
                f"lane rule drifted: staged {staged} strided parts, "
                f"executor {executor_strided}"
            )

    def assemble(self, build_s: float) -> Dict[str, object]:
        # A layer this pipeline never entered: no time spent, nothing counted.
        m: Dict[str, object] = dict.fromkeys(spec.PER_LAYER, 0)
        m.update(self.metrics)
        m["circuits.build_s"] = build_s
        for metric, names in _SPAN_METRICS.items():
            per_pass = [
                sum(self.tracer.total(n, run) for n in names)
                for run in self.staged_runs
            ]
            m[metric] = median(per_pass)
        c = self.serve_counters
        m["fusion.structure_hits"] = c.structure_hits
        m["fusion.structure_misses"] = c.structure_misses
        m["fusion.plans_bound"] = c.misses
        swept = sum(
            m[k] for k in ("layout.gather_table_s", "kernels.gather_s",
                           "kernels.apply_s", "kernels.scatter_s")
        )
        if swept and m["kernels.model_bytes"]:
            m["kernels.achieved_gbs"] = m["kernels.model_bytes"] / swept / 1e9
            if m["host.copy_gbs"]:
                m["kernels.bandwidth_frac"] = (
                    m["kernels.achieved_gbs"] / m["host.copy_gbs"]
                )
        if m["dist.remap_s"] and m["dist.bytes_total"]:
            m["dist.remap_gbs"] = m["dist.bytes_total"] / m["dist.remap_s"] / 1e9
        lat = self.latencies_ms
        if lat:
            m["serve.job_p50_ms"] = percentile(lat, 50)
            m["serve.job_p90_ms"] = percentile(lat, 90)
            m["serve.job_max_ms"] = max(lat)
        self.check_lane_rule(m["hier.parts_strided"])
        # Fastest against fastest: slowdowns on this host are one-sided and
        # hit a 1-3 s pass whole, so a ratio of medians of a few passes is
        # noise.
        m["trace.staged_over_e2e"] = min(
            self.tracer.top_level_total(run) for run in self.staged_runs
        ) / min(self.reference_s)
        m["trace.spans"] = len(self.tracer.spans)
        m["trace.probe_errors"] = len(self.errors)
        return m


def run_traced(
    workload: Workload,
    seconds: float,
    verifier: Verifier,
    build_s: float,
    trace_path: str,
) -> Dict[str, object]:
    """One iteration, the fixed-work probes, then more iterations until
    they have used ``seconds`` (at least ``MIN_ITERATIONS``, at most
    ``MAX_ITERATIONS``): stage times are medians over them."""
    run = TracedRun(workload, verifier)
    # The first full-size pass of a process pays first-touch page faults
    # (+30-40 %); as a reference it would skew trace.staged_over_e2e.
    workload.prepare(0)
    workload.cold(0)
    spent = _timed(lambda: run.iteration(0))
    run.probes()
    k = 1
    while k < MIN_ITERATIONS or (k < MAX_ITERATIONS and spent < seconds):
        spent += _timed(lambda: run.iteration(k))
        k += 1
    metrics = run.assemble(build_s)
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    run.tracer.write_chrome(trace_path)
    return {
        "metrics": metrics,
        "probe_errors": run.errors,
        "staged_passes": len(run.staged_runs),
        "latency_samples": len(run.latencies_ms),
        "trace_file": trace_path,
    }
