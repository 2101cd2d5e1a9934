"""The batched multi-circuit execution runtime.

:class:`BatchRunner` drains a queue of :class:`~repro.serve.jobs.SimJob`
through the hierarchical pipeline with every reusable artefact shared:

* one **partition cache** keyed by structural fingerprint — a QAOA
  angle sweep partitions once, not once per job;
* one **plan cache** (:class:`~repro.sv.fusion.PlanCache`) routed
  through its structural layer — fusion groupings and gather tables are
  compiled once per structure, only the fused matrices are rebuilt per
  job (``HierarchicalExecutor.run(structural_key=...)``);
* one **execution backend** — serial or threaded
  (:mod:`repro.sv.backend`), exactly as for single-circuit runs.

Dispatch order comes from the schedule (:func:`order_jobs`);
``workers > 1`` additionally runs jobs concurrently on a thread pool
(safe: the plan cache is lock-protected, partitioning is serialised per
structure, and each job owns its state vector).  Results always come
back in submission order and are bit-identical for any schedule or
worker count.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuits.circuit import QuantumCircuit
from ..config import RunOptions
from ..partition import get_partitioner
from ..partition.base import Partition
from ..sv.fusion import CacheCounters, OnceCache, PlanCache
from ..sv.hier import ExecutionTrace, HierarchicalExecutor
from ..sv.pauli import expectations
from ..sv.simulator import sample_counts
from ..sv.stabilizer import StabilizerState
from .jobs import JobResult, SimJob, fingerprints, structural_fingerprint

__all__ = [
    "BatchRunner",
    "BatchReport",
    "BatchStats",
    "default_limit",
    "order_jobs",
]


def default_limit(num_qubits: int, cap: Optional[int] = None) -> int:
    """The pipeline-wide default working-set limit: ``max(3, n - 3)``.

    Three qubits outside every part keeps the gather matrix at ``>= 8``
    rows so row-block backends have work to split.  ``cap`` is the
    shard width of a distributed run: a part must fit one rank's shard,
    whatever the width default says.

    >>> default_limit(16)
    13
    >>> default_limit(4)
    3
    >>> default_limit(10, cap=6)
    6
    """
    limit = max(3, num_qubits - 3)
    return limit if cap is None else min(limit, cap)


def order_jobs(schedule: str, structurals: Sequence[str]) -> List[int]:
    """Dispatch order for ``schedule`` over structural fingerprints.

    Scheduling never changes results — every output is seeded and every
    plan is keyed by content — it only changes cache behaviour.
    ``"fifo"`` preserves submission order.  ``"grouped"`` clusters
    structurally identical jobs (groups in first-seen order, jobs keeping
    their relative order inside a group) so each structure's partition
    and compiled plans are resident when its jobs run, which is what
    maximises hits in a *bounded* plan cache when many distinct
    structures interleave.

    >>> order_jobs("fifo", ["a", "b", "a"])
    [0, 1, 2]
    >>> order_jobs("grouped", ["a", "b", "a", "c", "b"])
    [0, 2, 1, 4, 3]
    """
    if schedule == "fifo":
        return list(range(len(structurals)))
    if schedule != "grouped":
        raise ValueError(
            f"unknown schedule {schedule!r}; choose from ['fifo', 'grouped']"
        )
    groups: Dict[str, List[int]] = {}
    for i, structural in enumerate(structurals):
        groups.setdefault(structural, []).append(i)
    return [i for members in groups.values() for i in members]


@dataclass
class BatchStats:
    """Cache and throughput accounting for one :meth:`BatchRunner.run`.

    ``partitions_computed`` + ``partition_hits`` equals the circuits
    the batch partitioned: one per plain job and, per cut job that
    succeeded, its cut search plus one per fragment variant (a cut job
    that fails counts under ``errored`` only).
    ``structures_compiled`` counts part-plan structures built (fusion
    grouping + gather tables) and ``structure_hits`` the parts that
    reused one.  A ``J``-job single-structure batch over a ``P``-part
    partition therefore shows ``partitions_computed=1`` and
    ``structures_compiled=P`` however large ``J`` grows — that
    amortisation is the runtime's reason to exist.  Every dense part
    makes one plan lookup: ``plan_hits`` + ``plans_bound`` equals
    ``parts_routed_dense`` for a batch without errors.

    These are the runner's only counts; a long-lived reader (the serve
    daemon's ``/metrics``) sums finished batches with :meth:`absorb`.

    >>> stats = BatchStats(num_jobs=2, unique_structures=1,
    ...                    partitions_computed=1, partition_hits=1)
    >>> "2 jobs (1 structures)" in stats.summary()
    True
    """

    num_jobs: int = 0
    unique_structures: int = 0
    partitions_computed: int = 0
    partition_hits: int = 0
    structures_compiled: int = 0
    structure_hits: int = 0
    plans_bound: int = 0
    plan_hits: int = 0
    errored: int = 0
    seconds: float = 0.0
    schedule: str = "fifo"
    parts_routed_dense: int = 0
    parts_routed_stabilizer: int = 0

    def absorb(self, inner: "BatchStats") -> None:
        """Add the cache and routing counts of another batch: one that
        ran inside this one (a cut job's variant batch), or a finished
        one into a running total.

        >>> outer = BatchStats(num_jobs=1, partition_hits=1)
        >>> outer.absorb(BatchStats(num_jobs=5, partitions_computed=2))
        >>> outer.num_jobs, outer.partitions_computed, outer.partition_hits
        (1, 2, 1)
        """
        for name in (
            "partitions_computed", "partition_hits", "structures_compiled",
            "structure_hits", "plans_bound", "plan_hits",
            "parts_routed_dense", "parts_routed_stabilizer",
        ):
            setattr(self, name, getattr(self, name) + getattr(inner, name))

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"{self.num_jobs} jobs ({self.unique_structures} structures) "
            f"in {self.seconds:.3f}s [{self.schedule}]: "
            f"partitions {self.partitions_computed} computed / "
            f"{self.partition_hits} cached, "
            f"plan structures {self.structures_compiled} compiled / "
            f"{self.structure_hits} reused, "
            f"{self.plans_bound} matrix binds"
            + (
                f", parts routed {self.parts_routed_dense} dense / "
                f"{self.parts_routed_stabilizer} stabilizer"
                if self.parts_routed_stabilizer
                else ""
            )
            + (f", {self.errored} errored" if self.errored else "")
        )


@dataclass
class BatchReport:
    """Results (submission order) plus aggregate :class:`BatchStats`.

    >>> report = BatchReport(results=[], stats=BatchStats())
    >>> len(report)
    0
    """

    results: List[JobResult]
    stats: BatchStats

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)


class _RunCounters:
    """Accounting local to one :meth:`BatchRunner.run` call.

    A runner may serve several concurrent ``run()`` calls (the daemon's
    worker threads share one runner), so each run owns one of these and
    every event of the run is counted here, once.  Partition, routing
    and cut-job events land on ``stats`` under ``lock``; plan-cache
    events land in ``cache`` under the plan cache's own lock and are
    folded into ``stats`` when the run ends.
    """

    __slots__ = ("lock", "stats", "cache")

    def __init__(self, stats: BatchStats) -> None:
        self.lock = threading.Lock()
        self.stats = stats
        self.cache = CacheCounters()


class BatchRunner:
    """Runs many simulation jobs through shared partition/plan caches.

    Parameters
    ----------
    options:
        The :class:`~repro.config.RunOptions` every job runs with
        (partitioner, working-set limit — ``None`` derives
        :func:`default_limit` per circuit width — fusion, backend,
        method).  ``None`` means the defaults.
    schedule:
        Dispatch order policy (``"fifo"`` or ``"grouped"``; see
        :func:`order_jobs`).
    workers:
        Concurrent jobs. ``1`` (default) dispatches sequentially in
        schedule order; ``> 1`` uses a thread pool (results and caches
        stay deterministic — only timing changes).
    plan_cache:
        Optional shared :class:`~repro.sv.fusion.PlanCache`; pass one to
        share compiled structures with other runners or executors.
    **overrides:
        Any ``RunOptions`` field by keyword (``strategy="DFS"``,
        ``backend="threaded"``, ...), folded into ``options``.

    >>> from repro.circuits.generators import qaoa
    >>> from repro.serve import SimJob
    >>> jobs = [SimJob(f"j{k}", qaoa(6, p=1, gammas=[0.1 * k], betas=[0.2]),
    ...                want_state=True) for k in range(4)]
    >>> report = BatchRunner(schedule="grouped").run(jobs)
    >>> report.stats.partitions_computed, report.stats.partition_hits
    (1, 3)
    >>> len(report.results[0].state)
    64
    """

    def __init__(
        self,
        options: Optional[RunOptions] = None,
        *,
        schedule: str = "grouped",
        workers: int = 1,
        plan_cache: Optional[PlanCache] = None,
        **overrides,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        order_jobs(schedule, [])  # validate the schedule name early
        self.options = replace(options or RunOptions(), **overrides)
        # Partitioners hold configuration only: one serves every call.
        self._partitioner = get_partitioner(self.options.strategy)
        self.schedule = schedule
        self.workers = int(workers)
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self._executor = HierarchicalExecutor(
            plan_cache=self.plan_cache, **self.options.executor_kwargs()
        )
        self._partitions = OnceCache(self.plan_cache.max_entries)

    @property
    def method(self) -> str:
        """The resolved engine-routing policy this runner executes with."""
        return self._executor.method

    @property
    def backend(self):
        """The live :class:`~repro.sv.backend.ExecutionBackend`."""
        return self._executor.backend

    @property
    def resolved(self) -> RunOptions:
        """The options as executed: the live backend's name and pool
        width (``None`` if it has no pool) and the resolved method,
        whatever mix of arguments and environment they came from.

        >>> BatchRunner(backend="serial").resolved.method
        'auto'
        """
        return replace(
            self.options,
            backend=self.backend.name,
            threads=getattr(self.backend, "threads", None),
            method=self._executor.method,
        )

    # -- partition cache ---------------------------------------------------

    def partition(
        self,
        circuit: QuantumCircuit,
        structural: Optional[str] = None,
        counters: Optional[_RunCounters] = None,
        *,
        limit: Optional[int] = None,
    ) -> Tuple[Partition, bool]:
        """Partition from cache; ``(partition, was_cached)``.

        Partitioning with the runner's one partitioner is keyed by
        ``(structural, limit)`` — partitioners only consult gate
        operands and order, never parameters, so one partition serves
        every circuit that shares a structure (``structural`` is the
        circuit's structural fingerprint, hashed here when not given).
        The cache is a :class:`~repro.sv.fusion.OnceCache` bounded like
        the plan cache:
        each cached structure is partitioned exactly once even under
        concurrent workers, *different* structures partition
        concurrently, and an evicted structure is partitioned, and
        counted, again.

        An explicit ``limit`` wins (the cutter searches at its
        ``max_width``), else ``options.limit`` whenever set — only
        ``None`` derives the per-circuit :func:`default_limit` (an
        explicit small limit such as ``1`` is a real configuration, not
        "unset").

        >>> from repro.circuits.generators import qft
        >>> runner = BatchRunner(limit=4)
        >>> runner.partition(qft(6))[0].limit, runner.partition(qft(6))[1]
        (4, True)
        >>> runner.partition(qft(6), limit=3)[0].limit
        3
        """
        if structural is None:
            structural = structural_fingerprint(circuit)
        if limit is None:
            limit = self.options.limit
        if limit is None:
            limit = default_limit(circuit.num_qubits)
        partition, cached = self._partitions.get(
            (structural, limit),
            lambda: self._partitioner.partition(circuit, limit),
        )
        if counters is not None:
            with counters.lock:
                if cached:
                    counters.stats.partition_hits += 1
                else:
                    counters.stats.partitions_computed += 1
        return partition, cached

    # -- execution ---------------------------------------------------------

    def execute(
        self,
        circuit: QuantumCircuit,
        trace: Optional[ExecutionTrace] = None,
        *,
        structural: Optional[str] = None,
        counters: Optional[_RunCounters] = None,
    ):
        """The one pipeline from a circuit to its final state:
        ``(state, partition, partition_was_cached)``.

        Partitions through the cache, builds the initial state the
        resolved method calls for and runs every part on the shared plan
        cache and backend.  ``state`` is a dense array or, when every
        part ran on the tableau (an all-Clifford circuit under ``auto``
        or ``stabilizer``), a :class:`~repro.sv.stabilizer.StabilizerState`.
        ``structural`` (the circuit's structural fingerprint, hashed
        here when not given) and ``counters`` are what :meth:`run`
        already holds for each job.

        >>> from repro.circuits.generators import qft
        >>> state, partition, cached = BatchRunner(limit=4).execute(qft(6))
        >>> state.shape, partition.limit, cached
        ((64,), 4, False)
        """
        if structural is None:
            structural = structural_fingerprint(circuit)
        partition, cached = self.partition(circuit, structural, counters)
        state = self._executor.run(
            circuit,
            partition,
            self._executor.initial_state(circuit),
            trace,
            structural_key=structural,
            cache_counters=None if counters is None else counters.cache,
        )
        return state, partition, cached

    def _run_one(
        self,
        job: SimJob,
        fingerprint: str,
        structural: str,
        counters: _RunCounters,
    ) -> JobResult:
        if job.cut is not None:
            return self._run_cut(job, fingerprint, counters)
        t0 = time.perf_counter()
        trace = ExecutionTrace()
        state, partition, cached = self.execute(
            job.circuit, trace, structural=structural, counters=counters
        )
        with counters.lock:
            counters.stats.parts_routed_dense += trace.engine_parts.get(
                "dense", 0
            )
            counters.stats.parts_routed_stabilizer += trace.engine_parts.get(
                "stabilizer", 0
            )
        if isinstance(state, StabilizerState) and (
            job.want_state or job.shots or job.observables
        ):
            # Job outputs are amplitude-level; materialise the tableau
            # (refuses above 30 qubits — isolated per job like any error).
            state = state.to_dense()
        counts = None
        if job.shots:
            counts = sample_counts(
                state, job.shots, 0 if job.seed is None else job.seed
            )
        values = None
        if job.observables:
            values = expectations(
                state, job.observables, job.circuit.num_qubits
            )
        return JobResult(
            job_id=job.job_id,
            fingerprint=fingerprint,
            num_qubits=job.circuit.num_qubits,
            num_gates=len(job.circuit),
            num_parts=partition.num_parts,
            seconds=time.perf_counter() - t0,
            partition_cached=cached,
            state=state if job.want_state else None,
            counts=counts,
            expectations=values,
        )

    def _run_cut(
        self, job: SimJob, fingerprint: str, counters: _RunCounters
    ) -> JobResult:
        """Route a cut-spec job through the wire-cutting pipeline.

        The cut search and the fragment-variant batch run on this
        runner like any other work — same options (an explicit ``limit``
        included), caches and backend — and what they cost is added to
        the enclosing run's statistics.  ``num_parts`` on the result
        counts *fragments*; ``partition_cached`` says no partition had
        to be computed, for the search or for any fragment.
        """
        from ..cut import cut_run

        t0 = time.perf_counter()
        spec = job.cut
        result = cut_run(
            job.circuit,
            runner=self,
            max_width=spec["max_width"],
            max_cuts=spec.get("cuts"),
            want_state=job.want_state,
            shots=job.shots,
            seed=0 if job.seed is None else job.seed,
            observables=job.observables,
        )
        with counters.lock:
            counters.stats.absorb(result.stats)
        return JobResult(
            job_id=job.job_id,
            fingerprint=fingerprint,
            num_qubits=job.circuit.num_qubits,
            num_gates=len(job.circuit),
            num_parts=result.plan.num_fragments,
            seconds=time.perf_counter() - t0,
            partition_cached=result.stats.partitions_computed == 0,
            state=result.state,
            counts=result.counts,
            expectations=result.expectations,
        )

    def _run_one_safe(
        self,
        job: SimJob,
        fingerprint: str,
        structural: str,
        counters: _RunCounters,
    ) -> JobResult:
        """Run one job, converting any failure into an errored result.

        One bad job (malformed observable, partitioner failure, ...)
        must not discard the rest of its batch: the daemon serves many
        tenants through one runner, and a partial batch with per-job
        ``error`` fields is the contract both the batch CLI and the
        serving daemon rely on.  Only :class:`Exception` is captured —
        ``KeyboardInterrupt`` / ``SystemExit`` still propagate.
        """
        t0 = time.perf_counter()
        try:
            return self._run_one(job, fingerprint, structural, counters)
        except Exception as exc:
            return JobResult(
                job_id=job.job_id,
                fingerprint=fingerprint,
                num_qubits=job.circuit.num_qubits,
                num_gates=len(job.circuit),
                num_parts=0,
                seconds=time.perf_counter() - t0,
                partition_cached=False,
                error=f"{type(exc).__name__}: {exc}",
            )

    def run(self, jobs: Sequence[SimJob]) -> BatchReport:
        """Execute every job; results return in **submission** order.

        Failures are isolated per job: a raising job yields a
        :class:`~repro.serve.jobs.JobResult` with its ``error`` field
        set while every other job's result is returned normally.
        Statistics are accounted per run — concurrent ``run()`` calls
        on one shared runner each report exactly their own cache
        traffic, and the runner keeps no totals of its own.
        """
        t0 = time.perf_counter()
        counters = _RunCounters(
            BatchStats(num_jobs=len(jobs), schedule=self.schedule)
        )
        # Identity fingerprints name the result (distinct per boundary
        # variant); structural fingerprints key every cache and the
        # schedule grouping (variants share them by design).  One hash
        # pass per job yields both.
        keys = [fingerprints(j.circuit) for j in jobs]
        structurals = [structural for _, structural in keys]
        order = order_jobs(self.schedule, structurals)
        results: List[Optional[JobResult]] = [None] * len(jobs)
        if self.workers == 1 or len(jobs) <= 1:
            for i in order:
                results[i] = self._run_one_safe(jobs[i], *keys[i], counters)
        else:
            with ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-batch"
            ) as pool:
                futures = [
                    (
                        i,
                        pool.submit(
                            self._run_one_safe, jobs[i], *keys[i], counters
                        ),
                    )
                    for i in order
                ]
                for i, f in futures:
                    results[i] = f.result()
        stats = counters.stats
        stats.unique_structures = len(set(structurals))
        stats.structures_compiled += counters.cache.structure_misses
        stats.structure_hits += counters.cache.structure_hits
        stats.plans_bound += counters.cache.misses
        stats.plan_hits += counters.cache.hits
        stats.errored = sum(1 for r in results if r is not None and r.error)
        stats.seconds = time.perf_counter() - t0
        return BatchReport(results=results, stats=stats)  # type: ignore[arg-type]
