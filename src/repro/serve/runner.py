"""The batched multi-circuit execution runtime.

:class:`BatchRunner` drains a queue of :class:`~repro.serve.jobs.SimJob`
through the hierarchical pipeline with every reusable artefact shared:

* one **partition cache** keyed by structural fingerprint — a QAOA
  angle sweep partitions once, not once per job;
* one **plan cache** (:class:`~repro.sv.fusion.PlanCache`) that holds
  only structures, keyed by part content — fusion groupings and gather
  tables are compiled once per distinct part; the fused matrices are
  bound per group for its sweep and dropped with it, since every job
  runs once;
* one **execution backend** — serial or threaded
  (:mod:`repro.sv.backend`), exactly as for single-circuit runs.

Dispatch is by **group**: :func:`order_jobs` fixes the order, and
consecutive jobs of one structure in that order, up to
:func:`~repro.sv.backend.stack_limit` of them, run as one stack — one
partition lookup, one bind pass per part for all of them, one stacked
sweep per gathered part.  ``workers > 1`` additionally runs groups
concurrently on a thread pool (safe: the plan cache is lock-protected,
partitioning is serialised per structure, and each job owns its state
vector).  Results always come back in submission order and are
bit-identical for any worker count or grouping: a stacked job
is counted and computed exactly as it would be alone.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuits.circuit import QuantumCircuit
from ..config import RunOptions, check_count
from ..partition import get_partitioner
from ..partition.base import Partition
from ..sv.fusion import CacheCounters, OnceCache, PlanCache
from ..sv.hier import ExecutionTrace, HierarchicalExecutor
from ..sv.backend import stack_limit
from ..sv.pauli import expectations
from ..sv.simulator import sample_counts
from ..sv.stabilizer import StabilizerState
from .jobs import JobResult, SimJob, fingerprints
from .jobs import structural_fingerprint

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


def order_jobs(structurals: Sequence[str]) -> List[int]:
    """Dispatch order over structural fingerprints: structurally
    identical jobs clustered (groups in first-seen order, jobs keeping
    their relative order inside a group).

    The order never changes results — every output is seeded and every
    plan is keyed by content — only cache behaviour: each structure's
    partition and compiled plans are resident when its jobs run, which
    maximises hits in a *bounded* plan cache when many distinct
    structures interleave, and a structure's jobs are consecutive, so
    they stack.

    >>> order_jobs(["a", "b", "a", "c", "b"])
    [0, 2, 1, 4, 3]
    """
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
    reused one; a structure is keyed by its part's content, so parts
    with the same gates share one, within a circuit and across jobs.
    A ``J``-job single-structure batch over a ``P``-part partition
    therefore shows ``partitions_computed=1`` and at most ``P``
    ``structures_compiled`` (one per distinct part content) however
    large ``J`` grows — that amortisation is the runtime's reason to
    exist.  Every dense part binds its plan for its sweep (the runner
    keeps structures, never bound plans): ``plans_bound`` equals
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
    errored: int = 0
    seconds: float = 0.0
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
            "structure_hits", "plans_bound", "parts_routed_dense",
            "parts_routed_stabilizer",
        ):
            setattr(self, name, getattr(self, name) + getattr(inner, name))

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"{self.num_jobs} jobs ({self.unique_structures} structures) "
            f"in {self.seconds:.3f}s: "
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
        The :class:`~repro.config.RunOptions` every job runs with: the
        runner partitions by ``strategy`` / ``limit`` (``None`` derives
        :func:`default_limit` per circuit) and hands the object whole to
        its ``HierarchicalExecutor``.  ``None`` means the defaults.
    schedule:
        ``"grouped"``, the only value (kept for callers that pass it;
        the order is :func:`order_jobs`).
    workers:
        Concurrent groups. ``1`` (default) dispatches sequentially in
        that order; ``> 1`` uses a thread pool (results and caches
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
    >>> report = BatchRunner().run(jobs)
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
        if schedule != "grouped":
            raise ValueError(f"schedule must be 'grouped', got {schedule!r}")
        self.options = RunOptions.fold(options, overrides, "BatchRunner")
        # Partitioners hold configuration only: one serves every call.
        self._partitioner = get_partitioner(self.options.strategy)
        check_count("workers", workers)
        self.workers = workers
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self._executor = HierarchicalExecutor(
            self.options, plan_cache=self.plan_cache
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
        already holds for each job.  This is :meth:`_execute_group` for
        one circuit; its exception, if any, is raised.

        >>> from repro.circuits.generators import qft
        >>> state, partition, cached = BatchRunner(limit=4).execute(qft(6))
        >>> state.shape, partition.limit, cached
        ((64,), 4, False)
        """
        if structural is None:
            structural = structural_fingerprint(circuit)
        (state,), partition, cached = self._execute_group(
            [circuit], [trace], structural, counters
        )
        if isinstance(state, Exception):
            raise state
        return state, partition, cached

    def _execute_group(
        self,
        circuits: Sequence[QuantumCircuit],
        traces: Sequence[Optional[ExecutionTrace]],
        structural: str,
        counters: Optional[_RunCounters],
    ):
        """The pipeline for ``K`` circuits of one structure:
        ``(states, partition, partition_was_cached)``, where ``states[k]``
        is circuit ``k``'s final state or the exception that stopped it.

        One partition lookup serves the group; the other circuits count
        as the hits they would have been alone.  Each circuit gets its
        own initial state, and the executor runs them together
        (:meth:`~repro.sv.hier.HierarchicalExecutor.run_group`).  A
        failed partition raises, and nothing was counted: it is the
        group's one lookup, and it would fail the same way for every
        circuit alone.  A sweep that raises fails the circuits it was
        sweeping.
        """
        partition, cached = self.partition(circuits[0], structural, counters)
        if counters is not None and len(circuits) > 1:
            with counters.lock:
                counters.stats.partition_hits += len(circuits) - 1
        states: List = []
        for circuit in circuits:
            try:
                states.append(self._executor.initial_state(circuit))
            except Exception as exc:
                states.append(exc)
        live = [
            k for k, s in enumerate(states) if not isinstance(s, Exception)
        ]
        if live:
            try:
                finals = self._executor.run_group(
                    [circuits[k] for k in live],
                    partition,
                    [states[k] for k in live],
                    [traces[k] for k in live],
                    cache_counters=(
                        None if counters is None else counters.cache
                    ),
                )
            except Exception as exc:  # a sweep failed: its stack with it
                finals = [exc] * len(live)
            for k, final in zip(live, finals):
                states[k] = final
        return states, partition, cached

    def _run_group(
        self,
        members: Sequence[Tuple[SimJob, str, str]],
        counters: _RunCounters,
    ) -> List[JobResult]:
        """Run ``(job, fingerprint, structural)`` members of one structure
        as one stack; one result per member, failures as errored results.

        One bad job (malformed observable, partitioner failure, ...)
        must not discard the rest of its batch: the daemon serves many
        tenants through one runner, and a partial batch with per-job
        ``error`` fields is the contract both the batch CLI and the
        serving daemon rely on.  So every member's state, outputs and
        errors are its own, except a failed partition: the lookup is
        keyed by structure, so it fails the same way for every member,
        and each gets that one error (nothing was counted).  A member
        that fails later errors alone.  Only :class:`Exception` is
        captured — ``KeyboardInterrupt`` / ``SystemExit`` still
        propagate.  Each member's ``seconds`` is its share of the
        group's execution (the stack's time over ``K``, as
        ``ExecutionTrace.part_seconds`` shares a part's) plus its own
        outputs, so the members' seconds add up to the group's time,
        not more.
        """
        t0 = time.perf_counter()
        job, fingerprint, structural = members[0]
        try:
            if job.cut is not None:  # always a group of one
                return [self._run_cut(job, fingerprint, counters)]
            traces = [ExecutionTrace() for _ in members]
            states, partition, cached = self._execute_group(
                [job.circuit for job, _, _ in members],
                traces,
                structural,
                counters,
            )
        except Exception as exc:
            share = (time.perf_counter() - t0) / len(members)
            start = time.perf_counter() - share
            return [
                self._failed(job, fingerprint, start, exc)
                for job, fingerprint, _ in members
            ]
        share = (time.perf_counter() - t0) / len(members)
        results = []
        for k, ((job, fingerprint, _), state, trace) in enumerate(
            zip(members, states, traces)
        ):
            # Backdated by the share: ``seconds`` = share + own outputs.
            start = time.perf_counter() - share
            if isinstance(state, Exception):
                results.append(self._failed(job, fingerprint, start, state))
                continue
            try:
                results.append(
                    self._run_one(
                        job, fingerprint, state, trace, partition,
                        cached or k > 0, counters, start,
                    )
                )
            except Exception as exc:
                results.append(self._failed(job, fingerprint, start, exc))
        return results

    def _run_one(
        self,
        job: SimJob,
        fingerprint: str,
        state,
        trace: ExecutionTrace,
        partition: Partition,
        cached: bool,
        counters: _RunCounters,
        t0: float,
    ) -> JobResult:
        """One executed job's routing counts and outputs."""
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

    @staticmethod
    def _failed(
        job: SimJob, fingerprint: str, t0: float, exc: Exception
    ) -> JobResult:
        """The errored result of ``job``."""
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
            BatchStats(num_jobs=len(jobs))
        )
        # Identity fingerprints name the result (distinct per boundary
        # variant); structural fingerprints key the partition cache and
        # the dispatch grouping (variants share them by design).  One hash
        # pass per job yields both.
        keys = [fingerprints(j.circuit) for j in jobs]
        structurals = [structural for _, structural in keys]
        order = order_jobs(structurals)
        # Consecutive jobs of one structure in dispatch order run as one
        # stack, up to the width's stack limit; a cut job runs alone.
        groups: List[List[int]] = []
        for i in order:
            last = groups[-1] if groups else None
            if (
                last is not None
                and jobs[i].cut is None
                and jobs[last[0]].cut is None
                and structurals[i] == structurals[last[0]]
                and len(last) < stack_limit(jobs[i].circuit.num_qubits)
            ):
                last.append(i)
            else:
                groups.append([i])
        results: List[Optional[JobResult]] = [None] * len(jobs)

        def dispatch(group: List[int]) -> None:
            members = [(jobs[i], *keys[i]) for i in group]
            for i, result in zip(group, self._run_group(members, counters)):
                results[i] = result

        if self.workers == 1 or len(groups) <= 1:
            for group in groups:
                dispatch(group)
        else:
            with ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-batch"
            ) as pool:
                for future in [pool.submit(dispatch, g) for g in groups]:
                    future.result()
        stats = counters.stats
        stats.unique_structures = len(set(structurals))
        stats.structures_compiled += counters.cache.structure_misses
        stats.structure_hits += counters.cache.structure_hits
        stats.plans_bound += counters.cache.misses
        stats.errored = sum(1 for r in results if r is not None and r.error)
        stats.seconds = time.perf_counter() - t0
        return BatchReport(results=results, stats=stats)  # type: ignore[arg-type]
