"""Batched serving: amortised vs cold execution, counted.

The serving runtime's acceptance bar: a 32-job QAOA angle sweep (one
graph, fresh ``(gamma, beta)`` angles per job — structurally identical
circuits) through a shared-cache :class:`~repro.serve.BatchRunner` must
partition once and compile each part's plan structure once, with every
per-job final state matching sequential *cold* ``HierarchicalExecutor``
calls (fresh partitioner and plan cache per job — what every pre-serve
entry point did) to ``1e-10``.

What the batch path amortises, per structure instead of per job:
partitioning (the dagP multilevel pipeline), fusion grouping, fused
gather tables, and the ``O(2^n)`` gather index tables.  Only the fused
matrices (``2^k``-sized products) are rebuilt per job, because only they
depend on the angles.  What that buys in seconds is the perf harness's
``sweep_qaoa14`` workload (``BENCHMARK.json``), not this script.

Also runnable without pytest (shared ``repro.bench`` flags)::

    python benchmarks/bench_batch.py --set qubits=12 --set jobs=8
"""

from __future__ import annotations

import numpy as np

from repro import bench

from repro.circuits.generators import qaoa
from repro.partition import get_partitioner
from repro.serve import BatchRunner, SimJob, default_limit
from repro.sv import HierarchicalExecutor, zero_state

NUM_JOBS = 32
QUBITS = 12
ROUNDS = 3


def make_sweep_jobs(num_jobs=NUM_JOBS, qubits=QUBITS, rounds=ROUNDS):
    """``num_jobs`` QAOA jobs on one graph with per-job angles."""
    jobs = []
    for k in range(num_jobs):
        gammas = [0.20 + 0.01 * k + 0.1 * r for r in range(rounds)]
        betas = [0.80 - 0.01 * k - 0.05 * r for r in range(rounds)]
        qc = qaoa(qubits, p=rounds, gammas=gammas, betas=betas)
        jobs.append(SimJob(f"sweep-{k}", qc, want_state=True))
    return jobs


def run_cold_sequential(jobs):
    """The pre-serve baseline: per job, partition from scratch and
    execute with a fresh (empty) plan cache."""
    states = []
    for job in jobs:
        n = job.circuit.num_qubits
        partition = get_partitioner("dagP").partition(
            job.circuit, default_limit(n)
        )
        executor = HierarchicalExecutor(fuse=True)
        state = zero_state(n)
        executor.run(job.circuit, partition, state)
        states.append(state)
    return states


def run_batched(jobs):
    """The serving path: one runner, shared caches, grouped schedule."""
    return BatchRunner(schedule="grouped").run(jobs)


def run_comparison(num_jobs=NUM_JOBS, qubits=QUBITS, rounds=ROUNDS):
    jobs = make_sweep_jobs(num_jobs, qubits, rounds)
    cold_states = run_cold_sequential(jobs)
    report = run_batched(jobs)
    max_err = max(
        float(np.max(np.abs(res.state - cold)))
        for res, cold in zip(report.results, cold_states)
    )
    return {
        "num_jobs": num_jobs,
        "qubits": qubits,
        "gates": len(jobs[0].circuit),
        "max_err": max_err,
        "stats": report.stats,
    }


def render(res) -> str:
    s = res["stats"]
    return "\n".join(
        [
            f"Batched serving — qaoa angle sweep "
            f"({res['num_jobs']} jobs, {res['qubits']} qubits, "
            f"{res['gates']} gates each)",
            f"{'cold sequential':>18}: partition + compile per job",
            f"{'batched (shared)':>18}: "
            f"{s.partitions_computed} partition, "
            f"{s.structures_compiled} plan structures, "
            f"{s.plans_bound} matrix binds",
            f"max |batch - cold| = {res['max_err']:.3e}",
        ]
    )


# -- pytest entry points -----------------------------------------------------


def test_batch_qaoa_sweep_partitions_once(save_result):
    """Acceptance: the 32-job sweep partitions once and its states equal
    the cold path's."""
    res = run_comparison()
    assert res["max_err"] < 1e-10, (
        f"batched states diverged from cold path: {res['max_err']:.3e}"
    )
    s = res["stats"]
    assert s.partitions_computed == 1 and s.partition_hits == NUM_JOBS - 1
    save_result("bench_batch_qaoa_sweep", render(res))


def test_batch_single_structure_compiles_once(save_result):
    """The 32-job batch compiles each part's plan structure exactly once."""
    jobs = make_sweep_jobs(qubits=10, rounds=1)
    report = run_batched(jobs)
    s = report.stats
    parts = report.results[0].num_parts
    assert s.structures_compiled == parts
    assert s.structure_hits == (len(jobs) - 1) * parts
    save_result("bench_batch_cache_accounting", s.summary())


# -- repro.bench registration and standalone entry point ---------------------


@bench.register(
    "batch",
    tags=("smoke", "accept"),
    params={"jobs": NUM_JOBS, "qubits": QUBITS, "rounds": ROUNDS},
    smoke={"jobs": 8, "qubits": 10, "rounds": 2},
)
def run_bench(params):
    """Batched serving vs cold sequential execution on a QAOA sweep.

    Cache accounting and state agreement are the gated metrics.
    """
    res = run_comparison(params["jobs"], params["qubits"], params["rounds"])
    stats = res["stats"]
    states_match = res["max_err"] < 1e-10
    return bench.payload(
        metrics={
            "jobs": res["num_jobs"],
            "gates_per_job": res["gates"],
            "partitions_computed": stats.partitions_computed,
            "partition_hits": stats.partition_hits,
            "structures_compiled": stats.structures_compiled,
            "plans_bound": stats.plans_bound,
            "states_match": states_match,
        },
        info={"max_err": res["max_err"]},
        ok=states_match,
    )


def main(argv=None) -> int:
    return bench.script_main("batch", argv)


if __name__ == "__main__":
    raise SystemExit(main())
