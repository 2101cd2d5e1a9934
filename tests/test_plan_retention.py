"""A batch keeps plan structures, not bound plans; ``run`` keeps its memo.

A ``BatchRunner`` job runs once, so every plan lookup it makes
(``HierarchicalExecutor.run_group`` → ``PlanCache.get_or_compile_group``)
binds for its sweep and leaves only the content-keyed
``PartPlanStructure`` in the cache.  ``HierarchicalExecutor.run`` and
``HiSVSimEngine.run`` are the callers that rerun one circuit object, so
they keep memoising its bound plans and a rerun binds nothing.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np

from repro.circuits.generators import qaoa, qft
from repro.dist import HiSVSimEngine
from repro.partition import get_partitioner
from repro.serve import BatchRunner, SimJob
from repro.sv.backend import stack_limit
from repro.sv.fusion import CacheCounters, PartPlanStructure
from repro.sv.hier import HierarchicalExecutor

from conftest import random_circuit


def sweep(n, count, offset=0.0, p=2):
    """``count`` jobs of one ``qaoa(n)`` structure, fresh angles each."""
    return [
        SimJob(
            f"q{n}-{offset}-{k}",
            qaoa(
                n,
                p=p,
                gammas=[0.3 + 0.1 * k + offset] * p,
                betas=[0.7 - 0.05 * k] * p,
            ),
            shots=16,
            seed=k,
        )
        for k in range(count)
    ]


def spy_binds(monkeypatch):
    """Record the number of circuits every ``PartPlanStructure.bind``
    call binds."""
    calls = []
    real = PartPlanStructure.bind

    def bind(self, gate_lists):
        calls.append(len(gate_lists))
        return real(self, gate_lists)

    monkeypatch.setattr(PartPlanStructure, "bind", bind)
    return calls


class TestBatchKeepsStructures:
    def test_a_mixed_batch_leaves_only_structures(self):
        # A stacked sweep, a lone job, a 16-qubit sweep (groups of one)
        # and a cut job: every entry left is a structure it compiled.
        assert stack_limit(16) == 1 < stack_limit(8)
        jobs = (
            sweep(8, 4)
            + [SimJob("lone", qft(6), want_state=True)]
            + sweep(16, 2, p=1)
            + [SimJob("cut", qaoa(12, p=1), cut={"max_width": 9})]
        )
        runner = BatchRunner(method="dense")
        report = runner.run(jobs)
        assert [r.error for r in report.results] == [None] * len(jobs)
        stats = report.stats
        assert stats.plans_bound == stats.parts_routed_dense > 0
        assert len(runner.plan_cache) == stats.structures_compiled > 0
        # ``execute`` is the same pipeline: it binds, and keeps nothing.
        state, _, _ = runner.execute(qft(6))
        assert np.array_equal(state, report.results[4].state)
        assert len(runner.plan_cache) == stats.structures_compiled

    def test_a_second_batch_retains_nothing(self):
        # The first batch fills the structure and partition caches and
        # the workspace; the second, of the same structure, must hand
        # back all it allocated.  Retaining its bound plans held ~3.9 MiB
        # of fused matrices here (0.24 MiB per 14-qubit job).
        runner = BatchRunner(method="dense")
        runner.run(sweep(14, 16, p=3))
        batch = sweep(14, 16, offset=0.05, p=3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = runner.run(batch)
            assert report.stats.errored == 0
            del report
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 1 << 20, retained


class TestRerunsKeepTheirMemo:
    def test_hierarchical_run_binds_nothing_again(self, monkeypatch):
        qc = qaoa(8, p=2)
        partition = get_partitioner("dagP").partition(qc, 5)
        ex = HierarchicalExecutor(method="dense")
        first = ex.run(qc, partition, ex.initial_state(qc))
        binds = spy_binds(monkeypatch)
        seen = CacheCounters()
        again = ex.run(
            qc, partition, ex.initial_state(qc), cache_counters=seen
        )
        assert (seen.misses, seen.hits) == (0, partition.num_parts)
        assert binds == []
        assert np.array_equal(first, again)

    def test_distributed_run_binds_nothing_again(self, monkeypatch):
        qc = qft(8)
        partition = get_partitioner("dagP").partition(qc, 6)
        engine = HiSVSimEngine(2)
        first, _ = engine.run(qc, partition)
        binds = spy_binds(monkeypatch)
        again, _ = engine.run(qc, partition)
        assert binds == []
        assert np.array_equal(first.to_full(), again.to_full())

    def test_a_warm_rerun_builds_no_program(self, monkeypatch):
        # A deep 12-qubit circuit run twice by one executor, as the
        # benchmark's warm pass reruns it: every part's program --
        # resident runs included, whose start orders repeat -- is the
        # structure's memo the first run filled.
        import repro.sv.fusion as fusion_module

        qc = random_circuit(12, 600, seed=21)
        partition = get_partitioner("dagP").partition(qc, 9)
        assert partition.num_parts > 3
        ex = HierarchicalExecutor()
        first = ex.run(qc, partition, ex.initial_state(qc))
        built = []
        real = fusion_module._part_program

        def program(*args):
            built.append(args[0])
            return real(*args)

        monkeypatch.setattr(fusion_module, "_part_program", program)
        again = ex.run(qc, partition, ex.initial_state(qc))
        assert built == []
        assert np.array_equal(first, again)
        ex.plan_cache.clear()  # new structures compile their programs
        ex.run(qc, partition, ex.initial_state(qc))
        assert "load" in built
