"""Stacked jobs are jobs alone, byte for byte.

``BatchRunner.run`` runs consecutive same-structure jobs as one stack:
one bind pass builds every job's fused matrices
(``PartPlanStructure.bind``), and each part sweeps the stack's gathered
blocks together (``backend.run_part_group``).  Nothing a job sees may
move: each fused matrix is held to ``conftest.fuse_reference`` (the
one-job bind as first written), and every state, count, expectation and
``BatchStats`` field to the same jobs run each in a batch of its own.
"""

from __future__ import annotations

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sv.backend as backend_module
import repro.sv.kernels as kernels
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import make_gate
from repro.circuits.generators import qaoa
from repro.partition import get_partitioner
from repro.serve import BatchRunner, SimJob
from repro.serve.jobs import structural_fingerprint
from repro.sv.backend import SerialBackend, ThreadedBackend, stack_limit
from repro.sv.fusion import (
    CacheCounters,
    PlanCache,
    build_part_structure,
)
from repro.sv.hier import HierarchicalExecutor
from repro.sv.kernels import split_controls

from conftest import fuse_reference, refuse_gate_matrix, same_bytes
from strategies import circuits

#: Angles a sweep draws: any; a multiple of pi/2 (Clifford for the
#: rotations, so a job's tableau routing can differ from its group's,
#: and 0 makes controls appear, so can its kernel lane); or one of two
#: values that recur across a job's gates but not across jobs.
ANGLES = st.one_of(
    st.floats(0.0, 2 * math.pi, allow_nan=False, allow_infinity=False),
    st.integers(0, 7).map(lambda j: j * math.pi / 2),
    st.sampled_from([0.3, 1.1]),
)

#: Every count of a batch; ``seconds`` is a time, not a count.
COUNTS = (
    "partitions_computed", "partition_hits", "structures_compiled",
    "structure_hits", "plans_bound", "errored",
    "parts_routed_dense", "parts_routed_stabilizer",
)


@st.composite
def sweeps(draw, max_jobs=9):
    """``K`` = 1..``max_jobs`` circuits of one random structure, each
    with its own angles."""
    template = draw(
        circuits(min_qubits=2, max_qubits=6, max_gates=24, three_qubit=True)
    )
    variants = []
    for _ in range(draw(st.integers(1, max_jobs))):
        qc = QuantumCircuit(template.num_qubits)
        for g in template:
            qc.append(
                make_gate(g.name, g.qubits, [draw(ANGLES) for _ in g.params])
            )
        variants.append(qc)
    return variants


def as_jobs(circuits_, observables=None):
    return [
        SimJob(
            f"j{i}",
            qc,
            want_state=True,
            shots=16,
            seed=i,
            observables=observables or (
                "Z" * qc.num_qubits,
                "X" + "Y" * (qc.num_qubits - 1),
            ),
        )
        for i, qc in enumerate(circuits_)
    ]


@pytest.fixture(scope="module")
def backends():
    """By name and by whether the gather lane is forced
    (``strided_max=-1``), so every part sweeps stacked."""
    made = {}
    for gather in (False, True):
        smax = -1 if gather else None
        made["serial", gather] = SerialBackend(strided_max=smax)
        for threads in (2, 3):
            made[f"threaded[{threads}]", gather] = ThreadedBackend(
                threads, strided_max=smax
            )
    yield made
    for b in made.values():
        b.close()


def alone(jobs, **config):
    """Each job in a batch of its own on one runner: its results and the
    batches' summed counts."""
    runner = BatchRunner(**config)
    results, totals = [], dict.fromkeys(COUNTS, 0)
    for job in jobs:
        report = runner.run([job])
        results += report.results
        for name in COUNTS:
            totals[name] += getattr(report.stats, name)
    return results, totals


def assert_stacked_is_alone(jobs, **config):
    report = BatchRunner(**config).run(jobs)
    want, totals = alone(jobs, **config)
    for got, ref in zip(report.results, want):
        assert got.job_id == ref.job_id
        assert got.error == ref.error
        if ref.state is None:
            assert got.state is None
        else:
            assert same_bytes(got.state, ref.state)
        assert got.counts == ref.counts
        assert got.expectations == ref.expectations
        assert got.num_parts == ref.num_parts
        assert got.partition_cached == ref.partition_cached
    stats = report.stats
    assert {name: getattr(stats, name) for name in COUNTS} == totals
    assert stats.num_jobs == len(jobs)
    assert stats.unique_structures == len(
        {structural_fingerprint(j.circuit) for j in jobs}
    )
    assert stats.plans_bound == stats.parts_routed_dense
    return report


def assert_binds_match_reference(variants, limit, cap):
    """Each part's stacked bind, op by op, against the one-job oracle."""
    qc = variants[0]
    partition = get_partitioner("dagP").partition(qc, limit)
    for part in partition.parts:
        structure = build_part_structure(
            qc, part.gate_indices, part.qubits, max_fused_qubits=cap
        )
        gate_lists = [[v[g] for g in part.gate_indices] for v in variants]
        plans = structure.bind(gate_lists)
        for plan, gates in zip(plans, gate_lists):
            operands = {}
            for op, steps in zip(plan.ops, structure._program):
                want = fuse_reference(steps, gates, operands)
                assert same_bytes(op.matrix(), want)
                assert not op.matrix().flags.writeable


class TestStackedIsAlone:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        mixed=st.booleans(),
        workers=st.sampled_from([1, 2]),
        backend=st.sampled_from(["serial", "threaded[2]", "threaded[3]"]),
        gather=st.booleans(),
        small=st.booleans(),
        cap=st.integers(1, 5),
    )
    def test_property_stacked_batch_equals_jobs_alone(
        self, backends, data, mixed, workers, backend, gather, small, cap,
    ):
        variants = data.draw(sweeps())
        circuits_ = list(variants)
        if mixed:
            # A second structure, interleaved: groups form only from
            # consecutive jobs of one structure in dispatch order.
            other = data.draw(sweeps(max_jobs=4))
            circuits_ = data.draw(st.permutations(circuits_ + other))
        n = variants[0].num_qubits
        limit = min(n, max(3, n - 1))
        assert_binds_match_reference(variants, limit, cap)
        config = dict(
            workers=workers,
            backend=backends[backend, gather],
            limit=limit,
            max_fused_qubits=cap,
        )
        with mock.patch.object(
            kernels, "BLOCK_ELEMENTS", 16 if small else kernels.BLOCK_ELEMENTS
        ):
            assert_stacked_is_alone(as_jobs(circuits_), **config)

    def test_a_fourteen_qubit_sweep_stacks_four_at_a_time(self, monkeypatch):
        sweep = [
            qaoa(14, p=1, gammas=[0.3 + 0.1 * k], betas=[0.7])
            for k in range(9)
        ]
        assert stack_limit(14) == 4
        sizes = stack_sizes(monkeypatch, as_jobs(sweep))
        parts = len(sizes) // 3
        assert parts and sizes == [4] * 2 * parts + [1] * parts
        assert_stacked_is_alone(as_jobs(sweep))

    def test_narrow_sweeps_stack_whole(self, monkeypatch):
        sweep = [
            qaoa(6, p=2, gammas=[0.3 + 0.1 * k, 0.2], betas=[0.7, 0.1])
            for k in range(9)
        ]
        sizes = stack_sizes(monkeypatch, as_jobs(sweep), method="dense")
        assert sizes and set(sizes) == {9}
        assert_stacked_is_alone(as_jobs(sweep), method="dense")

    def test_cached_plans_rerun_in_another_order(self):
        # A rerun of the same jobs, now in reverse, binds them again (the
        # runner keeps structures, not bound plans): each job must still
        # sweep with its own matrices.
        sweep = [
            qaoa(6, p=2, gammas=[0.3 + 0.2 * k, 0.2], betas=[0.7, 0.1 * k])
            for k in range(4)
        ]
        runner = BatchRunner(method="dense")
        jobs = as_jobs(sweep)
        runner.run(jobs)
        again = runner.run(jobs[::-1])
        want, _ = alone(jobs[::-1], method="dense")
        assert again.stats.plans_bound == again.stats.parts_routed_dense
        assert again.stats.structures_compiled == 0
        for got, ref in zip(again.results, want):
            assert same_bytes(got.state, ref.state)


    def test_unkeyed_circuits_of_other_structures_sweep_apart(
        self, monkeypatch
    ):
        # Circuits of the same width and gate count but other gates
        # compile their own structures, one per part content.  Only
        # plans of one structure may share a stacked sweep.
        a = QuantumCircuit(5).h(0).cx(0, 1).ccx(0, 1, 2).ry(0.3, 3)
        a.cx(3, 4).rz(0.5, 2).ccx(2, 3, 4).h(1)
        b = QuantumCircuit(5).x(4).cx(4, 3).ccx(4, 3, 2).rx(0.7, 1)
        b.swap(1, 0).ry(0.2, 2).ccx(2, 1, 0).h(3)
        partition = get_partitioner("dagP").partition(a, 5)
        ex = HierarchicalExecutor(method="dense", backend=SerialBackend())
        structures = []
        real = backend_module._sweep_gathered

        def spy(plans, *args):
            structures.append({id(p.structure) for p in plans})
            return real(plans, *args)

        monkeypatch.setattr(backend_module, "_sweep_gathered", spy)
        group = [a, b, a]
        got = ex.run_group(
            group, partition, [ex.initial_state(qc) for qc in group]
        )
        assert structures and all(len(ids) == 1 for ids in structures)
        for qc, state in zip(group, got):
            want = HierarchicalExecutor(
                method="dense", backend=SerialBackend()
            ).run(qc, partition, ex.initial_state(qc))
            assert same_bytes(state, want)


def stack_sizes(monkeypatch, jobs, **config):
    """The job count of every stacked gather sweep of one batch."""
    sizes = []
    real = backend_module._sweep_gathered

    def spy(plans, *args):
        sizes.append(len(plans))
        return real(plans, *args)

    with monkeypatch.context() as patch:
        patch.setattr(backend_module, "_sweep_gathered", spy)
        BatchRunner(**config).run(jobs)
    return sizes


class TestLaneRule:
    @settings(max_examples=60, deadline=None)
    @given(variants=sweeps(), cap=st.integers(1, 4))
    def test_property_stacked_plans_get_their_own_lane(self, variants, cap):
        # Plans bound in one stack are classified one by one: each job
        # gets the answer split_controls gives its own matrices.
        qc = variants[0]
        structure = build_part_structure(
            qc, range(len(qc)), range(qc.num_qubits), max_fused_qubits=cap
        )
        plans = structure.bind([v.gates for v in variants])
        for smax in (-1, 0, 1, 2, 3):
            want = [
                smax >= 0
                and all(
                    len(split_controls(op.matrix(), op.qubits)[1]) <= smax
                    for op in plan.ops
                )
                for plan in plans
            ]
            for plan in plans:
                plan.lane_memo = None
            assert [
                backend_module._strided_eligible(plan, smax) for plan in plans
            ] == want
            if smax >= 0:  # remembered per plan (a disabled lane is not)
                assert [plan.lane_memo for plan in plans] == [
                    (smax, answer) for answer in want
                ]


class TestErrorsStayPerJob:
    def test_a_bad_observable_errors_only_its_job(self):
        sweep = [
            qaoa(6, p=1, gammas=[0.2 * (k + 1)], betas=[0.4])
            for k in range(4)
        ]
        jobs = as_jobs(sweep)
        jobs[2] = SimJob("bad", sweep[2], shots=16, observables=("ZZ",))
        report = assert_stacked_is_alone(jobs)
        errors = [r.error for r in report.results]
        assert errors[2].startswith("ValueError")
        assert errors[:2] + errors[3:] == [None] * 3
        assert report.stats.errored == 1

    def test_a_failed_partition_is_asked_once_for_the_group(self):
        # The lookup is keyed by structure: a group whose partition
        # fails gets that one error for every member, not one retry each.
        sweep = [
            qaoa(6, p=1, gammas=[0.1 * (k + 1)], betas=[0.2]) for k in range(4)
        ]
        runner = BatchRunner(limit=1)
        partitioner = runner._partitioner
        with mock.patch.object(
            partitioner, "partition", wraps=partitioner.partition
        ) as spy:
            report = runner.run(as_jobs(sweep))
        assert spy.call_count == 1
        errors = {r.error for r in report.results}
        assert len(errors) == 1 and errors.pop().startswith("PartitionError")
        assert report.stats.partitions_computed == 0
        assert report.stats.errored == 4
        assert_stacked_is_alone(as_jobs(sweep), limit=1)

    def test_an_unallocatable_stack_runs_its_jobs_alone(self, monkeypatch):
        n = 8
        real = backend_module._workspace
        refused = []

        def workspace(size):
            if size > 1 << n:
                refused.append(size)
                raise MemoryError(f"Unable to allocate {size} amplitudes")
            return real(size)

        monkeypatch.setattr(backend_module, "_workspace", workspace)
        sweep = [
            qaoa(n, p=2, gammas=[0.1 * k, 0.5], betas=[0.3, 0.2 * k])
            for k in range(5)
        ]
        report = assert_stacked_is_alone(as_jobs(sweep), method="dense")
        assert refused and report.stats.errored == 0

    def test_a_failed_stacked_bind_binds_each_circuit_alone(
        self, monkeypatch
    ):
        # Three circuits of one structure, one of whose parameters
        # cannot be bound: only its lookup fails.
        good = [qaoa(4, p=1, gammas=[g], betas=[0.3]) for g in (0.1, 0.2)]
        stranger = qaoa(4, p=1, gammas=[0.1], betas=[0.35])
        refused = refuse_gate_matrix(monkeypatch, "rx", (0.7,))
        cache, seen = PlanCache(), CacheCounters()
        gates = range(len(good[0]))
        a, bad, b = cache.get_or_compile_group(
            [good[0], stranger, good[1]], gates, range(4), counters=seen,
        )
        assert isinstance(bad, ValueError) and str(bad) == refused
        for plan, qc in ((a, good[0]), (b, good[1])):
            (alone_,) = build_part_structure(qc, gates, range(4)).bind(
                [qc.gates]
            )
            for got, want in zip(plan.ops, alone_.ops):
                assert same_bytes(got.matrix(), want.matrix())
        assert (seen.misses, seen.hits) == (2, 0)
        assert (seen.structure_misses, seen.structure_hits) == (1, 2)


def test_job_seconds_add_up_to_no_more_than_the_batch():
    # A stacked job is charged its share of the stack's sweep plus its
    # own outputs, so the runner's overhead (batch time minus job
    # times) cannot go negative.
    sweep = [
        qaoa(10, p=2, gammas=[0.1 * k, 0.5], betas=[0.3, 0.2])
        for k in range(8)
    ]
    report = BatchRunner(method="dense").run(as_jobs(sweep))
    assert report.stats.errored == 0
    assert sum(r.seconds for r in report.results) <= report.stats.seconds
