"""A resident run is its parts run alone, byte for byte.

When the block rule makes a state one block (``backend.one_block``),
``HierarchicalExecutor.run_group`` keeps it gathered across a run of
parts (``backend.ResidentBlock``): one copy in, every part's ops swept
where the last part left the block, one write-back when the run ends.
The reference is the same executor with residency switched off, so that
every part runs alone through ``run_part_group`` — per row block a
gather, a sweep and a flush.  States, every ``ExecutionTrace`` field but the
measured seconds, and every ``BatchStats`` count must not move.
"""

from __future__ import annotations

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sv.backend as backend_module
import repro.sv.hier as hier_module
import repro.sv.kernels as kernels
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import make_gate
from repro.circuits.generators import qaoa
from repro.partition import get_partitioner
from repro.serve import BatchRunner, SimJob
from repro.sv.backend import (
    ResidentBlock,
    SerialBackend,
    ThreadedBackend,
    one_block,
)
from repro.sv.hier import ExecutionTrace, HierarchicalExecutor
from repro.sv.stabilizer import StabilizerState

from conftest import refuse_gate_matrix
from strategies import circuits

#: Every count of a batch; ``seconds`` is a time, not a count.
COUNTS = (
    "partitions_computed", "partition_hits", "structures_compiled",
    "structure_hits", "plans_bound", "plan_hits", "errored",
    "parts_routed_dense", "parts_routed_stabilizer",
)

#: Angles: any, or a multiple of pi/2 (Clifford rotations, so under
#: ``auto`` a job's tableau prefix can end later than its group's).
ANGLES = st.one_of(
    st.floats(0.0, 2 * math.pi, allow_nan=False, allow_infinity=False),
    st.integers(0, 7).map(lambda j: j * math.pi / 2),
)


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint8),
        np.ascontiguousarray(b).view(np.uint8),
    )


@contextlib.contextmanager
def parts_alone():
    """Residency off: every part runs alone through ``run_part_group``."""
    with mock.patch.object(hier_module, "one_block", lambda *args: False):
        yield


@contextlib.contextmanager
def forced_strided(keys):
    """Parts whose ``(qubits, source gates)`` are in ``keys`` take the
    strided lane, whatever their ops: a run must end there."""
    real = backend_module._strided_eligible

    def eligible(plan, strided_max):
        if (plan.qubits, plan.num_source_gates) in keys:
            return True
        return real(plan, strided_max)

    with mock.patch.object(backend_module, "_strided_eligible", eligible):
        yield


@contextlib.contextmanager
def counted_loads():
    """The job count of every resident run started."""
    loads = []
    real = ResidentBlock.load

    def load(self, states):
        loads.append(len(states))
        return real(self, states)

    with mock.patch.object(ResidentBlock, "load", load):
        yield loads


def trace_fields(trace):
    fields = dict(vars(trace))
    del fields["part_seconds"]
    return fields


@st.composite
def sweeps(draw, max_jobs=4):
    """``K`` circuits of one random structure, each with its angles."""
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


@pytest.fixture(scope="module")
def backends():
    """By name and by whether the gather lane is forced
    (``strided_max=-1``), so that runs span many parts."""
    made = {}
    for gather in (False, True):
        smax = -1 if gather else None
        made["serial", gather] = SerialBackend(strided_max=smax)
        for threads in (2, 3):
            made[f"threaded[{threads}]", gather] = ThreadedBackend(
                threads, strided_max=smax
            )
    yield made
    for backend in made.values():
        backend.close()


def run_group(executor, variants, partition):
    """States (or errors) and traces of one ``run_group`` call."""
    traces = [ExecutionTrace() for _ in variants]
    starts = [executor.initial_state(qc) for qc in variants]
    outs = executor.run_group(variants, partition, starts, traces)
    return outs, traces


def assert_same_runs(got, want, n):
    (outs, traces), (ref_outs, ref_traces) = got, want
    for out, ref in zip(outs, ref_outs):
        if isinstance(ref, Exception):
            assert type(out) is type(ref) and str(out) == str(ref)
        elif isinstance(ref, StabilizerState):  # never left the tableau
            assert same_bytes(out.to_dense(), ref.to_dense())
        else:
            assert same_bytes(out, ref)
    for trace, ref in zip(traces, ref_traces):
        assert trace_fields(trace) == trace_fields(ref)
        assert trace.gather_elements == trace.gathered_parts << n


def batch(jobs, backend, **config):
    report = BatchRunner(backend=backend, **config).run(jobs)
    return report.results, {n: getattr(report.stats, n) for n in COUNTS}


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    strategy=st.sampled_from(["Nat", "DFS", "dagP"]),
    method=st.sampled_from(["auto", "dense"]),
    backend=st.sampled_from(["serial", "threaded[2]", "threaded[3]"]),
    gather=st.booleans(),
    small=st.booleans(),
)
def test_property_resident_runs_equal_parts_alone(
    backends, data, strategy, method, backend, gather, small
):
    variants = data.draw(sweeps())
    qc = variants[0]
    n = qc.num_qubits
    arity = max(len(g.qubits) for g in qc)
    limit = data.draw(st.integers(arity, n), label="limit")
    partition = get_partitioner(strategy).partition(qc, limit)
    forced = {
        (tuple(part.qubits), len(part.gate_indices))
        for part in data.draw(
            st.lists(st.sampled_from(partition.parts), max_size=2),
            label="strided parts",
        )
    }
    mapper = backends[backend, gather]
    block = 16 if small else kernels.BLOCK_ELEMENTS
    with mock.patch.object(kernels, "BLOCK_ELEMENTS", block), \
            forced_strided(forced):
        executor = HierarchicalExecutor(method=method, backend=mapper)
        with counted_loads() as loads:
            got = run_group(executor, variants, partition)
        with parts_alone():
            want = run_group(executor, variants, partition)
        assert_same_runs(got, want, n)
        # The run formed exactly where the state is one block.
        if not one_block(mapper.map_blocks, n):
            assert loads == []

        jobs = [
            SimJob(f"j{k}", v, want_state=True, shots=8, seed=k,
                   observables=("Z" * n,))
            for k, v in enumerate(variants)
        ]
        config = dict(strategy=strategy, limit=limit, method=method)
        results, counts = batch(jobs, mapper, **config)
        with parts_alone():
            ref_results, ref_counts = batch(jobs, mapper, **config)
    assert counts == ref_counts
    for result, ref in zip(results, ref_results):
        assert result.error == ref.error
        assert same_bytes(result.state, ref.state)
        assert result.counts == ref.counts
        assert result.expectations == ref.expectations


def test_serial_narrow_states_form_runs_and_threaded_splits_do_not():
    with ThreadedBackend(3) as threaded:
        assert [one_block(threaded.map_blocks, n) for n in (13, 14)] == [
            True, False,
        ]
    serial = SerialBackend()
    assert [one_block(serial.map_blocks, n) for n in (15, 16)] == [
        True, False,
    ]
    qc = qaoa(12, p=3)
    partition = get_partitioner("dagP").partition(qc, 9)
    executor = HierarchicalExecutor(method="dense", backend=serial)
    with counted_loads() as loads:
        got = run_group(executor, [qc], partition)
    with parts_alone():
        want = run_group(executor, [qc], partition)
    assert loads == [1]  # one gather and one scatter for every part
    assert partition.num_parts > 1
    assert_same_runs(got, want, 12)


def test_a_bind_failure_inside_a_run_flushes_every_job(monkeypatch):
    # Three circuits of one structure, the middle one a stranger whose
    # last gate, an rx, has an angle that cannot be bound: its lookup
    # fails at the part holding that gate, and it drops out of the
    # stack there.  The others' run restarts; the stranger's array
    # keeps the parts before, as when parts run alone.
    good = [
        qaoa(8, p=2, gammas=[0.1 * k, 0.4], betas=[0.3, 0.2 * k])
        for k in (1, 2)
    ]
    stranger = QuantumCircuit(8)
    *head, last = good[0].gates
    assert last.name == "rx"
    for g in head:
        stranger.append(g)
    stranger.append(make_gate("rx", last.qubits, (0.777,)))
    refused = refuse_gate_matrix(monkeypatch, "rx", (0.777,))
    group = [good[0], stranger, good[1]]
    partition = get_partitioner("dagP").partition(good[0], 5)
    executor = HierarchicalExecutor(method="dense", backend=SerialBackend())

    def run():
        starts = [executor.initial_state(qc) for qc in group]
        traces = [ExecutionTrace() for _ in group]
        outs = executor.run_group(group, partition, starts, traces)
        return outs, starts, traces

    with counted_loads() as loads:
        outs, starts, traces = run()
    with parts_alone():
        ref_outs, ref_starts, ref_traces = run()
    assert isinstance(outs[1], ValueError) and str(outs[1]) == refused
    assert loads[0] == 3 and 2 in loads  # the run restarted without it
    assert str(outs[1]) == str(ref_outs[1])
    for k in (0, 2):
        assert same_bytes(outs[k], ref_outs[k])
    for start, ref in zip(starts, ref_starts):
        assert same_bytes(start, ref)
    for trace, ref in zip(traces, ref_traces):
        assert trace_fields(trace) == trace_fields(ref)


def test_an_unallocatable_stacked_workspace_runs_parts_alone(monkeypatch):
    # The stacked resident block cannot be had: each part then runs as
    # if nothing were resident, which sweeps its jobs one by one.
    n = 8
    real = backend_module._workspace
    refused = []

    def workspace(size):
        if size > 1 << n:
            refused.append(size)
            raise MemoryError(f"Unable to allocate {size} amplitudes")
        return real(size)

    monkeypatch.setattr(backend_module, "_workspace", workspace)
    variants = [
        qaoa(n, p=2, gammas=[0.1 * k, 0.5], betas=[0.3, 0.2 * k])
        for k in range(1, 4)
    ]
    partition = get_partitioner("dagP").partition(variants[0], 5)
    executor = HierarchicalExecutor(method="dense", backend=SerialBackend())
    with counted_loads() as loads:
        got = run_group(executor, variants, partition)
    with parts_alone():
        want = run_group(executor, variants, partition)
    assert refused and loads and set(loads) == {3}
    assert_same_runs(got, want, n)
