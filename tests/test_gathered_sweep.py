"""The gather lane's workspace sweep is the old loop, byte for byte.

``run_part``'s gathered body keeps each row block in two per-thread
workspace buffers (``backend.ResidentBlock``) and leaves it in the axis
order of the last dense op instead of writing each GEMM result back.
Every GEMM keeps its shape and its columns, so the bits must not move:
each run is held to ``conftest.gather_sweep_reference``, the body as
first written (a transposing copy, a GEMM and a write-back per op), on
the same blocks.  The orders come from one labelled planner,
``PartPlanStructure.sweep_plan``, held to the positional planner it
replaced (``conftest.sweep_plan_reference``).
"""

from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sv.kernels as kernels
from repro.circuits.circuit import QuantumCircuit
from repro.partition import get_partitioner
from repro.sv.backend import SerialBackend, ThreadedBackend
from repro.sv.fusion import (
    ROW,
    axis_sizes,
    build_part_structure,
    compile_part,
    compile_partition,
)
from repro.sv.kernels import _order_perm
from repro.sv.simulator import random_state

from conftest import gather_sweep_reference, sweep_plan_reference
from strategies import circuits


def same_bytes(a, b):
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint8), b.view(np.uint8)
    )


@pytest.fixture(scope="module")
def backends():
    """Gather-lane backends by thread count (1 is ``SerialBackend``)."""
    made = {1: SerialBackend(strided_max=-1)}
    made.update(
        {t: ThreadedBackend(t, strided_max=-1) for t in (2, 3, 4)}
    )
    yield made
    for backend in made.values():
        backend.close()


def _check(backend, threads, plans, n, seed=0):
    """Run ``plans`` in order on one state through ``backend`` and
    through the reference on the same blocks; both must agree bytewise.
    Returns the state."""
    start = random_state(n, seed=seed)
    got, want = start.copy(), start.copy()
    for plan in plans:
        assert backend.run_plan(plan, got, n) == "gather"
        gather_sweep_reference(plan, want, n, threads)
    assert same_bytes(got, want), backend.describe()
    return got


# Each example runs its plans at the real block size and again at
# 16-amplitude blocks, so one structure meets two row counts.
@settings(max_examples=150, deadline=None)
@given(
    qc=circuits(min_qubits=2, max_qubits=6, max_gates=20, three_qubit=True),
    strategy=st.sampled_from(["Nat", "DFS", "dagP"]),
    fuse=st.booleans(),
    threads=st.sampled_from([1, 2, 3, 4]),
    data=st.data(),
)
def test_property_run_plan_matches_the_reference(
    backends, qc, strategy, fuse, threads, data
):
    n = qc.num_qubits
    arity = max(len(g.qubits) for g in qc)
    limit = data.draw(st.integers(arity, n), label="limit")
    partition = get_partitioner(strategy).partition(qc, limit)
    plans = compile_partition(qc, partition, fuse=fuse)
    seed = data.draw(st.integers(0, 2**16), label="seed")
    for block in (kernels.BLOCK_ELEMENTS, 16):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "BLOCK_ELEMENTS", block)
            got = _check(backends[threads], threads, plans, n, seed)
            if threads == 3:  # uneven rows: pinned to serial at 1e-12
                serial = random_state(n, seed=seed)
                for plan in plans:
                    gather_sweep_reference(plan, serial, n)
                assert np.allclose(got, serial, rtol=0, atol=1e-12)


def _part(qc, qubits, fuse=False):
    return compile_part(qc, range(len(qc)), qubits, fuse=fuse)


def _row_plan(structure, rows):
    """``structure``'s sweep of a ``rows``-row block arriving in gather
    order, and whether its flush needs a transposing copy."""
    start = (ROW,) + structure.qubits[::-1]
    steps, end = structure.sweep_plan(start, rows)
    return steps, _order_perm(axis_sizes(end, rows), end, start) is not None


@settings(max_examples=200, deadline=None)
@given(
    qc=circuits(min_qubits=1, max_qubits=7, max_gates=20, three_qubit=True),
    fuse=st.booleans(),
    rows=st.integers(1, 64),
    jobs=st.integers(1, 4),
    data=st.data(),
)
def test_property_sweep_plan_matches_the_positional_planner(
    qc, fuse, rows, jobs, data
):
    # A random working set (in a random order) and the gates inside it.
    n = qc.num_qubits
    width = data.draw(st.integers(1, n), label="width")
    working = tuple(data.draw(st.permutations(range(n)), label="order"))
    working = working[:width]
    gates = [i for i, g in enumerate(qc) if set(g.qubits) <= set(working)]
    structure = build_part_structure(qc, gates, working, fuse=fuse)
    want_steps, restore = sweep_plan_reference(structure, rows, jobs)
    start = (ROW,) + working[::-1]
    steps, end = structure.sweep_plan(start, rows, jobs)
    assert steps == want_steps
    perm = _order_perm(axis_sizes(end, rows), end, start)
    if restore is None:
        assert perm is None
    else:
        lift = (0, *[a + 1 for a in perm]) if jobs > 1 else perm
        assert perm is not None and lift == restore[1]


def test_an_all_diagonal_part_makes_no_copy(backends):
    qc = QuantumCircuit(5).rz(0.3, 0).cz(1, 2).t(3).crz(0.7, 3, 0)
    qc.rzz(1.1, 1, 3)
    plan = _part(qc, (0, 1, 2, 3))
    steps, copy_back = _row_plan(plan.structure, 2)
    assert all(gemm is None for *_, gemm in steps) and not copy_back
    _check(backends[1], 1, [plan], 5)


def test_consecutive_dense_ops_on_the_same_operands_share_one_order(backends):
    qc = QuantumCircuit(5).h(1).rx(0.4, 1).cx(0, 2).cx(0, 2).ry(0.2, 3)
    plan = _part(qc, (0, 1, 2, 3))
    steps, copy_back = _row_plan(plan.structure, 2)
    copies = [perm is not None for _, perm, _, gemm in steps]
    assert copies == [True, False, True, False, True]
    assert copy_back
    _check(backends[1], 1, [plan], 5)


def test_ops_on_the_top_axes_of_a_one_row_block_make_no_copy(backends):
    # h(2), then cx(1, 2): operands 2 and (2, 1), most significant first,
    # are the top axes in order, so a single row is already in place.
    qc = QuantumCircuit(3).h(2).cx(1, 2)
    plan = _part(qc, (0, 1, 2))
    steps, copy_back = _row_plan(plan.structure, 1)
    assert [perm for _, perm, _, _ in steps] == [None, None]
    assert not copy_back
    _check(backends[1], 1, [plan], 3)
    # With four rows the row axis follows each op's operands: both copy.
    wide = QuantumCircuit(5).h(2).cx(1, 2)
    plan = _part(wide, (0, 1, 2))
    steps, copy_back = _row_plan(plan.structure, 4)
    assert [perm is None for _, perm, _, _ in steps] == [False, False]
    assert copy_back
    _check(backends[1], 1, [plan], 5)


def test_one_row_blocks(backends, small_blocks):
    # 16-amplitude blocks of a 4-qubit part: every block is one row.
    qc = QuantumCircuit(6).h(0).rz(0.5, 3).cx(3, 1).ry(0.9, 2).cz(0, 2)
    plan = _part(qc, (0, 1, 2, 3))
    for threads in (1, 2, 3):
        _check(backends[threads], threads, [plan], 6, seed=threads)


def test_one_structure_bound_twice_shares_its_plan(backends):
    def circuit(a, b):
        qc = QuantumCircuit(5).rx(a, 0).h(1).crz(b, 0, 2)
        return qc.ry(a + b, 3).rz(b, 1)

    qc1, qc2 = circuit(0.3, 1.2), circuit(2.1, 0.4)
    structure = build_part_structure(qc1, range(len(qc1)), (0, 1, 2, 3))
    plan1, plan2 = structure.bind([qc1.gates, qc2.gates])
    start = (ROW,) + structure.qubits[::-1]
    got1 = _check(backends[1], 1, [plan1], 5)
    sweep = structure.sweep_plan(start, 2)
    got2 = _check(backends[1], 1, [plan2], 5)
    assert structure.sweep_plan(start, 2) is sweep
    assert not np.array_equal(got1, got2)


def test_threads_sharing_one_fresh_structure_keep_their_own_blocks():
    # Every thread races to fill one structure's sweep-plan memo and
    # sweeps its own state through its own workspace; a shared buffer or
    # a torn plan would corrupt some thread's result.
    n, workers = 12, 8
    qc = QuantumCircuit(n).h(0).rz(0.4, 9).cx(0, 9).ry(1.3, 4).crz(0.2, 4, 1)
    qc.cx(2, 7).h(9)
    part = (0, 1, 2, 4, 7, 9)
    start = [random_state(n, seed=s) for s in range(workers)]
    reference = _part(qc, part)
    want = [gather_sweep_reference(reference, s.copy(), n) for s in start]
    plan = _part(qc, part)  # a fresh structure: its memo is empty
    got = [s.copy() for s in start]
    errors = []

    def worker(i):
        try:
            backend = SerialBackend(strided_max=-1)
            for _ in range(50):
                got[i][:] = start[i]
                backend.run_plan(plan, got[i], n)
        except BaseException as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    for g, w in zip(got, want):
        assert same_bytes(g, w)


# ---------------------------------------------------------------------------
# The workspace: nothing block-sized is allocated by a warm part
# ---------------------------------------------------------------------------


def _traced(fn):
    """``(peak, current - before)`` bytes traced while ``fn()`` runs."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, current - before


def test_a_warm_part_allocates_nothing_block_sized():
    n = 14
    qc = QuantumCircuit(n).h(0).rx(0.3, 3).cx(1, 5).ry(0.7, 7).cx(6, 2)
    plan = _part(qc, tuple(range(8)))
    assert plan.num_ops == 5 and not any(op.diagonal for op in plan.ops)
    backend = SerialBackend(strided_max=-1)
    state = random_state(n, seed=1)
    backend.run_plan(plan, state, n)
    # One block of 2^14 amplitudes (256 KiB): the old body made two
    # block-sized temporaries per op.
    peak, _ = _traced(lambda: backend.run_plan(plan, state, n))
    assert peak < 64 << 10


def test_a_gathered_part_of_a_wide_state_builds_no_whole_table():
    # 2^19 amplitudes: the gather table (4 MiB of int64) is too big to
    # memoise, so each block adds its rows from the table's two factors.
    n = 19
    qc = QuantumCircuit(n).h(0).cx(0, 18).rx(0.3, 9).cx(9, 4).ry(0.2, 18)
    plan = _part(qc, (0, 4, 9, 18, 11, 2, 7, 13, 16, 1))
    backend = SerialBackend(strided_max=-1)
    state = random_state(n, seed=3)
    want = gather_sweep_reference(plan, state.copy(), n)
    assert backend.run_plan(plan, state, n) == "gather"
    assert same_bytes(state, want)
    peak, _ = _traced(lambda: backend.run_plan(plan, state, n))
    assert peak < 1 << 20


def test_a_block_above_the_keep_limit_frees_its_workspace():
    # One gather row of 2^17 amplitudes is wider than the kept pair of
    # 2 * BLOCK_ELEMENTS: the part runs in place, row by row, through the
    # shard kernel's virtual rows, so no workspace is taken at all.
    n = 17
    assert 1 << n > 2 * kernels.BLOCK_ELEMENTS
    qc = QuantumCircuit(n).h(0).rx(0.3, 16)
    plan = _part(qc, tuple(range(n)))
    backend = SerialBackend(strided_max=-1)
    state = random_state(n, seed=2)
    want = gather_sweep_reference(plan, state.copy(), n)
    assert backend.run_plan(plan, state, n) == "gather"
    assert same_bytes(state, want)
    peak, kept = _traced(lambda: backend.run_plan(plan, state, n))
    assert peak < 16 << (n - 1)  # not a row-sized copy, let alone a pair
    assert kept < 64 << 10
