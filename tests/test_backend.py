"""Unit tests for :mod:`repro.sv.backend` and its integration seams."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import generators
from repro.circuits.circuit import QuantumCircuit
from repro.dist import DistributedStateVector, IQSEngine
from repro.dist.hisvsim import HiSVSimEngine
from repro.partition import get_partitioner
from repro.runtime.comm import SimComm
from repro.sv import (
    CacheCounters,
    ExecutionBackend,
    ExecutionTrace,
    HierarchicalExecutor,
    PlanCache,
    SerialBackend,
    StateVectorSimulator,
    ThreadedBackend,
    compile_part,
    get_backend,
    random_state,
    resolve_backend,
    shared_backend,
    split_blocks,
    zero_state,
)
from repro.sv.kernels import BLOCK_ELEMENTS

from conftest import literal_reference, part_contents, random_circuit


def _reference_state(qc):
    sim = StateVectorSimulator(qc.num_qubits, reference_kernels=True)
    sim.run(qc)
    return sim.state


# ---------------------------------------------------------------------------
# split_blocks
# ---------------------------------------------------------------------------


class TestSplitBlocks:
    def test_partitions_range_exactly(self):
        for total in (1, 2, 7, 8, 100):
            for parts in (1, 2, 3, 8, 200):
                blocks = split_blocks(total, parts)
                assert blocks[0][0] == 0 and blocks[-1][1] == total
                for (a, b), (c, d) in zip(blocks, blocks[1:]):
                    assert b == c and a < b and c < d
                assert len(blocks) == min(parts, total)

    def test_deterministic(self):
        assert split_blocks(10, 3) == split_blocks(10, 3) == [
            (0, 4), (4, 7), (7, 10)
        ]

    def test_invalid(self):
        with pytest.raises(ValueError):
            split_blocks(-1, 2)
        with pytest.raises(ValueError):
            split_blocks(4, 0)


# ---------------------------------------------------------------------------
# The block rule: one decision for every backend
# ---------------------------------------------------------------------------


def _visited(backend, rows, elements):
    """The blocks ``backend.map_blocks`` hands ``fn``, in visiting order."""
    seen, lock = [], threading.Lock()

    def spy(lo, hi):
        with lock:
            seen.append((lo, hi))

    backend.map_blocks(spy, rows, elements)
    return seen


class TestBlockRule:
    def test_the_settings_are_threads_and_strided_max(self):
        import inspect

        params = inspect.signature(ThreadedBackend).parameters.values()
        assert [(p.name, p.kind.name, p.default) for p in params] == [
            ("threads", "POSITIONAL_OR_KEYWORD", None),
            ("strided_max", "KEYWORD_ONLY", None),
        ]
        assert BLOCK_ELEMENTS == 1 << 15

    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.integers(1, 96),
        row_bits=st.integers(0, 17),
        threads=st.integers(1, 6),
    )
    def test_property_blocks_cover_rows_and_follow_the_rule(
        self, rows, row_bits, threads
    ):
        elements = rows << row_bits
        if 2 * elements < BLOCK_ELEMENTS:
            count = 1
        else:
            by_size = -(-elements // BLOCK_ELEMENTS)
            count = min(rows, max(threads, by_size))
        with ThreadedBackend(threads) as backend:
            blocks = sorted(_visited(backend, rows, elements))
        assert len(blocks) == count
        assert blocks[0][0] == 0 and blocks[-1][1] == rows
        for (_, hi), (lo, _) in zip(blocks, blocks[1:]):
            assert hi == lo  # contiguous, disjoint
        assert all(lo < hi for lo, hi in blocks)
        if threads == 1:
            # The same list, in the same order: threaded(1) is the
            # serial mapper.
            assert _visited(SerialBackend(), rows, elements) == blocks

    def test_serial_sweeps_cache_sized_blocks(self):
        # 2^17 amplitudes in 64 rows: four 2^15-amplitude blocks, in order.
        assert _visited(SerialBackend(), 64, 1 << 17) == [
            (0, 16), (16, 32), (32, 48), (48, 64)
        ]
        assert _visited(SerialBackend(), 64, (1 << 15) - 1) == [(0, 64)]
        # Half a block is where threads start to split; one thread not.
        with ThreadedBackend(2) as b:
            assert sorted(_visited(b, 64, 1 << 14)) == [(0, 32), (32, 64)]
            assert _visited(b, 64, (1 << 14) - 1) == [(0, 64)]


# At BLOCK_ELEMENTS with no patching: 2^15 amplitudes are one serial
# block and 2 / 3 / 4 threaded ones, so boundaries differ for all three.
WIDE = 15


def _assert_agree(threads, serial, threaded, what=""):
    """Bitwise at a power-of-two thread count; within 1e-12 otherwise.

    A power of two splits the power-of-two row count evenly, so every
    block holds whole BLAS column tiles of each op's GEMM.  Three splits
    ``2^k`` rows unevenly (5462 / 5461 / 5461 of 2^14), and an op nearly
    as wide as its row (a 5-qubit fused op in a 6-qubit part, a dense
    gate on qubit 0 of the flat state) then leaves the last 1-3 columns
    of a block to BLAS's edge kernel, which can move the last ulp.
    """
    if threads & (threads - 1) == 0:
        assert np.array_equal(serial, threaded), what
    else:
        assert float(np.max(np.abs(serial - threaded))) < 1e-12, what


def _wide_circuits():
    return [
        random_circuit(WIDE, 60, seed=5),
        generators.build("qft", WIDE),
        generators.build("qaoa", WIDE),
    ]


class TestSerialThreadedBitwiseUnpatched:
    @pytest.mark.parametrize("threads", [2, 3, 4])
    def test_run_plan_both_lanes_and_literal(self, threads):
        # The literal leg is the paper's loop (conftest.literal_reference)
        # on each backend's block mapper.
        for qc in _wide_circuits():
            p = get_partitioner("dagP").partition(qc, 10)
            # Unfused ops keep parts strided-eligible; fused ones gather.
            for strided_max, mode, fuse in (
                (None, "batched", False),
                (-1, "batched", True),
                (None, "literal", True),
            ):
                states = []
                for backend in (
                    SerialBackend(strided_max=strided_max),
                    ThreadedBackend(threads, strided_max=strided_max),
                ):
                    trace, state = ExecutionTrace(), random_state(WIDE, 3)
                    with backend:
                        if mode == "literal":
                            literal_reference(
                                qc, p, state, fuse=fuse, backend=backend
                            )
                        else:
                            HierarchicalExecutor(
                                backend=backend, fuse=fuse
                            ).run(qc, p, state, trace=trace)
                    states.append(state)
                _assert_agree(threads, *states, (qc.name, strided_max, mode))
                if mode == "batched":
                    assert (trace.strided_parts > 0) == (strided_max is None)

    @pytest.mark.parametrize("threads", [2, 3, 4])
    def test_apply_matrix_rows_on_a_shard_matrix(self, threads):
        # Four rows of 2^14 amplitudes: two blocks serially, `threads`
        # threaded.  Every block holds whole rows, so every GEMM keeps
        # whole BLAS column tiles even where three threads split 2/1/1.
        qc = random_circuit(14, 40, seed=9)
        serial = random_state(16, 4).reshape(4, 1 << 14)
        threaded = serial.copy()
        with ThreadedBackend(threads) as b:
            for gate in qc:
                for backend, rows in ((SerialBackend(), serial),
                                      (b, threaded)):
                    backend.apply_matrix_rows(
                        rows, gate.matrix(), gate.qubits, 14,
                        diagonal=gate.is_diagonal,
                    )
        assert np.array_equal(serial, threaded)

    @pytest.mark.parametrize("threads", [2, 3, 4])
    def test_apply_gate_flat(self, threads):
        qc = random_circuit(WIDE, 60, seed=7)
        serial, threaded = _state_pair(WIDE)
        with ThreadedBackend(threads) as b:
            for gate in qc:
                SerialBackend().apply_gate_flat(serial, gate, WIDE)
                b.apply_gate_flat(threaded, gate, WIDE)
        _assert_agree(threads, serial, threaded)

    @pytest.mark.parametrize("threads", [2, 3, 4])
    def test_iqs_shard_sweeps_with_and_without_backend(self, threads):
        # Every operand local (4 ranks, 15 local qubits of 17): an IQS run
        # is one one-gate plan per gate through ``state.run_plan`` on the
        # shared serial backend; the replay runs each gate through the
        # shard entry ``apply_gate_local`` on a threaded backend.
        n = 17
        qc = random_circuit(15, 50, seed=11)
        wide = QuantumCircuit(n)
        for gate in qc:
            wide.append(gate)
        start = random_state(n, 2)
        engine = IQSEngine(4, diagonal_fastpath=False)
        state, _ = engine.run(wide, initial_full=start)
        replay = DistributedStateVector.from_full(start, SimComm(4))
        with ThreadedBackend(threads) as b:
            for gate in wide:
                replay.apply_gate_local(gate, backend=b)
        assert np.array_equal(state.shards, replay.shards)


# ---------------------------------------------------------------------------
# Backend selection
# ---------------------------------------------------------------------------


class TestSelection:
    def test_get_backend_unknown(self):
        with pytest.raises(ValueError, match="choose from"):
            get_backend("gpu")

    def test_get_backend_kinds(self):
        assert isinstance(get_backend("serial"), SerialBackend)
        t = get_backend("threaded", threads=3)
        assert isinstance(t, ThreadedBackend) and t.threads == 3

    def test_invalid_worker_counts(self):
        with pytest.raises(ValueError):
            ThreadedBackend(-2)

    def test_zero_threads_is_refused_not_core_count(self, monkeypatch):
        # Only None means "all cores".
        with pytest.raises(ValueError, match="threads must be >= 1"):
            ThreadedBackend(0)
        with pytest.raises(ValueError, match="threads must be >= 1"):
            get_backend("threaded", threads=0)
        monkeypatch.setenv("REPRO_BACKEND", "threaded")
        monkeypatch.setenv("REPRO_THREADS", "0")
        with pytest.raises(ValueError, match="threads must be >= 1"):
            resolve_backend(None)
        assert ThreadedBackend(None).threads >= 1

    def test_resolve_passthrough_instance(self):
        b = ThreadedBackend(2)
        assert resolve_backend(b) is b

    def test_resolve_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_THREADS", raising=False)
        assert resolve_backend(None).name == "serial"

    def test_resolve_env_backend_and_threads(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "threaded")
        monkeypatch.setenv("REPRO_THREADS", "2")
        b = resolve_backend(None)
        assert isinstance(b, ThreadedBackend) and b.threads == 2
        # Shared: same env -> same instance; explicit name too.
        assert resolve_backend(None) is b
        assert resolve_backend("threaded") is b

    def test_shared_backend_identity(self):
        assert shared_backend("serial") is shared_backend("serial")
        assert shared_backend("threaded", 2) is shared_backend("threaded", 2)

    def test_describe(self):
        assert SerialBackend().describe() == "serial"
        assert ThreadedBackend(4).describe() == "threaded[4]"

    def test_removed_process_backend_is_an_unknown_name(self):
        # The ValueError names the backends that remain.
        for name in ("process", "array"):
            for lookup in (get_backend, resolve_backend):
                with pytest.raises(ValueError, match=name) as exc:
                    lookup(name)
                assert "('serial', 'threaded')" in str(exc.value)

    def test_stale_env_backend_names_the_variable(self, monkeypatch):
        # A leftover REPRO_BACKEND must say where the name came from.
        from repro.serve import BatchRunner

        monkeypatch.setenv("REPRO_BACKEND", "array")
        for resolve in (lambda: resolve_backend(None), BatchRunner):
            with pytest.raises(ValueError, match="unknown backend 'array'") as exc:
                resolve()
            assert "REPRO_BACKEND" in str(exc.value)
            assert "('serial', 'threaded')" in str(exc.value)

    def test_a_backend_is_a_block_mapper_and_nothing_else(self):
        # No run bracket, no array namespace: the public surface is the
        # mapper, the three entry points on it, and close/describe.
        public = [m for m in dir(ExecutionBackend) if not m.startswith("_")]
        assert public == [
            "apply_gate_flat", "apply_matrix_rows", "close", "describe",
            "map_blocks", "name", "run_plan",
        ]
        for gone in ("begin_run", "end_run", "array_module"):
            assert not hasattr(ExecutionBackend, gone)
        assert not hasattr(ExecutionTrace(), "array_module")

    def test_resolve_empty_env_means_serial(self, monkeypatch):
        # CI matrix legs export REPRO_BACKEND="" for the serial leg.
        monkeypatch.setenv("REPRO_BACKEND", "")
        monkeypatch.setenv("REPRO_THREADS", "")
        assert resolve_backend(None).name == "serial"


# ---------------------------------------------------------------------------
# Determinism (satellite): bit-identical across thread counts and runs
# ---------------------------------------------------------------------------


class TestThreadedDeterminism:
    def test_bit_identical_across_thread_counts_and_runs(self, small_blocks):
        qc = generators.build("qft", 9)
        p = get_partitioner("dagP").partition(qc, 6)
        results = []
        for threads in (1, 2, 4):
            backend = ThreadedBackend(threads)
            try:
                for _ in range(2):  # repeated runs must also be identical
                    state = zero_state(9)
                    HierarchicalExecutor(backend=backend).run(qc, p, state)
                    results.append(state)
            finally:
                backend.close()
        first = results[0]
        for other in results[1:]:
            # Bitwise equality, not tolerance: block boundaries are fixed
            # by (rows, elements, threads) and blocks write disjoint
            # slices, so no reduction order ever depends on scheduling.
            assert np.array_equal(first, other)

    def test_map_blocks_drains_futures_on_inline_error(self, small_blocks):
        # When a block raises, already-submitted blocks must be awaited
        # before the exception escapes — otherwise pool threads keep
        # mutating the caller's state behind its back.
        import time as _time

        done = []
        blocks = [(0, 1), (1, 2), (2, 3)]

        def fn(lo, hi):
            if (lo, hi) == blocks[-1]:
                raise ValueError("inline boom")
            _time.sleep(0.05)
            done.append((lo, hi))

        with ThreadedBackend(2) as backend:
            with pytest.raises(ValueError, match="inline boom"):
                backend.map_blocks(fn, 3, 3 * small_blocks)  # a row each
        assert sorted(done) == blocks[:-1]

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_at_most_threads_blocks_run_at_once(self, threads, small_blocks):
        # The caller is one of the ``threads``: a pool of N plus the
        # caller's inline block ran N + 1 (2 / 3 / 5 here).
        import time as _time

        lock = threading.Lock()
        running, peak, visited = [0], [0], []

        def fn(lo, hi):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
                visited.append((lo, hi))
            _time.sleep(0.02)
            with lock:
                running[0] -= 1

        with ThreadedBackend(threads) as backend:
            backend.map_blocks(fn, 8, 8 * small_blocks)  # a row each
            assert (backend._pool is None) == (threads == 1)
        assert sorted(visited) == [(i, i + 1) for i in range(8)]
        assert peak[0] == threads

    def test_threaded_matches_serial_bitwise(self, small_blocks):
        qc = generators.build("grover", 9)
        p = get_partitioner("dagP").partition(qc, 6)
        serial = zero_state(9)
        HierarchicalExecutor(backend=SerialBackend()).run(qc, p, serial)
        threaded = zero_state(9)
        with ThreadedBackend(4) as b:
            HierarchicalExecutor(backend=b).run(qc, p, threaded)
        assert np.array_equal(serial, threaded)


# ---------------------------------------------------------------------------
# PlanCache thread safety (satellite)
# ---------------------------------------------------------------------------


class TestPlanCacheThreadSafety:
    def test_concurrent_runs_share_plans_without_rebuild(self):
        qc = random_circuit(6, 20, seed=7)
        p = get_partitioner("dagP").partition(qc, 4)
        expected = _reference_state(qc)
        cache, seen = PlanCache(), CacheCounters()
        n_threads = 8
        barrier = threading.Barrier(n_threads)

        def run_one(_):
            # All workers hit the cold cache at the same instant.
            executor = HierarchicalExecutor(plan_cache=cache)
            barrier.wait()
            state = zero_state(6)
            executor.run(qc, p, state, cache_counters=seen)
            return state

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            states = list(pool.map(run_one, range(n_threads)))

        for state in states:
            assert float(np.max(np.abs(state - expected))) < 1e-10
        # Each part compiled exactly once: no duplicate builds, no
        # corruption, every other lookup a hit.  The cache holds a plan
        # per part and a structure per distinct part content.
        structures = len(part_contents(qc, p))
        assert seen.misses == p.num_parts
        assert seen.structure_misses == structures
        assert len(cache) == p.num_parts + structures
        assert seen.hits == (n_threads - 1) * p.num_parts

    def test_concurrent_mixed_keys(self):
        # Different fuse settings under one cache, concurrently.
        qc = random_circuit(6, 16, seed=11)
        p = get_partitioner("DFS").partition(qc, 4)
        expected = _reference_state(qc)
        cache, seen = PlanCache(), CacheCounters()
        barrier = threading.Barrier(6)

        def run_one(i):
            executor = HierarchicalExecutor(fuse=bool(i % 2), plan_cache=cache)
            barrier.wait()
            state = zero_state(6)
            executor.run(qc, p, state, cache_counters=seen)
            return state

        with ThreadPoolExecutor(max_workers=6) as pool:
            states = list(pool.map(run_one, range(6)))
        for state in states:
            assert float(np.max(np.abs(state - expected))) < 1e-10
        assert seen.misses == 2 * p.num_parts  # fused + unfused keys

    def test_different_circuits_compile_concurrently(self, monkeypatch):
        # Compilation runs outside the cache lock: two threads cold-
        # compiling different circuits are inside build_part_structure
        # together (the barrier breaks, and the test fails, if they
        # serialise).
        from repro.sv import fusion

        inside = threading.Barrier(2)
        real = fusion.build_part_structure

        def build_together(*args, **kwargs):
            inside.wait(10)
            return real(*args, **kwargs)

        monkeypatch.setattr(fusion, "build_part_structure", build_together)
        cache, seen = PlanCache(), CacheCounters()
        circuits = [random_circuit(5, 12, seed=s) for s in (1, 2)]

        def compile_whole(qc):
            return cache.get_or_compile(
                qc, range(len(qc)), range(5), counters=seen
            )

        with ThreadPoolExecutor(max_workers=2) as pool:
            plans = list(pool.map(compile_whole, circuits))
        assert plans[0] is not plans[1]
        # Two plans and, the contents differing, two structures.
        assert plans[0].structure is not plans[1].structure
        assert (seen.misses, seen.hits, len(cache)) == (2, 0, 4)

    def test_one_structure_bound_by_many_threads_counts_exactly(self):
        import sys

        jobs = 8
        sweep = [
            generators.qaoa(8, p=1, gammas=[0.1 * k], betas=[0.2])
            for k in range(jobs)
        ]
        p = get_partitioner("dagP").partition(sweep[0], 5)
        cache, seen = PlanCache(), CacheCounters()
        barrier = threading.Barrier(jobs)

        def run_one(qc):
            executor = HierarchicalExecutor(plan_cache=cache)
            barrier.wait(10)
            state = zero_state(8)
            executor.run(qc, p, state, cache_counters=seen)
            return state

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                states = list(pool.map(run_one, sweep))
        finally:
            sys.setswitchinterval(old)
        for qc, state in zip(sweep, states):
            assert float(np.max(np.abs(state - _reference_state(qc)))) < 1e-10
        structures = len(part_contents(sweep[0], p))
        assert seen.structure_misses == structures
        assert seen.structure_hits == jobs * p.num_parts - structures
        assert (seen.misses, seen.hits) == (jobs * p.num_parts, 0)


# ---------------------------------------------------------------------------
# Trace accounting
# ---------------------------------------------------------------------------


class TestTraceAccounting:
    def test_wall_time_and_backend_parts(self, small_blocks):
        qc = generators.build("qaoa", 8)
        p = get_partitioner("dagP").partition(qc, 5)
        trace = ExecutionTrace()
        with ThreadedBackend(2) as b:
            HierarchicalExecutor(backend=b).run(
                qc, p, zero_state(8), trace=trace
            )
        assert len(trace.part_seconds) == trace.num_parts == p.num_parts
        assert trace.total_seconds == pytest.approx(sum(trace.part_seconds))
        assert trace.total_seconds > 0.0
        assert trace.backend_parts == {"threaded[2]": p.num_parts}

    def test_empty_trace_zero(self):
        trace = ExecutionTrace()
        assert trace.total_seconds == 0.0
        assert trace.backend_parts == {}


# ---------------------------------------------------------------------------
# The seam contract: overriding map_blocks is all a backend needs
# ---------------------------------------------------------------------------


class _RowAtATimeBackend(ExecutionBackend):
    """One block per row, last row first — as unlike the inline mapper as
    a legal mapper gets."""

    name = "row-at-a-time"

    def map_blocks(self, fn, rows, elements):
        for lo in reversed(range(rows)):
            fn(lo, lo + 1)


def _state_pair(n):
    """Two copies of one seeded random state."""
    state = random_state(n, seed=n)
    return state, state.copy()


def test_map_blocks_override_is_the_whole_backend_contract():
    """A subclass that overrides only ``map_blocks`` agrees with serial at
    1e-10 through every entry point and both executors."""
    ours, serial = _RowAtATimeBackend(), SerialBackend()

    def close(a, b):
        return float(np.max(np.abs(a - b))) < 1e-10

    # run_plan, both lanes: strided_max=-1 forces the gather lane.
    qc = random_circuit(7, 20, seed=13)
    gathering = _RowAtATimeBackend(strided_max=-1)
    for part in get_partitioner("dagP").partition(qc, 5).parts:
        plan = compile_part(qc, part.gate_indices, part.qubits, fuse=False)
        for backend, lane in ((ours, "strided"), (gathering, "gather")):
            got, want = _state_pair(7)
            assert backend.run_plan(plan, got, 7) == lane
            assert serial.run_plan(plan, want, 7) == "strided"
            assert close(got, want)

    # apply_matrix_rows / apply_gate_flat.
    for gate in qc:
        got, want = _state_pair(7)
        ours.apply_gate_flat(got, gate, 7)
        serial.apply_gate_flat(want, gate, 7)
        assert close(got, want)
        w = max(gate.qubits) + 1
        got, want = _state_pair(7)
        for backend, state in ((ours, got), (serial, want)):
            backend.apply_matrix_rows(
                state.reshape(-1, 1 << w), gate.matrix(), gate.qubits, w,
                diagonal=gate.is_diagonal,
            )
        assert close(got, want)

    # Hierarchical executor, tableau prefix then dense remainder.
    hybrid = QuantumCircuit(6)
    for q in range(5):
        hybrid.h(q).cx(q, q + 1)
    hybrid.t(2).h(2).cx(2, 3).rz(0.3, 4)
    p = get_partitioner("Nat").partition(hybrid, 3)
    states, traces = [], []
    for backend in (ours, serial):
        ex = HierarchicalExecutor(backend=backend, method="stabilizer")
        traces.append(ExecutionTrace())
        states.append(ex.run(hybrid, p, ex.initial_state(hybrid), traces[-1]))
    assert close(*states)
    assert traces[0].boundary_conversions == 1
    assert traces[0].part_engines == traces[1].part_engines
    assert traces[0].backend_parts.keys() == {"row-at-a-time"}

    # Distributed shard sweep.
    qft = generators.build("qft", 8)
    p = get_partitioner("dagP").partition(qft, 5)
    full = [
        HiSVSimEngine(4, fuse=True, backend=backend).run(qft, p)[0].to_full()
        for backend in (ours, serial)
    ]
    assert close(*full)


# ---------------------------------------------------------------------------
# Flat simulator and dist shards through backends
# ---------------------------------------------------------------------------


class TestIntegrationSeams:
    def test_flat_simulator_threaded_matches_reference(self, small_blocks):
        qc = random_circuit(8, 24, seed=21)
        expected = _reference_state(qc)
        with ThreadedBackend(3) as b:
            sim = StateVectorSimulator(8, backend=b)
            sim.run(qc)
        assert float(np.max(np.abs(sim.state - expected))) < 1e-10

    def test_flat_simulator_top_qubit_gate_fallback(self, small_blocks):
        # A gate touching the top qubit leaves a single row block; the
        # threaded flat path must fall back without error.
        qc = random_circuit(6, 12, seed=2)
        expected = _reference_state(qc)
        with ThreadedBackend(4) as b:
            sim = StateVectorSimulator(6, backend=b)
            sim.run(qc)
        assert float(np.max(np.abs(sim.state - expected))) < 1e-10

    def test_hisvsim_threaded_backend(self, small_blocks):
        qc = generators.build("qft", 8)
        p = get_partitioner("dagP").partition(qc, 5)
        expected = _reference_state(qc)
        with ThreadedBackend(2) as b:
            state, report = HiSVSimEngine(4, fuse=True, backend=b).run(qc, p)
        assert float(np.max(np.abs(state.to_full() - expected))) < 1e-10
        assert report.num_parts == p.num_parts

    def test_executor_accepts_backend_by_name(self):
        qc = generators.build("cat_state", 6)
        p = get_partitioner("Nat").partition(qc, 4)
        state = zero_state(6)
        HierarchicalExecutor(backend="threaded", threads=2).run(qc, p, state)
        assert float(np.max(np.abs(state - _reference_state(qc)))) < 1e-10
