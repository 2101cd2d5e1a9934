"""Unit tests for :mod:`repro.sv.backend` and its integration seams."""

from __future__ import annotations

import pickle
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.circuits import generators
from repro.dist.hisvsim import HiSVSimEngine
from repro.partition import get_partitioner
from repro.sv import (
    ArrayBackend,
    ArrayModule,
    ExecutionTrace,
    FusedGate,
    HierarchicalExecutor,
    PlanCache,
    SerialBackend,
    StateVectorSimulator,
    ThreadedBackend,
    gather_index_rows,
    gather_index_table,
    get_backend,
    resolve_array_module,
    resolve_backend,
    shared_backend,
    split_blocks,
    zero_state,
)

from conftest import random_circuit


def _reference_state(qc):
    sim = StateVectorSimulator(qc.num_qubits, reference_kernels=True)
    sim.run(qc)
    return sim.state


# ---------------------------------------------------------------------------
# split_blocks / gather_index_rows
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


class TestGatherIndexRows:
    def test_matches_full_table_slices(self):
        table = gather_index_table(6, (1, 4, 2))
        rows = table.shape[0]
        for lo, hi in ((0, rows), (0, 1), (3, 7), (rows - 1, rows)):
            np.testing.assert_array_equal(
                gather_index_rows(6, (1, 4, 2), lo, hi), table[lo:hi]
            )

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            gather_index_rows(4, (0, 1), 0, 5)


# ---------------------------------------------------------------------------
# Backend selection
# ---------------------------------------------------------------------------


class TestSelection:
    def test_get_backend_unknown(self):
        with pytest.raises(KeyError):
            get_backend("gpu")

    def test_get_backend_kinds(self):
        assert isinstance(get_backend("serial"), SerialBackend)
        t = get_backend("threaded", threads=3)
        assert isinstance(t, ThreadedBackend) and t.threads == 3
        a = get_backend("array", threads=2)  # threads accepted, unused
        assert isinstance(a, ArrayBackend)

    def test_invalid_worker_counts(self):
        with pytest.raises(ValueError):
            ThreadedBackend(-2)
        with pytest.raises(ValueError):
            ThreadedBackend(2, block_elements=0)

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
        assert ArrayBackend().describe() == "array[numpy]"

    def test_removed_process_backend_is_an_unknown_name(self, monkeypatch):
        # The KeyError names the backends that remain.
        monkeypatch.setenv("REPRO_BACKEND", "process")
        with pytest.raises(KeyError, match="process") as exc:
            resolve_backend(None)
        assert "('serial', 'threaded', 'array')" in str(exc.value)

    def test_resolve_empty_env_means_serial(self, monkeypatch):
        # CI matrix legs export REPRO_BACKEND="" for the serial leg.
        monkeypatch.setenv("REPRO_BACKEND", "")
        monkeypatch.setenv("REPRO_THREADS", "")
        assert resolve_backend(None).name == "serial"


# ---------------------------------------------------------------------------
# Determinism (satellite): bit-identical across thread counts and runs
# ---------------------------------------------------------------------------


class TestThreadedDeterminism:
    def test_bit_identical_across_thread_counts_and_runs(self):
        qc = generators.build("qft", 9)
        p = get_partitioner("dagP").partition(qc, 6)
        results = []
        for threads in (1, 2, 4):
            backend = ThreadedBackend(threads, min_parallel_elements=0)
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
            # by (rows, threads) and blocks write disjoint slices, so no
            # reduction order ever depends on scheduling.
            assert np.array_equal(first, other)

    def test_map_blocks_drains_futures_on_inline_error(self):
        # When the caller-thread block raises, already-submitted blocks
        # must be awaited before the exception escapes — otherwise pool
        # threads keep mutating the caller's state behind its back.
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
                backend._map_blocks(fn, blocks)
        assert sorted(done) == blocks[:-1]

    def test_threaded_matches_serial_bitwise(self):
        qc = generators.build("grover", 9)
        p = get_partitioner("dagP").partition(qc, 6)
        serial = zero_state(9)
        HierarchicalExecutor(backend=SerialBackend()).run(qc, p, serial)
        threaded = zero_state(9)
        with ThreadedBackend(4, min_parallel_elements=0) as b:
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
        cache = PlanCache()
        n_threads = 8
        barrier = threading.Barrier(n_threads)

        def run_one(_):
            # All workers hit the cold cache at the same instant.
            executor = HierarchicalExecutor(plan_cache=cache)
            barrier.wait()
            state = zero_state(6)
            executor.run(qc, p, state)
            return state

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            states = list(pool.map(run_one, range(n_threads)))

        for state in states:
            assert float(np.max(np.abs(state - expected))) < 1e-10
        # Each part compiled exactly once: no duplicate builds, no
        # corruption, every other lookup a hit.
        assert cache.misses == p.num_parts
        assert len(cache) == p.num_parts
        assert cache.hits == (n_threads - 1) * p.num_parts

    def test_concurrent_mixed_keys(self):
        # Different fuse settings under one cache, concurrently.
        qc = random_circuit(6, 16, seed=11)
        p = get_partitioner("DFS").partition(qc, 4)
        expected = _reference_state(qc)
        cache = PlanCache()
        barrier = threading.Barrier(6)

        def run_one(i):
            executor = HierarchicalExecutor(fuse=bool(i % 2), plan_cache=cache)
            barrier.wait()
            state = zero_state(6)
            executor.run(qc, p, state)
            return state

        with ThreadPoolExecutor(max_workers=6) as pool:
            states = list(pool.map(run_one, range(6)))
        for state in states:
            assert float(np.max(np.abs(state - expected))) < 1e-10
        assert cache.misses == 2 * p.num_parts  # fused + unfused keys


# ---------------------------------------------------------------------------
# Trace accounting
# ---------------------------------------------------------------------------


class TestTraceAccounting:
    def test_wall_time_and_backend_parts(self):
        qc = generators.build("qaoa", 8)
        p = get_partitioner("dagP").partition(qc, 5)
        trace = ExecutionTrace()
        with ThreadedBackend(2, min_parallel_elements=0) as b:
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
# FusedGate pickling
# ---------------------------------------------------------------------------


class TestFusedGatePickle:
    def test_roundtrip_preserves_everything(self):
        m = np.array([[0, 1], [1, 0]], dtype=np.complex128)
        g = FusedGate((3,), m, False, source_indices=(5, 9))
        clone = pickle.loads(pickle.dumps(g))
        assert clone.qubits == (3,)
        assert clone.is_diagonal is False
        assert clone.source_indices == (5, 9)
        np.testing.assert_array_equal(clone.matrix(), m)
        # Restored matrices come back read-only, like the originals.
        with pytest.raises(ValueError):
            clone.matrix()[0, 0] = 7


# ---------------------------------------------------------------------------
# Array backend
# ---------------------------------------------------------------------------


def _device_numpy() -> ArrayModule:
    """NumPy masquerading as a device module: exercises the generic
    upload/sweep/download path with no GPU in the test image."""
    return ArrayModule("numpy", np, host=False)


class TestArrayModuleResolution:
    def test_selection_and_describe(self):
        b = get_backend("array")
        assert isinstance(b, ArrayBackend)
        assert b.describe() == "array[numpy]"
        assert b.array_module == "numpy"

    def test_resolve_backend_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "array")
        assert resolve_backend(None).name == "array"

    def test_env_module_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_ARRAY_MODULE", raising=False)
        assert resolve_array_module().name == "numpy"
        monkeypatch.setenv("REPRO_ARRAY_MODULE", "")
        assert resolve_array_module().name == "numpy"  # empty = unset
        monkeypatch.setenv("REPRO_ARRAY_MODULE", "numpy")
        assert resolve_array_module().name == "numpy"

    def test_unknown_module_rejected(self):
        with pytest.raises(KeyError, match="opencl"):
            resolve_array_module("opencl")

    def test_missing_device_module_raises_runtime_error(self):
        # The container ships neither cupy nor torch; requesting one
        # must fail loudly (never install implicitly) and name the fix.
        for name in ("cupy", "torch"):
            try:
                __import__(name)
            except ImportError:
                with pytest.raises(RuntimeError, match=name):
                    resolve_array_module(name)
            else:  # pragma: no cover - module present in this image
                assert resolve_array_module(name).name == name

    def test_module_instance_passthrough(self):
        mod = _device_numpy()
        assert resolve_array_module(mod) is mod
        assert not mod.host
        assert ArrayBackend(module=mod).module is mod


class TestArrayBackend:
    def test_numpy_module_bit_identical_to_serial(self):
        qc = generators.build("grover", 9)
        p = get_partitioner("dagP").partition(qc, 6)
        serial = zero_state(9)
        HierarchicalExecutor(backend=SerialBackend()).run(qc, p, serial)
        arr = zero_state(9)
        with ArrayBackend() as backend:
            HierarchicalExecutor(backend=backend).run(qc, p, arr)
        assert np.array_equal(serial, arr)

    @pytest.mark.parametrize("mode", ["batched", "literal"])
    def test_device_path_matches_serial(self, mode):
        qc = random_circuit(7, 20, seed=13)
        p = get_partitioner("dagP").partition(qc, 5)
        serial = zero_state(7)
        HierarchicalExecutor(mode=mode, backend=SerialBackend()).run(
            qc, p, serial
        )
        arr = zero_state(7)
        with ArrayBackend(module=_device_numpy()) as backend:
            HierarchicalExecutor(mode=mode, backend=backend).run(qc, p, arr)
        assert float(np.max(np.abs(arr - serial))) < 1e-12

    def test_device_plan_cache_hits_across_sweeps(self):
        qc = generators.build("qft", 7)
        p = get_partitioner("dagP").partition(qc, 5)
        cache = PlanCache()
        with ArrayBackend(module=_device_numpy()) as backend:
            ex = HierarchicalExecutor(backend=backend, plan_cache=cache)
            ex.run(qc, p, zero_state(7))
            first_uploads = backend.plan_uploads
            assert first_uploads == p.num_parts
            assert backend.plan_cache_hits == 0
            # Re-running the shared plans must not re-upload anything.
            ex.run(qc, p, zero_state(7))
            assert backend.plan_uploads == first_uploads
            assert backend.plan_cache_hits == p.num_parts

    def test_plan_cache_is_bounded(self):
        with ArrayBackend(module=_device_numpy()) as backend:
            backend.MAX_CACHED_PLANS = 3
            plans = []
            for seed in range(5):
                qc = random_circuit(4, 6, seed=seed)
                p = get_partitioner("Nat").partition(qc, 3)
                ex = HierarchicalExecutor(backend=backend)
                ex.run(qc, p, zero_state(4))
                plans.append(p)
            assert len(backend._plans) <= 3

    def test_session_lifecycle_and_nested_guard(self):
        backend = ArrayBackend(module=_device_numpy())
        state = zero_state(4)
        backend.begin_run(state)
        try:
            with pytest.raises(RuntimeError):
                backend.begin_run(state)
        finally:
            backend.end_run(state)
        assert backend._sessions == {}
        # end_run without a session is a no-op, not an error.
        backend.end_run(state)

    def test_apply_gate_flat_device_round_trip(self):
        from repro.circuits.gates import make_gate

        expected = zero_state(3)
        apply = zero_state(3)
        serial = SerialBackend()
        with ArrayBackend(module=_device_numpy()) as backend:
            for gate in (
                make_gate("h", [0]),
                make_gate("cx", [0, 2]),
                make_gate("rz", [1], [0.3]),
            ):
                serial.apply_gate_flat(expected, gate, 3)
                backend.apply_gate_flat(apply, gate, 3)
        assert float(np.max(np.abs(apply - expected))) < 1e-15

    def test_trace_records_array_module(self):
        qc = generators.build("bv", 7)
        p = get_partitioner("dagP").partition(qc, 5)
        trace = ExecutionTrace()
        with ArrayBackend() as backend:
            HierarchicalExecutor(backend=backend).run(
                qc, p, zero_state(7), trace=trace
            )
        assert trace.array_module == "numpy"
        assert trace.strided_parts + trace.gathered_parts == p.num_parts


# ---------------------------------------------------------------------------
# Flat simulator and dist shards through backends
# ---------------------------------------------------------------------------


class TestIntegrationSeams:
    def test_flat_simulator_threaded_matches_reference(self):
        qc = random_circuit(8, 24, seed=21)
        expected = _reference_state(qc)
        with ThreadedBackend(3, min_parallel_elements=0) as b:
            sim = StateVectorSimulator(8, backend=b)
            sim.run(qc)
        assert float(np.max(np.abs(sim.state - expected))) < 1e-10

    def test_flat_simulator_top_qubit_gate_fallback(self):
        # A gate touching the top qubit leaves a single row block; the
        # threaded flat path must fall back without error.
        qc = random_circuit(6, 12, seed=2)
        expected = _reference_state(qc)
        with ThreadedBackend(4, min_parallel_elements=0) as b:
            sim = StateVectorSimulator(6, backend=b)
            sim.run(qc)
        assert float(np.max(np.abs(sim.state - expected))) < 1e-10

    def test_hisvsim_threaded_backend(self):
        qc = generators.build("qft", 8)
        p = get_partitioner("dagP").partition(qc, 5)
        expected = _reference_state(qc)
        with ThreadedBackend(2, min_parallel_elements=0) as b:
            state, report = HiSVSimEngine(4, fuse=True, backend=b).run(qc, p)
        assert float(np.max(np.abs(state.to_full() - expected))) < 1e-10
        assert report.num_parts == p.num_parts

    def test_executor_accepts_backend_by_name(self):
        qc = generators.build("cat_state", 6)
        p = get_partitioner("Nat").partition(qc, 4)
        state = zero_state(6)
        HierarchicalExecutor(backend="threaded", threads=2).run(qc, p, state)
        assert float(np.max(np.abs(state - _reference_state(qc)))) < 1e-10
