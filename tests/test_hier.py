"""Hierarchical Gather-Execute-Scatter executor tests (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import generators
from repro.partition import get_partitioner
from repro.sv.hier import ExecutionTrace, HierarchicalExecutor
from repro.sv.simulator import StateVectorSimulator, random_state, zero_state

from conftest import SUITE_SMALL, literal_reference, random_circuit


def reference_state(qc, initial=None):
    sim = StateVectorSimulator(qc.num_qubits, initial_state=initial)
    sim.run(qc)
    return sim.state


class TestEquivalence:
    @pytest.mark.parametrize("name,n", SUITE_SMALL)
    @pytest.mark.parametrize("strategy", ["Nat", "DFS", "dagP"])
    def test_batched_matches_flat(self, name, n, strategy):
        qc = generators.build(name, n)
        limit = max(3, n - 3)
        p = get_partitioner(strategy).partition(qc, limit)
        state = zero_state(n)
        HierarchicalExecutor().run(qc, p, state)
        assert np.allclose(state, reference_state(qc), atol=1e-9)

    @pytest.mark.parametrize("name,n", SUITE_SMALL[:4])
    def test_literal_matches_batched(self, name, n):
        qc = generators.build(name, n)
        p = get_partitioner("dagP").partition(qc, max(3, n - 3))
        a = zero_state(n)
        b = zero_state(n)
        HierarchicalExecutor().run(qc, p, a)
        literal_reference(qc, p, b)
        assert np.allclose(a, b, atol=1e-10)

    def test_arbitrary_initial_state(self):
        qc = generators.build("ising", 8)
        p = get_partitioner("dagP").partition(qc, 5)
        init = random_state(8, seed=42)
        state = init.copy()
        HierarchicalExecutor().run(qc, p, state)
        assert np.allclose(state, reference_state(qc, initial=init), atol=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 9999), limit=st.integers(3, 6))
    def test_property_random_circuits(self, seed, limit):
        qc = random_circuit(7, 25, seed=seed)
        p = get_partitioner("dagP").partition(qc, limit)
        state = zero_state(7)
        HierarchicalExecutor().run(qc, p, state)
        assert np.allclose(state, reference_state(qc), atol=1e-9)


class TestTrace:
    def test_trace_accounting(self):
        qc = generators.build("bv", 8)
        p = get_partitioner("dagP").partition(qc, 5)
        trace = ExecutionTrace()
        HierarchicalExecutor().run(qc, p, zero_state(8), trace=trace)
        assert trace.num_parts == p.num_parts
        assert sum(trace.part_gates) == len(qc)
        # Every part runs on exactly one kernel path, and only gathered
        # parts move the full state through the index table.
        assert trace.strided_parts + trace.gathered_parts == p.num_parts
        assert trace.gather_elements == trace.gathered_parts * (1 << 8)
        assert trace.scatter_elements == trace.gather_elements
        for qubits, part in zip(trace.part_qubits, p.parts):
            assert set(part.qubits) <= set(qubits)


class TestFusedTrace:
    @pytest.mark.parametrize("mode", ["batched", "literal"])
    def test_fused_and_unfused_agree_with_flat(self, mode):
        qc = generators.build("qft", 7)
        p = get_partitioner("dagP").partition(qc, 5)
        ref = reference_state(qc)
        for fuse in (True, False):
            state = zero_state(7)
            if mode == "literal":
                literal_reference(qc, p, state, fuse=fuse)
            else:
                HierarchicalExecutor(fuse=fuse).run(qc, p, state)
            assert np.allclose(state, ref, atol=1e-10), (mode, fuse)

    def test_trace_accounting_fused_vs_unfused(self):
        qc = generators.build("qft", 7)
        p = get_partitioner("dagP").partition(qc, 5)
        fused, unfused = ExecutionTrace(), ExecutionTrace()
        HierarchicalExecutor(fuse=True).run(qc, p, zero_state(7), trace=fused)
        HierarchicalExecutor(fuse=False).run(
            qc, p, zero_state(7), trace=unfused
        )
        # Source-gate accounting is fusion-invariant.
        assert fused.part_gates == unfused.part_gates
        assert fused.total_gates == unfused.total_gates == len(qc)
        assert fused.part_qubits == unfused.part_qubits
        # Kernel-path accounting: each part is either strided or
        # gathered, and gather traffic is charged only to gathered
        # parts.  Fusion can change which path a part takes (larger
        # fused ops fall back to the gather matrix), so the split may
        # differ between the two runs — the totals may not.
        for t in (fused, unfused):
            assert t.strided_parts + t.gathered_parts == p.num_parts
            assert t.gather_elements == t.gathered_parts * (1 << 7)
            assert t.scatter_elements == t.gather_elements
        # Executed-sweep accounting reflects fusion.
        assert unfused.total_ops == len(qc)
        assert unfused.sweeps_saved == 0
        assert fused.total_ops < len(qc)
        assert fused.sweeps_saved == len(qc) - fused.total_ops
        assert all(o >= 1 for o in fused.part_ops)


class TestValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            HierarchicalExecutor(mode="warp")
        # The paper's loop is a test reference now, not a mode.
        with pytest.raises(ValueError, match="'literal'"):
            HierarchicalExecutor(mode="literal")

    @pytest.mark.parametrize("bad", ["list", "read-only"])
    def test_run_group_refuses_a_bad_state_for_its_circuit_only(self, bad):
        # A state no part can be swept into -- not an array, or an
        # array the write-back cannot write -- is that circuit's
        # ValueError before the first part; the other circuit runs on
        # (a one-block state: the resident block writes back at the end).
        qc = generators.build("qft", 6)
        p = get_partitioner("dagP").partition(qc, 4)
        good = zero_state(6)
        if bad == "list":
            other = zero_state(6).tolist()
        else:
            other = zero_state(6)
            other.setflags(write=False)
        ex = HierarchicalExecutor(method="dense")
        done, err = ex.run_group([qc, qc], p, [good, other])
        assert done is good
        assert np.allclose(good, reference_state(qc), atol=1e-10)
        assert isinstance(err, ValueError)
        assert ("read-only" if bad == "read-only" else "list") in str(err)
        if bad == "read-only":
            assert np.array_equal(other, zero_state(6))

    def test_state_length_mismatch(self):
        qc = generators.build("bv", 8)
        p = get_partitioner("Nat").partition(qc, 5)
        with pytest.raises(ValueError):
            HierarchicalExecutor().run(qc, p, zero_state(7))

    @pytest.mark.parametrize("dtype", ["float64", "complex64", "int64"])
    def test_non_complex128_state_is_refused_untouched(self, dtype):
        # float64 used to lose its imaginary parts in the first dense op
        # and then raise mid-run; complex64 ran outside the 1e-10
        # contract.  Both are refused before any part touches the array.
        qc = generators.build("qft", 6)
        p = get_partitioner("Nat").partition(qc, 4)
        state = np.zeros(1 << 6, dtype=dtype)
        state[0] = 1
        before = state.tobytes()
        trace = ExecutionTrace()
        with pytest.raises(ValueError, match=f"complex128, got {dtype}"):
            HierarchicalExecutor().run(qc, p, state, trace=trace)
        assert state.tobytes() == before and state.dtype == dtype
        assert trace.num_parts == 0
