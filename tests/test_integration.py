"""End-to-end integration tests across the whole pipeline.

Each test exercises several subsystems together the way a downstream user
would: QASM round trips feeding partitioners, partitioned execution
feeding measurements, distributed engines feeding observables, fusion
feeding the distributed stack, and the full algorithm-level semantics
surviving every engine.
"""

import numpy as np
import pytest

from repro.circuits import generators, qasm
from repro.circuits.transforms import inverse_circuit
from repro.dist import HiSVSimEngine, IQSEngine
from repro.partition import (
    DagPPartitioner,
    get_partitioner,
    multilevel_partition,
    validate_partition,
)
from repro.partition.metrics import evaluate_partition
from repro.sv import (
    HierarchicalExecutor,
    StateVectorSimulator,
    pauli_expectation,
    zero_state,
)


class TestQasmToExecution:
    def test_roundtrip_then_partition_then_run(self):
        qc = generators.build("qaoa", 10)
        reparsed = qasm.loads(qasm.dumps(qc))
        p = get_partitioner("dagP").partition(reparsed, 7)
        validate_partition(reparsed, p, raise_on_error=True)
        state = zero_state(10)
        HierarchicalExecutor().run(reparsed, p, state)
        ref = StateVectorSimulator(10)
        ref.run(qc)
        assert np.allclose(state, ref.state, atol=1e-9)


class TestAlgorithmSemanticsAcrossEngines:
    """The *algorithm answer* (not just the raw state) must survive every
    execution path."""

    def test_bv_secret_recovered_distributed(self):
        secret = [1, 0, 1, 1, 0, 1, 0, 1, 1]
        qc = generators.bv(10, secret=secret)
        p = get_partitioner("dagP").partition(qc, 7)
        state, _ = HiSVSimEngine(4).run(qc, p)
        probs = np.abs(state.to_full()) ** 2
        idx = np.arange(probs.size)
        data = np.zeros(1 << 9)
        np.add.at(data, idx & ((1 << 9) - 1), probs)
        want = sum(b << i for i, b in enumerate(secret))
        assert int(np.argmax(data)) == want

    def test_adder_sum_correct_through_iqs(self):
        qc = generators.adder(10, a_value=5, b_value=6)
        state, _ = IQSEngine(4).run(qc)
        out = int(np.argmax(np.abs(state.to_full()) ** 2))
        n_bits = 4
        b_val = sum(((out >> (2 + 2 * i)) & 1) << i for i in range(n_bits))
        carry = (out >> (2 * n_bits + 1)) & 1
        assert b_val + (carry << n_bits) == 11

    def test_ghz_correlations_multilevel(self):
        qc = generators.cat_state(10, mirror=False)
        dagp = DagPPartitioner()
        ml = multilevel_partition(qc, dagp.partition(qc, 7), dagp, 5)
        state, _ = HiSVSimEngine(4).run(qc, ml.outer, multilevel=ml)
        full = state.to_full()
        assert pauli_expectation(full, "Z" * 10, 10) == pytest.approx(1.0)
        assert pauli_expectation(full, "X" * 10, 10) == pytest.approx(1.0)
        assert pauli_expectation(
            full, "Z" + "I" * 9, 10
        ) == pytest.approx(0.0, abs=1e-10)


class TestTransformPipelines:
    def test_fused_circuit_through_distributed_engine(self):
        qc = generators.build("qnn", 10)
        p = get_partitioner("dagP").partition(qc, 7)
        state, _ = HiSVSimEngine(4, fuse=True).run(qc, p)
        ref = StateVectorSimulator(10)
        ref.run(qc)
        assert np.allclose(state.to_full(), ref.state, atol=1e-9)

    def test_compute_uncompute_through_engines(self):
        qc = generators.build("qft", 8)
        round_trip = qc.copy()
        round_trip.extend(inverse_circuit(qc).gates)
        p = get_partitioner("dagP").partition(round_trip, 6)
        state, _ = HiSVSimEngine(4).run(round_trip, p)
        full = state.to_full()
        assert np.isclose(abs(full[0]), 1.0, atol=1e-8)


class TestConsistencyAcrossStrategies:
    @pytest.mark.parametrize("name,n", [("grover", 11), ("qpe", 9), ("cc", 10)])
    def test_all_engines_agree(self, name, n):
        qc = generators.build(name, n)
        ref = StateVectorSimulator(n)
        ref.run(qc)
        states = []
        for strategy in ("Nat", "DFS", "dagP"):
            p = get_partitioner(strategy).partition(qc, n - 3)
            st = zero_state(n)
            HierarchicalExecutor().run(qc, p, st)
            states.append(st)
            dstate, _ = HiSVSimEngine(4).run(qc, p)
            states.append(dstate.to_full())
        istate, _ = IQSEngine(4).run(qc)
        states.append(istate.to_full())
        for s in states:
            assert np.allclose(s, ref.state, atol=1e-9)

    def test_metrics_track_partition_quality_order(self):
        """Fewer parts should come with fewer moved amplitudes overall:
        the quantity Fig. 7 measures."""
        qc = generators.build("qaoa", 12)
        results = {}
        for strategy in ("Nat", "dagP"):
            p = get_partitioner(strategy).partition(qc, 9)
            m = evaluate_partition(qc, p)
            _, rep = HiSVSimEngine(8, dry_run=True).run(qc, p)
            results[strategy] = (m.num_parts, rep.comm.total_bytes)
        assert results["dagP"][0] <= results["Nat"][0]
        assert results["dagP"][1] <= results["Nat"][1]
