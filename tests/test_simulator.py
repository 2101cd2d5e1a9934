"""Flat StateVectorSimulator tests (incl. measurement utilities)."""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.sv.simulator import StateVectorSimulator, random_state, zero_state


class TestStates:
    def test_zero_state(self):
        s = zero_state(3)
        assert s[0] == 1 and np.all(s[1:] == 0)

    def test_random_state_normalised_and_deterministic(self):
        a = random_state(5, seed=2)
        b = random_state(5, seed=2)
        assert np.allclose(a, b)
        assert np.isclose(np.linalg.norm(a), 1.0)
        assert not np.allclose(a, random_state(5, seed=3))


class TestRun:
    def test_ghz(self):
        qc = QuantumCircuit(3)
        qc.h(0).cx(0, 1).cx(1, 2)
        sim = StateVectorSimulator(3)
        sim.run(qc)
        assert np.isclose(abs(sim.state[0]) ** 2, 0.5)
        assert np.isclose(abs(sim.state[7]) ** 2, 0.5)
        assert sim.gates_applied == 3

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            StateVectorSimulator(2).run(QuantumCircuit(3))

    def test_initial_state_copied(self):
        init = zero_state(2)
        sim = StateVectorSimulator(2, initial_state=init)
        qc = QuantumCircuit(2)
        qc.x(0)
        sim.run(qc)
        assert init[0] == 1  # caller's array untouched

    def test_bad_initial_state(self):
        with pytest.raises(ValueError):
            StateVectorSimulator(2, initial_state=np.zeros(3, dtype=complex))

    def test_reset(self):
        sim = StateVectorSimulator(2)
        qc = QuantumCircuit(2)
        qc.h(0)
        sim.run(qc)
        sim.reset()
        assert sim.state[0] == 1
        assert sim.gates_applied == 0

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            StateVectorSimulator(0)


class TestMeasurement:
    def test_probabilities_full(self):
        sim = StateVectorSimulator(2)
        qc = QuantumCircuit(2)
        qc.h(0)
        sim.run(qc)
        p = sim.probabilities()
        assert np.allclose(p, [0.5, 0.5, 0, 0])

    def test_probabilities_marginal(self):
        sim = StateVectorSimulator(3)
        qc = QuantumCircuit(3)
        qc.x(2)
        qc.h(0)
        sim.run(qc)
        p = sim.probabilities(qubits=[2])
        assert np.allclose(p, [0, 1])
        p01 = sim.probabilities(qubits=[0, 1])
        assert np.allclose(p01, [0.5, 0.5, 0, 0])

    def test_probabilities_duplicate_qubits_rejected(self):
        # Regression: duplicate bits collapsed in extract_bits and produced
        # a silently wrong distribution instead of an error.
        sim = StateVectorSimulator(3)
        qc = QuantumCircuit(3)
        qc.h(0)
        sim.run(qc)
        with pytest.raises(ValueError, match="distinct"):
            sim.probabilities(qubits=[0, 0])

    def test_probabilities_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            StateVectorSimulator(2).probabilities(qubits=[2])

    def test_sampling_matches_distribution(self):
        sim = StateVectorSimulator(1)
        qc = QuantumCircuit(1)
        qc.h(0)
        sim.run(qc)
        counts = sim.sample(shots=4000, seed=11)
        assert set(counts) == {0, 1}
        assert abs(counts[0] - 2000) < 200

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            StateVectorSimulator(1).sample(0)

    def test_expectation_z(self):
        sim = StateVectorSimulator(1)
        assert np.isclose(sim.expectation_z(0), 1.0)  # |0>
        qc = QuantumCircuit(1)
        qc.x(0)
        sim.run(qc)
        assert np.isclose(sim.expectation_z(0), -1.0)
        sim.reset()
        qc2 = QuantumCircuit(1)
        qc2.h(0)
        sim.run(qc2)
        assert np.isclose(sim.expectation_z(0), 0.0, atol=1e-10)

    def test_fidelity(self):
        sim = StateVectorSimulator(2)
        assert np.isclose(sim.fidelity(zero_state(2)), 1.0)
        other = zero_state(2)
        other[0], other[3] = 0, 1
        assert np.isclose(sim.fidelity(other), 0.0)
        with pytest.raises(ValueError):
            sim.fidelity(zero_state(3))
