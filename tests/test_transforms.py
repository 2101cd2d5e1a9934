"""Circuit transform tests: inversion, remapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import generators
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.transforms import inverse_circuit, remap_circuit
from repro.sv.simulator import StateVectorSimulator, random_state

from conftest import SUITE_SMALL, random_circuit


def state_of(qc, initial=None):
    sim = StateVectorSimulator(qc.num_qubits, initial_state=initial)
    sim.run(qc)
    return sim.state


class TestInverse:
    @pytest.mark.parametrize("name,n", SUITE_SMALL)
    def test_inverse_restores_state(self, name, n):
        qc = generators.build(name, n)
        inv = inverse_circuit(qc)
        init = random_state(n, seed=13)
        state = state_of(qc, initial=init)
        sim = StateVectorSimulator(n, initial_state=state)
        sim.run(inv)
        assert np.allclose(sim.state, init, atol=1e-8)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 9999))
    def test_property_inverse(self, seed):
        qc = random_circuit(5, 20, seed=seed)
        inv = inverse_circuit(qc)
        init = random_state(5, seed=seed)
        out = state_of(inv, initial=state_of(qc, initial=init))
        assert np.allclose(out, init, atol=1e-8)


class TestRemap:
    def test_remap_widens_register(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1)
        out = remap_circuit(qc, {0: 5, 1: 2}, num_qubits=8)
        assert out.num_qubits == 8
        assert out[0].qubits == (5, 2)

    def test_non_injective_rejected(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1)
        with pytest.raises(ValueError):
            remap_circuit(qc, {0: 3, 1: 3})
