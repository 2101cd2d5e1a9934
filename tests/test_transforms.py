"""Circuit transform tests: fusion, inversion, remapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import generators
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import gate_matrix
from repro.circuits.transforms import (
    decompose_u3,
    decompose_unitary_1q,
    fuse_single_qubit_runs,
    inverse_circuit,
    remap_circuit,
)
from repro.partition import get_partitioner, validate_partition
from repro.sv.simulator import StateVectorSimulator, random_state

from conftest import SUITE_SMALL, random_circuit


def state_of(qc, initial=None):
    sim = StateVectorSimulator(qc.num_qubits, initial_state=initial)
    sim.run(qc)
    return sim.state


class TestDecomposeU3:
    @pytest.mark.parametrize(
        "name,params",
        [("h", ()), ("x", ()), ("rx", (0.7,)), ("ry", (1.2,)), ("sx", ())],
    )
    def test_exact_cases(self, name, params):
        m = gate_matrix(name, params)
        out = decompose_u3(m)
        if out is not None:
            assert np.allclose(gate_matrix("u3", out), m, atol=1e-9)

    def test_u3_roundtrip(self):
        m = gate_matrix("u3", (0.4, 1.1, -0.3))
        out = decompose_u3(m)
        assert out is not None
        assert np.allclose(gate_matrix("u3", out), m, atol=1e-9)

    def test_global_phase_rejected(self):
        # rz carries a global phase u3 cannot express: e^{-i t/2} diag form.
        m = gate_matrix("rz", (0.8,))
        out = decompose_u3(m)
        if out is not None:  # only accept exact reproductions
            assert np.allclose(gate_matrix("u3", out), m, atol=1e-9)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            decompose_u3(np.eye(4))

    def test_non_unitary_clearly_rejected(self):
        shear = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=np.complex128)
        with pytest.raises(ValueError, match="not unitary"):
            decompose_unitary_1q(shear)

    def test_near_unitary_is_tolerance_failure_not_nonunitary(self):
        # Regression: a unitary perturbed by ~1e-8 used to raise the
        # misleading "matrix is not unitary"; it must now raise a distinct
        # tolerance error at the default atol and succeed at a looser one.
        m = gate_matrix("u3", (0.9, 0.4, -1.3))
        noisy = m + 1e-8 * np.array([[1, -1], [1j, 1]], dtype=np.complex128)
        with pytest.raises(ValueError, match="atol"):
            decompose_unitary_1q(noisy)
        alpha, theta, phi, lam = decompose_unitary_1q(noisy, atol=1e-6)
        rebuilt = np.exp(1j * alpha) * gate_matrix("u3", (theta, phi, lam))
        assert np.allclose(rebuilt, noisy, atol=1e-6)

    def test_atol_looser_than_unitarity_gate_wins(self):
        # An atol above the fixed unitarity limit loosens that gate too:
        # a ~1e-5-perturbed unitary decomposes at atol=1e-4.
        m = gate_matrix("u3", (0.9, 0.4, -1.3))
        noisy = m + 1e-5 * np.array([[1, 1], [-1, 1j]], dtype=np.complex128)
        with pytest.raises(ValueError):
            decompose_unitary_1q(noisy)
        alpha, theta, phi, lam = decompose_unitary_1q(noisy, atol=1e-4)
        rebuilt = np.exp(1j * alpha) * gate_matrix("u3", (theta, phi, lam))
        assert np.allclose(rebuilt, noisy, atol=1e-4)


class TestFusion:
    @pytest.mark.parametrize("name,n", SUITE_SMALL)
    def test_fused_circuit_same_state(self, name, n):
        qc = generators.build(name, n)
        fused = fuse_single_qubit_runs(qc)
        assert np.allclose(state_of(fused), state_of(qc), atol=1e-9)

    def test_fusion_reduces_gate_count(self):
        qc = QuantumCircuit(2)
        for _ in range(3):
            qc.h(0).t(0).h(0).s(0)  # 12-gate run on one qubit
        qc.cx(0, 1)
        fused = fuse_single_qubit_runs(qc)
        # A run always fuses to at most 3 gates (u3 [+ rz + u1]).
        assert len(fused) <= 4

    def test_fusion_never_reorders_across_2q_gates(self):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1).h(0)
        fused = fuse_single_qubit_runs(qc)
        names = [g.name for g in fused]
        assert "cx" in names
        assert names.index("cx") == 1  # still in the middle

    def test_fusion_is_orthogonal_to_partitioning(self):
        """The paper's orthogonality claim: fusion composes with the
        partitioned pipeline unchanged."""
        qc = generators.build("qnn", 9)
        fused = fuse_single_qubit_runs(qc)
        p = get_partitioner("dagP").partition(fused, 6)
        assert validate_partition(fused, p).ok
        from repro.sv.hier import HierarchicalExecutor
        from repro.sv.simulator import zero_state

        st_ = zero_state(9)
        HierarchicalExecutor().run(fused, p, st_)
        assert np.allclose(st_, state_of(qc), atol=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 9999))
    def test_property_fusion_preserves_state(self, seed):
        qc = random_circuit(5, 25, seed=seed)
        fused = fuse_single_qubit_runs(qc)
        assert np.allclose(state_of(fused), state_of(qc), atol=1e-9)
        assert len(fused) <= len(qc)


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
