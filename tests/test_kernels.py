"""Gate-kernel tests: every engine against an independent dense reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.gates import gate_matrix, make_gate
from repro.sv.kernels import (
    apply_circuit,
    apply_gate,
    apply_gate_batched,
    apply_gate_reference,
    apply_matrix,
    apply_matrix_batched,
    apply_matrix_strided,
    bytes_touched_for_gate,
    flops_for_gate,
)
from repro.sv.simulator import random_state, zero_state

from conftest import full_unitary, random_circuit


class TestAgainstDenseReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_circuits_match_kron_unitary(self, seed):
        n = 5
        qc = random_circuit(n, 12, seed=seed)
        u = full_unitary(qc)
        state = random_state(n, seed=seed)
        expected = u @ state
        got = apply_circuit(state.copy(), list(qc), n)
        assert np.allclose(got, expected, atol=1e-9)

    def test_single_gates_all_positions(self):
        n = 4
        for name, k in [("h", 1), ("x", 1), ("rz", 1), ("cx", 2), ("swap", 2), ("ccx", 3)]:
            params = (0.7,) if name == "rz" else ()
            from itertools import permutations

            for qs in permutations(range(n), k):
                g = make_gate(name, qs, params)
                qc_like = [g]
                import repro.circuits.circuit as cc

                qc = cc.QuantumCircuit(n)
                qc.append(g)
                u = full_unitary(qc)
                state = random_state(n, seed=1)
                assert np.allclose(
                    apply_gate(state.copy(), g, n), u @ state, atol=1e-9
                ), (name, qs)


class TestEngineEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_reference_kernel_matches_fast_kernel(self, seed):
        n = 6
        qc = random_circuit(n, 20, seed=seed)
        a = random_state(n, seed=seed)
        b = a.copy()
        for g in qc:
            apply_gate(a, g, n)
            apply_gate_reference(b, g, n)
        assert np.allclose(a, b, atol=1e-9)

    def test_batched_matches_loop(self):
        n_local, batch = 4, 8
        rng = np.random.default_rng(5)
        states = rng.standard_normal((batch, 16)) + 1j * rng.standard_normal((batch, 16))
        g = make_gate("cx", [1, 3])
        expected = np.stack([apply_gate(s.copy(), g, n_local) for s in states])
        got = apply_gate_batched(states.copy().astype(np.complex128), g, n_local)
        assert np.allclose(got, expected, atol=1e-9)

    def test_batched_diagonal_matches_loop(self):
        n_local, batch = 5, 6
        rng = np.random.default_rng(6)
        states = (
            rng.standard_normal((batch, 32)) + 1j * rng.standard_normal((batch, 32))
        ).astype(np.complex128)
        g = make_gate("cu1", [4, 0], [0.9])
        expected = np.stack([apply_gate(s.copy(), g, n_local) for s in states])
        got = apply_gate_batched(states.copy(), g, n_local)
        assert np.allclose(got, expected, atol=1e-9)

    def test_diagonal_path_matches_dense_path(self):
        n = 5
        state = random_state(n, seed=7)
        m = gate_matrix("rzz", (1.3,))
        dense = apply_matrix(state.copy(), m, (1, 3), n, diagonal=False)
        diag = apply_matrix(state.copy(), m, (1, 3), n, diagonal=True)
        assert np.allclose(dense, diag, atol=1e-10)

    def test_matrix_batched_arbitrary_unitary(self):
        # A random 2-qubit unitary (via QR) applied batched vs per-row.
        rng = np.random.default_rng(8)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(a)
        states = (
            rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
        ).astype(np.complex128)
        got = apply_matrix_batched(states.copy(), q, (0, 2), 4)
        expected = np.stack(
            [apply_matrix(s.copy(), q, (0, 2), 4) for s in states]
        )
        assert np.allclose(got, expected, atol=1e-9)


class TestInPlaceSemantics:
    def test_apply_gate_returns_same_array(self):
        state = zero_state(3)
        out = apply_gate(state, make_gate("h", [0]), 3)
        assert out is state

    def test_norm_preserved(self):
        state = random_state(6, seed=9)
        qc = random_circuit(6, 30, seed=9)
        apply_circuit(state, list(qc), 6)
        assert np.isclose(np.linalg.norm(state), 1.0)


class TestValidation:
    def test_matrix_shape_mismatch(self):
        with pytest.raises(ValueError):
            apply_matrix(zero_state(3), np.eye(4), (0,), 3)

    def test_batched_shape_mismatch(self):
        with pytest.raises(ValueError):
            apply_matrix_batched(np.zeros((2, 7), dtype=complex), np.eye(2), (0,), 3)

    def test_state_size_mismatch_clear_error(self):
        with pytest.raises(ValueError, match="amplitudes"):
            apply_matrix(zero_state(4), np.eye(2), (0,), 3)

    def test_batched_array_rejected_by_flat_kernel(self):
        # Regression: a (B, 2^n) batch has a matching last axis and used to
        # slip past the guard, dying inside reshape with an opaque error.
        batch = np.zeros((4, 8), dtype=np.complex128)
        with pytest.raises(ValueError, match="apply_matrix_batched"):
            apply_matrix(batch, np.eye(2), (0,), 3)


#: Operand tuples a 3-qubit row refuses, and the words that name them.
BAD_OPERANDS = [
    ((1, 1), r"duplicate operands in \(1, 1\)"),
    ((2, 0, 2), r"duplicate operands in \(2, 0, 2\)"),
    ((0, 3), r"operands \(3,\) of \(0, 3\) are outside 0\.\.2"),
    ((-1,), r"operands \(-1,\) of \(-1,\) are outside 0\.\.2"),
]


class TestOperandChecks:
    """Every entry point refuses bad operands by name, state untouched.

    Before, a duplicate reached numpy as "repeated axis in `source`" or
    "cannot reshape", and a negative operand indexed from the top."""

    @pytest.mark.parametrize("operands,message", BAD_OPERANDS)
    @pytest.mark.parametrize("diagonal", [False, True])
    def test_refused_before_the_state_is_touched(
        self, operands, message, diagonal
    ):
        from repro.sv.backend import SerialBackend, ThreadedBackend

        rng = np.random.default_rng(3)
        matrix = np.diag(np.exp(1j * rng.standard_normal(1 << len(operands))))
        with ThreadedBackend(2) as threaded:
            entries = {
                "apply_matrix": lambda s: apply_matrix(
                    s[0], matrix, operands, 3, diagonal=diagonal
                ),
                "apply_matrix_batched": lambda s: apply_matrix_batched(
                    s, matrix, operands, 3, diagonal=diagonal
                ),
                "apply_matrix_strided": lambda s: apply_matrix_strided(
                    s[0], matrix, operands, 3, diagonal=diagonal
                ),
            }
            for backend in (SerialBackend(), threaded):
                entries[backend.describe()] = (
                    lambda s, b=backend: b.apply_matrix_rows(
                        s, matrix, operands, 3, diagonal=diagonal
                    )
                )
            for name, entry in entries.items():
                states = random_state(5, seed=4).reshape(4, 8)
                before = states.copy()
                with pytest.raises(ValueError, match=message):
                    entry(states)
                assert np.array_equal(
                    states.view(np.uint8), before.view(np.uint8)
                ), name

    def test_local_matrix_on_an_unknown_or_repeated_qubit(self):
        from repro.dist import DistributedStateVector
        from repro.runtime.comm import SimComm
        from repro.sv.fusion import FusedGate

        state = DistributedStateVector.from_full(random_state(4, 5), SimComm(2))
        before = state.shards.copy()
        cx = gate_matrix("cx", ())
        # An unknown qubit used to be a bare IndexError from the layout;
        # a Gate refuses a repeated operand itself, so a fused op (the
        # perf harness's argument) carries it.
        with pytest.raises(ValueError, match=r"operands \(9,\) of \(0, 9\)"):
            state.apply_gate_local(FusedGate((0, 9), cx, False))
        with pytest.raises(ValueError, match=r"duplicate operands in \(1, 1\)"):
            state.apply_gate_local(FusedGate((1, 1), cx, False))
        assert np.array_equal(state.shards.view(np.uint8), before.view(np.uint8))


class TestCostModels:
    def test_flops_single_qubit_matches_paper(self):
        # Paper Sec III-A: 2^(n-1) matvecs of 28 flop each.
        n = 10
        assert flops_for_gate(1, n) == (1 << (n - 1)) * 28

    def test_flops_diagonal_cheaper(self):
        assert flops_for_gate(1, 10, diagonal=True) < flops_for_gate(1, 10)

    def test_flops_monotone_in_arity(self):
        assert flops_for_gate(2, 10) > flops_for_gate(1, 10)
        assert flops_for_gate(3, 10) > flops_for_gate(2, 10)

    def test_bytes_touched(self):
        assert bytes_touched_for_gate(10) == 2 * 16 * 1024


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 6),
)
def test_property_random_circuit_unitary_preserves_norm(seed, n):
    qc = random_circuit(n, 15, seed=seed)
    state = random_state(n, seed=seed)
    apply_circuit(state, list(qc), n)
    assert np.isclose(np.linalg.norm(state), 1.0, atol=1e-9)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_fast_and_reference_kernels_agree(seed):
    n = 5
    qc = random_circuit(n, 10, seed=seed)
    a = random_state(n, seed=seed)
    b = a.copy()
    for g in qc:
        apply_gate(a, g, n)
        apply_gate_reference(b, g, n)
    assert np.allclose(a, b, atol=1e-9)
