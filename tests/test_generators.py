"""Benchmark circuit generator tests: structure and algorithmic correctness."""

import math

import numpy as np
import pytest

from repro.circuits import generators
from repro.circuits.generators import (
    adder,
    bv,
    cat_state,
    cc,
    grover,
    ising,
    qaoa,
    qft,
    qnn,
    qpe,
)
from repro.circuits.generators.qaoa import random_regular_edges
from repro.sv.simulator import StateVectorSimulator

from conftest import SUITE_SMALL


def run(qc):
    sim = StateVectorSimulator(qc.num_qubits)
    sim.run(qc)
    return sim


class TestRegistry:
    @pytest.mark.parametrize("name,n", SUITE_SMALL)
    def test_build_and_norm(self, name, n):
        qc = generators.build(name, n)
        assert qc.num_qubits == n
        assert len(qc) > 0
        sim = run(qc)
        assert np.isclose(np.linalg.norm(sim.state), 1.0)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="choose from"):
            generators.build("nope", 8)

    def test_paper_suite_widths(self):
        from repro.experiments.common import suite_circuits

        suite = suite_circuits(10)
        assert suite["bv"].num_qubits == 10
        assert suite["qnn"].num_qubits == 11
        assert suite["bv35"].num_qubits == 15
        assert suite["cc36"].num_qubits == 16
        assert suite["adder37"].num_qubits == 17
        assert len(suite) == 13

    @pytest.mark.parametrize("name,n", SUITE_SMALL)
    def test_determinism(self, name, n):
        assert generators.build(name, n) == generators.build(name, n)


class TestCatState:
    def test_state_is_ghz_without_mirror(self):
        sim = run(cat_state(4, mirror=False))
        expected = np.zeros(16, dtype=complex)
        expected[0] = expected[15] = 1 / math.sqrt(2)
        assert np.allclose(sim.state, expected)

    def test_mirror_doubles_gates(self):
        assert len(cat_state(6, mirror=True)) == 2 * len(cat_state(6, mirror=False))

    def test_too_small(self):
        with pytest.raises(ValueError):
            cat_state(1)


class TestBV:
    @pytest.mark.parametrize("secret", [[1, 0, 1, 1], [0, 0, 0, 1], [1, 1, 1, 1]])
    def test_recovers_secret(self, secret):
        qc = bv(5, secret=secret)
        sim = run(qc)
        probs = sim.probabilities(qubits=range(4))
        got = int(np.argmax(probs))
        want = sum(b << i for i, b in enumerate(secret))
        assert got == want
        assert probs[got] > 0.99

    def test_bad_secret(self):
        with pytest.raises(ValueError):
            bv(4, secret=[1, 2, 0])
        with pytest.raises(ValueError):
            bv(4, secret=[1])


class TestQAOA:
    def test_regular_edges_degree(self):
        edges = random_regular_edges(12, 3, seed=1)
        deg = [0] * 12
        for a, b in edges:
            assert a != b
            deg[a] += 1
            deg[b] += 1
        assert all(d == 3 for d in deg)

    def test_gate_count_formula(self):
        n, p = 10, 2
        edges = random_regular_edges(n, 3)
        qc = qaoa(n, p=p, edges=edges)
        assert len(qc) == n + p * (3 * len(edges) + n)

    def test_explicit_edges_validated(self):
        with pytest.raises(ValueError):
            qaoa(4, p=1, edges=[(0, 9)])

    def test_angle_lists_validated(self):
        with pytest.raises(ValueError):
            qaoa(6, p=2, gammas=[0.1])


class TestCC:
    def test_structure(self):
        qc = cc(8)
        names = [g.name for g in qc]
        assert "cx" in names and "h" in names
        assert qc.num_qubits == 8

    def test_fake_out_of_range(self):
        with pytest.raises(ValueError):
            cc(6, fake=10)


class TestIsing:
    def test_gate_count(self):
        n, steps = 8, 2
        qc = ising(n, steps=steps)
        per_step = 3 * (n - 1) + n
        assert len(qc) == n + steps * per_step

    def test_periodic_adds_pairs(self):
        assert len(ising(6, steps=1, periodic=True)) > len(ising(6, steps=1))


class TestQFT:
    def test_matches_dft_matrix(self):
        n = 4
        qc = qft(n, decompose=False, do_swaps=True)
        dim = 1 << n
        omega = np.exp(2j * math.pi / dim)
        dft = np.array(
            [[omega ** (r * c) / math.sqrt(dim) for c in range(dim)] for r in range(dim)]
        )
        from conftest import full_unitary

        assert np.allclose(full_unitary(qc), dft, atol=1e-9)

    def test_decomposed_equals_native(self):
        n = 5
        a = run(qft(n, decompose=True)).state
        b = run(qft(n, decompose=False)).state
        assert np.allclose(a, b, atol=1e-9)

    def test_inverse_is_inverse(self):
        n = 4
        qc = qft(n, decompose=False)
        inv = qft(n, decompose=False, inverse=True)
        sim = StateVectorSimulator(n)
        # random-ish start: H layer then phases
        prep = generators.build("qnn", n)
        sim.run(prep)
        before = sim.state.copy()
        sim.run(qc)
        sim.run(inv)
        assert np.allclose(sim.state, before, atol=1e-8)


class TestQNN:
    def test_layers_scale_gates(self):
        assert len(qnn(8, layers=3)) > len(qnn(8, layers=1))

    def test_bad_layers(self):
        with pytest.raises(ValueError):
            qnn(8, layers=0)


class TestGrover:
    def test_amplifies_marked_state(self):
        qc = grover(9)  # 5 data qubits, marked = all ones
        sim = run(qc)
        d = 5
        probs = sim.probabilities(qubits=range(d))
        marked = (1 << d) - 1
        # One Grover iteration on 5 qubits boosts the marked item well
        # above uniform (1/32 ~ 3%).
        assert probs[marked] > 0.2
        assert probs[marked] == max(probs)

    def test_bad_marked_length(self):
        with pytest.raises(ValueError):
            grover(9, marked=[1, 0])

    def test_too_small(self):
        with pytest.raises(ValueError):
            grover(4)


class TestQPE:
    def test_estimates_phase(self):
        # phase = 1/4 is exactly representable with 2+ counting qubits.
        qc = qpe(6, phase=0.25)
        sim = run(qc)
        probs = sim.probabilities(qubits=range(5))
        got = int(np.argmax(probs))
        # Counting register reads bit-reversed (no final swaps).
        bits = f"{got:05b}"
        estimate = sum(int(b) / (1 << (i + 1)) for i, b in enumerate(bits[::-1]))
        assert math.isclose(estimate, 0.25, abs_tol=1 / 32)
        assert probs[got] > 0.9


class TestAdder:
    @pytest.mark.parametrize("a,b", [(0, 0), (1, 1), (3, 5), (7, 7), (6, 3)])
    def test_addition(self, a, b):
        # 8 qubits -> 3-bit operands.
        qc = adder(8, a_value=a, b_value=b)
        sim = run(qc)
        probs = sim.probabilities()
        out = int(np.argmax(probs))
        n_bits = 3
        b_qubits = [2 + 2 * i for i in range(n_bits)]
        a_qubits = [1 + 2 * i for i in range(n_bits)]
        cout = 2 * n_bits + 1
        b_out = sum(((out >> q) & 1) << i for i, q in enumerate(b_qubits))
        a_out = sum(((out >> q) & 1) << i for i, q in enumerate(a_qubits))
        carry = (out >> cout) & 1
        assert b_out + (carry << n_bits) == a + b
        assert a_out == a  # a register restored
        assert probs[out] > 0.99

    def test_value_range_check(self):
        with pytest.raises(ValueError):
            adder(8, a_value=100)
