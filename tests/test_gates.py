"""Unit tests for the gate registry and matrix factory."""

import math
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.circuits import generators, qasm
from repro.circuits import gates as gates_module
from repro.circuits.gates import (
    GATE_CACHE_MAX,
    GATE_DEFS,
    MATRIX_CACHE_MAX,
    Gate,
    controlled,
    gate_matrix,
    is_unitary,
    make_gate,
    shared_gate_matrix,
)


def _params_for(name):
    d = GATE_DEFS[name]
    return tuple(0.3 + 0.1 * i for i in range(d.num_params))


class TestRegistry:
    def test_registry_is_nonempty_and_consistent(self):
        assert len(GATE_DEFS) >= 25
        for name, d in GATE_DEFS.items():
            assert d.name == name
            assert d.num_qubits >= 1
            assert d.num_params >= 0

    @pytest.mark.parametrize("name", sorted(GATE_DEFS))
    def test_every_gate_matrix_is_unitary(self, name):
        m = gate_matrix(name, _params_for(name))
        d = GATE_DEFS[name]
        assert m.shape == (1 << d.num_qubits, 1 << d.num_qubits)
        assert is_unitary(m)

    @pytest.mark.parametrize("name", sorted(GATE_DEFS))
    def test_diagonal_flag_matches_matrix(self, name):
        m = gate_matrix(name, _params_for(name))
        is_diag = np.allclose(m, np.diag(np.diag(m)))
        assert GATE_DEFS[name].diagonal == is_diag

    @pytest.mark.parametrize("name", sorted(GATE_DEFS))
    def test_matrix_cache_returns_fresh_copies(self, name):
        m1 = gate_matrix(name, _params_for(name))
        m1[0, 0] = 999.0  # vandalise the copy
        m2 = gate_matrix(name, _params_for(name))
        assert m2[0, 0] != 999.0

    def test_matrix_cache_is_a_bounded_lru(self):
        # A daemon fed fresh angles: 10 000 distinct rz, with a
        # parameter-free gate in use throughout.
        h = shared_gate_matrix("h")
        for k in range(10_000):
            theta = 1e-3 * k
            m = gate_matrix("rz", [theta])
            assert m.flags.writeable and m.flags.owndata
            assert m[1, 1] == np.exp(0.5j * theta) and m[0, 1] == 0
            if k % 100 == 0:
                assert shared_gate_matrix("h") is h  # recently used: kept
        cache_info = gates_module._cached_matrix.cache_info
        assert cache_info().currsize <= MATRIX_CACHE_MAX
        assert shared_gate_matrix("h") is h
        # An evicted entry is rebuilt (a miss), equal and again caller-owned.
        misses = cache_info().misses
        first = gate_matrix("rz", [0.0])
        assert cache_info().misses == misses + 1
        first[0, 0] = 999.0
        assert np.array_equal(gate_matrix("rz", [0.0]), np.eye(2))

    def test_shared_matrix_is_read_only(self):
        m = shared_gate_matrix("cx")
        assert m is shared_gate_matrix("cx") and not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 2.0

    def test_unknown_gate_raises(self):
        with pytest.raises(KeyError):
            gate_matrix("frobnicate")
        with pytest.raises(KeyError):
            make_gate("frobnicate", [0])


class TestConventions:
    """Pin down the little-endian / controls-first conventions."""

    def test_x_matrix(self):
        assert np.allclose(gate_matrix("x"), [[0, 1], [1, 0]])

    def test_h_matrix(self):
        s = 1 / math.sqrt(2)
        assert np.allclose(gate_matrix("h"), [[s, s], [s, -s]])

    def test_cx_convention_control_is_low_bit(self):
        # Local index j = control + 2*target; X on target when control=1.
        m = gate_matrix("cx")
        # |c=0,t=0> -> itself
        assert m[0, 0] == 1
        # |c=1,t=0> (j=1) -> |c=1,t=1> (j=3)
        assert m[3, 1] == 1
        # |c=0,t=1> (j=2) -> itself
        assert m[2, 2] == 1
        # |c=1,t=1> (j=3) -> |c=1,t=0> (j=1)
        assert m[1, 3] == 1

    def test_swap_convention(self):
        m = gate_matrix("swap")
        # |q0=1,q1=0> (j=1) <-> |q0=0,q1=1> (j=2)
        assert m[2, 1] == 1 and m[1, 2] == 1
        assert m[0, 0] == 1 and m[3, 3] == 1

    def test_ccx_flips_only_when_both_controls_set(self):
        m = gate_matrix("ccx")
        # j = c1 + 2*c2 + 4*t; controls at bits 0,1.
        assert m[7, 3] == 1  # |c1=1,c2=1,t=0> -> t=1
        assert m[3, 7] == 1
        for j in (0, 1, 2, 4, 5, 6):
            assert m[j, j] == 1

    def test_rz_phases(self):
        theta = 0.7
        m = gate_matrix("rz", (theta,))
        assert np.isclose(m[0, 0], np.exp(-1j * theta / 2))
        assert np.isclose(m[1, 1], np.exp(1j * theta / 2))

    def test_rzz_parity_phase(self):
        theta = 1.1
        m = gate_matrix("rzz", (theta,))
        d = np.diag(m)
        assert np.isclose(d[0], np.exp(-1j * theta / 2))  # parity 0
        assert np.isclose(d[1], np.exp(1j * theta / 2))  # parity 1
        assert np.isclose(d[2], np.exp(1j * theta / 2))
        assert np.isclose(d[3], np.exp(-1j * theta / 2))


class TestControlled:
    def test_controlled_x_equals_cx(self):
        assert np.allclose(controlled(gate_matrix("x")), gate_matrix("cx"))

    def test_double_controlled_x_equals_ccx(self):
        assert np.allclose(controlled(gate_matrix("x"), 2), gate_matrix("ccx"))

    def test_controlled_preserves_unitarity(self):
        for name in ("h", "u3", "swap"):
            base = gate_matrix(name, _params_for(name))
            assert is_unitary(controlled(base, 1))
            assert is_unitary(controlled(base, 2))

    def test_negative_controls_rejected(self):
        with pytest.raises(ValueError):
            controlled(gate_matrix("x"), -1)


class TestGateInstance:
    def test_valid_gate(self):
        g = make_gate("cx", [3, 1])
        assert g.qubits == (3, 1)
        assert g.num_qubits == 2
        assert g.num_controls == 1
        assert g.target_qubits == (1,)

    def test_wrong_operand_count(self):
        with pytest.raises(ValueError):
            make_gate("cx", [0])

    def test_wrong_param_count(self):
        with pytest.raises(ValueError):
            make_gate("rx", [0])
        with pytest.raises(ValueError):
            make_gate("h", [0], [1.0])

    def test_duplicate_operands_rejected(self):
        with pytest.raises(ValueError):
            make_gate("cx", [2, 2])

    def test_negative_qubit_rejected(self):
        with pytest.raises(ValueError):
            make_gate("x", [-1])

    def test_remap(self):
        g = make_gate("cx", [0, 1]).remap({0: 5, 1: 2})
        assert g.qubits == (5, 2)
        assert g.name == "cx"

    def test_gate_is_hashable_and_eq(self):
        a = make_gate("rx", [0], [1.0])
        b = make_gate("rx", [0], [1.0])
        c = make_gate("rx", [0], [2.0])
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_diagonal_property(self):
        assert make_gate("rz", [0], [0.1]).is_diagonal
        assert not make_gate("rx", [0], [0.1]).is_diagonal


class TestSharedGates:
    """A parameterless gate is one shared value per name and operands;
    a gate with parameters is built fresh; no gate has a ``__dict__``."""

    def test_every_builder_hands_out_the_same_parameterless_gate(self):
        a, b = generators.qaoa(6, p=2), generators.qaoa(6, p=2)
        assert a == b
        shared = [(x, y) for x, y in zip(a, b) if not x.params]
        assert len(shared) == 6 + 2 * 2 * 9  # the H layer and two CX per edge
        assert all(x is y for x, y in shared)
        text = "OPENQASM 2.0; qreg q[3]; h q[0]; cx q[0],q[2]; rz(0.5) q[2];"
        first, second = qasm.loads(text), qasm.loads(text)
        assert first[0] is second[0] is make_gate("h", [0])
        assert first[1] is second[1] is make_gate("cx", (0, 2))
        assert first[2] == second[2]
        assert make_gate("cx", [0, 1]).remap({0: 4, 1: 3}) is make_gate("cx", [4, 3])

    def test_operands_are_normalised_before_the_lookup(self):
        # Fresh keys: the first call of each decides what the table holds.
        g = make_gate("cswap", [np.int64(101), np.int64(57), 83.0])
        assert g.qubits == (101, 57, 83)
        assert all(type(q) is int for q in g.qubits)
        assert make_gate("cswap", (101, 57, 83)) is g
        assert make_gate("ccz", range(201, 204)) is make_gate("ccz", [201, 202, 203])

    def test_gates_with_parameters_are_plain_values(self):
        g = make_gate("u3", [np.int64(1)], [np.float32(0.5), 1, np.float64(2.0)])
        assert g == Gate("u3", (1,), (0.5, 1.0, 2.0))
        assert [type(x) for x in g.qubits + g.params] == [int, float, float, float]

    def test_gate_has_no_instance_dict(self):
        g = Gate("h", (0,))
        assert g.params == ()
        assert not hasattr(g, "__dict__")
        assert Gate.__slots__ == ("name", "qubits", "params")
        with pytest.raises(AttributeError):
            g.name = "x"  # frozen
        for gate in (g, make_gate("cx", [0, 1]), make_gate("rzz", [0, 1], [0.3])):
            assert pickle.loads(pickle.dumps(gate)) == gate

    @pytest.mark.parametrize(
        "name, qubits, error",
        [("nope", [0], KeyError), ("cx", [0], ValueError),
         ("cx", [1, 1], ValueError), ("x", [-1], ValueError),
         ("rz", [0], ValueError)],
    )
    def test_a_bad_gate_raises_on_every_call(self, name, qubits, error):
        size = gates_module._shared_gate.cache_info().currsize
        for _ in range(3):
            with pytest.raises(error):
                make_gate(name, qubits)
        assert gates_module._shared_gate.cache_info().currsize == size

    def test_the_table_is_a_bounded_lru(self):
        h = make_gate("h", [0])
        for k in range(2 * GATE_CACHE_MAX):
            assert make_gate("x", [1000 + k]).qubits == (1000 + k,)
            if k % 100 == 0:
                assert make_gate("h", [0]) is h  # recently used: kept
        assert gates_module._shared_gate.cache_info().currsize <= GATE_CACHE_MAX
        assert make_gate("x", [1000]) == Gate("x", (1000,))  # evicted, rebuilt

    def test_a_budget_sized_circuit_holds_under_10_mib(self):
        # 99,994 gates on four qubits, the largest qaoa(4) a manifest job
        # may build: ~18 MiB while every gate had its own __dict__.
        tracemalloc.start()
        try:
            qc = generators.qaoa(4, p=4545)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(qc) == 99_994
        assert held < 10 << 20, held / 2**20
