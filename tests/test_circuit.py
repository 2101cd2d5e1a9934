"""Unit tests for the QuantumCircuit container."""

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import GATE_DEFS, make_gate


class TestConstruction:
    def test_empty(self):
        qc = QuantumCircuit(4, name="t")
        assert len(qc) == 0
        assert qc.num_qubits == 4
        assert qc.name == "t"

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            QuantumCircuit(0)
        with pytest.raises(ValueError):
            QuantumCircuit(-3)

    def test_builder_methods_cover_registry(self):
        """Every registry gate has a helper named after it that takes
        ``(params..., qubits...)`` and appends exactly that gate."""
        for name, d in GATE_DEFS.items():
            params = tuple(0.1 * (k + 1) for k in range(d.num_params))
            qubits = tuple(range(d.num_qubits))
            qc = QuantumCircuit(4)
            assert getattr(qc, name)(*params, *qubits) is qc, name
            assert list(qc) == [make_gate(name, qubits, params)], name

    def test_out_of_range_gate_rejected(self):
        qc = QuantumCircuit(2)
        with pytest.raises(ValueError):
            qc.h(2)
        with pytest.raises(ValueError):
            qc.append(make_gate("cx", [0, 5]))

    def test_iteration_and_indexing(self):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        assert [g.name for g in qc] == ["h", "cx"]
        assert qc[1].name == "cx"
        assert qc.gates[0].name == "h"


class TestQueries:
    def test_depth_chain(self):
        qc = QuantumCircuit(1)
        for _ in range(5):
            qc.h(0)
        assert qc.depth() == 5

    def test_depth_parallel(self):
        qc = QuantumCircuit(4)
        for q in range(4):
            qc.h(q)
        assert qc.depth() == 1
        qc.cx(0, 1)
        qc.cx(2, 3)
        assert qc.depth() == 2
        qc.cx(1, 2)
        assert qc.depth() == 3

    def test_qubits_used(self):
        qc = QuantumCircuit(5)
        qc.h(1).cx(1, 3)
        assert qc.qubits_used() == (1, 3)

    def test_stats(self):
        qc = QuantumCircuit(3)
        qc.h(0).cx(0, 1).ccx(0, 1, 2).rz(0.1, 2)
        st = qc.stats()
        assert st.num_gates == 4
        assert st.num_1q == 2
        assert st.num_2q == 1
        assert st.num_multi == 1
        assert st.state_bytes == 16 * 8

    def test_memory_human(self):
        assert QuantumCircuit(30).stats().memory_human() == "16 GB"
        assert QuantumCircuit(36).stats().memory_human() == "1 TB"
        assert QuantumCircuit(10).stats().memory_human() == "16 KB"


class TestTransforms:
    def test_copy_is_independent(self):
        a = QuantumCircuit(2)
        a.h(0)
        b = a.copy()
        b.x(1)
        assert len(a) == 1 and len(b) == 2

    def test_compose_with_map(self):
        a = QuantumCircuit(3)
        b = QuantumCircuit(2)
        b.h(0).cx(0, 1)
        a.compose(b, qubit_map={0: 2, 1: 1})
        assert a[0].qubits == (2,)
        assert a[1].qubits == (2, 1)

    def test_subcircuit_keeps_order(self):
        qc = QuantumCircuit(2)
        qc.h(0).x(1).cx(0, 1).z(0)
        sub = qc.subcircuit([3, 0])
        assert [g.name for g in sub] == ["h", "z"]
        assert sub.num_qubits == 2

    def test_extend(self):
        qc = QuantumCircuit(2)
        qc.extend([make_gate("h", [0]), make_gate("cx", [0, 1])])
        assert len(qc) == 2

    def test_equality(self):
        a = QuantumCircuit(2)
        a.h(0)
        b = QuantumCircuit(2)
        b.h(0)
        assert a == b
        b.x(1)
        assert a != b
        assert a != "not a circuit"
