"""Partition framework tests: normalisation, validation, dependency edges."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.dag import gate_dependency_edges
from repro.partition.base import Part, Partition, PartitionError
from repro.partition.validate import validate_partition

from strategies import circuits


def linear_circuit():
    qc = QuantumCircuit(3)
    qc.h(0).cx(0, 1).cx(1, 2).h(2)
    return qc


class TestDependencyEdges:
    def test_linear(self):
        edges = gate_dependency_edges(linear_circuit())
        assert (0, 1) in edges  # h(0) -> cx(0,1)
        assert (1, 2) in edges  # cx(0,1) -> cx(1,2)
        assert (2, 3) in edges  # cx(1,2) -> h(2)

    def test_parallel_gates_no_edges(self):
        qc = QuantumCircuit(4)
        qc.h(0).h(1).h(2).h(3)
        assert gate_dependency_edges(qc) == []

    def test_multi_qubit_edges(self):
        qc = QuantumCircuit(3)
        qc.ccx(0, 1, 2)
        qc.h(1)
        edges = gate_dependency_edges(qc)
        assert edges == [(0, 1)]


class TestFromAssignment:
    def test_simple_split(self):
        qc = linear_circuit()
        p = Partition.from_assignment(qc, [0, 0, 1, 1], limit=2, strategy="t")
        assert p.num_parts == 2
        assert p.parts[0].gate_indices == (0, 1)
        assert p.parts[0].qubits == (0, 1)
        assert p.parts[1].qubits == (1, 2)

    def test_parts_renumbered_topologically(self):
        qc = linear_circuit()
        # Raw ids reversed: part 7 before part 3 in execution order.
        p = Partition.from_assignment(qc, [7, 7, 3, 3], limit=2, strategy="t")
        assert p.parts[0].gate_indices == (0, 1)

    def test_cycle_rejected(self):
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1).h(0)  # gate2 depends on gate1 depends on gate0
        with pytest.raises(PartitionError):
            # gates 0,2 in part A; gate 1 in part B -> A->B->A cycle.
            Partition.from_assignment(qc, [0, 1, 0], limit=2, strategy="t")

    def test_limit_enforced(self):
        qc = linear_circuit()
        with pytest.raises(PartitionError):
            Partition.from_assignment(qc, [0, 0, 0, 0], limit=2, strategy="t")
        # Same assignment passes when the limit is the circuit's width.
        p = Partition.from_assignment(
            qc, [0, 0, 0, 0], limit=qc.num_qubits, strategy="t"
        )
        assert p.num_parts == 1

    def test_unassigned_rejected(self):
        with pytest.raises(PartitionError):
            Partition.from_assignment(linear_circuit(), [0, 0, -1, 0], 3, "t")

    def test_length_mismatch(self):
        with pytest.raises(PartitionError):
            Partition.from_assignment(linear_circuit(), [0, 0], 3, "t")

    def test_empty_circuit(self):
        qc = QuantumCircuit(2)
        p = Partition.from_assignment(qc, [], 2, "t")
        assert p.num_parts == 0
        assert p.max_working_set() == 0


@st.composite
def circuits_with_part_maps(draw):
    """A circuit and a raw gate -> part map.  Half the maps are interval
    partitions of the written order (always acyclic) under shuffled part
    names; the rest are arbitrary, so most of them have a quotient cycle."""
    qc = draw(circuits(three_qubit=True))
    labels = draw(st.lists(st.integers(0, 3), min_size=len(qc), max_size=len(qc)))
    if draw(st.booleans()):
        labels.sort()
    names = draw(st.permutations([11, 2, 7, 5]))
    return qc, [names[label] for label in labels]


class TestFromAssignmentAgainstNetworkx:
    """The contraction + Kahn of ``from_assignment`` against a quotient
    built and ordered by networkx from the circuit alone."""

    @settings(max_examples=200, deadline=None)
    @given(circuits_with_part_maps())
    def test_matches_the_oracle_or_both_reject(self, drawn):
        import networkx as nx

        qc, raw = drawn
        quotient = nx.DiGraph()
        quotient.add_nodes_from(set(raw))
        last = {}
        for g, gate in enumerate(qc):
            for q in gate.qubits:
                if q in last and raw[last[q]] != raw[g]:
                    quotient.add_edge(raw[last[q]], raw[g])
                last[q] = g
        if not nx.is_directed_acyclic_graph(quotient):
            with pytest.raises(PartitionError, match="cyclic"):
                Partition.from_assignment(qc, raw, qc.num_qubits, "t")
            return
        order = nx.lexicographical_topological_sort(quotient, key=raw.index)
        expected = []
        for name in order:
            gates = tuple(g for g, a in enumerate(raw) if a == name)
            qubits = sorted({q for g in gates for q in qc[g].qubits})
            expected.append(Part(gates, tuple(qubits)))
        p = Partition.from_assignment(qc, raw, qc.num_qubits, "t")
        assert p.parts == tuple(expected)
        assert validate_partition(qc, p).ok


class TestPartitionAccessors:
    def test_assignment_roundtrip(self):
        qc = linear_circuit()
        p = Partition.from_assignment(qc, [0, 0, 1, 1], 2, "t")
        assert p.assignment() == [0, 0, 1, 1]
        assert p.gates_per_part() == [2, 2]
        assert p.max_working_set() == 2

    def test_part_properties(self):
        part = Part(gate_indices=(1, 5), qubits=(0, 3))
        assert part.num_gates == 2
        assert part.working_set_size == 2
        assert part.qmask == 0b1001


class TestValidator:
    def _valid(self):
        qc = linear_circuit()
        return qc, Partition.from_assignment(qc, [0, 0, 1, 1], 2, "t")

    def test_valid_partition_passes(self):
        qc, p = self._valid()
        assert validate_partition(qc, p).ok

    def test_detects_duplicate_gate(self):
        qc, p = self._valid()
        bad = Partition(
            p.num_qubits,
            p.num_gates,
            p.limit,
            p.strategy,
            (Part((0, 1), (0, 1)), Part((1, 2, 3), (0, 1, 2))),
        )
        rep = validate_partition(qc, bad)
        assert not rep.ok

    def test_detects_missing_gate(self):
        qc, p = self._valid()
        bad = Partition(
            p.num_qubits, p.num_gates, p.limit, p.strategy, (Part((0, 1), (0, 1)),)
        )
        rep = validate_partition(qc, bad)
        assert any("uncovered" in m for m in rep.problems)

    def test_detects_limit_violation(self):
        qc = linear_circuit()
        p = Partition.from_assignment(qc, [0, 0, 0, 0], 3, "t")
        shrunk = Partition(p.num_qubits, p.num_gates, 2, p.strategy, p.parts)
        rep = validate_partition(qc, shrunk)
        assert any("exceeds limit" in m for m in rep.problems)

    def test_detects_order_violation(self):
        qc = linear_circuit()
        # Manually build parts in the wrong execution order.
        bad = Partition(
            3, 4, 2, "t", (Part((2, 3), (1, 2)), Part((0, 1), (0, 1)))
        )
        rep = validate_partition(qc, bad)
        assert any("dependency violation" in m for m in rep.problems)

    def test_detects_wrong_qubit_set(self):
        qc = linear_circuit()
        bad = Partition(
            3, 4, 2, "t", (Part((0, 1), (0, 2)), Part((2, 3), (1, 2)))
        )
        rep = validate_partition(qc, bad)
        assert any("qubit set mismatch" in m for m in rep.problems)

    def test_raise_on_error(self):
        qc, p = self._valid()
        shrunk = Partition(p.num_qubits, p.num_gates, 1, p.strategy, p.parts)
        with pytest.raises(AssertionError):
            validate_partition(qc, shrunk, raise_on_error=True)
