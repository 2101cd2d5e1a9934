"""The circuit's dependency DAG: ``GateGraph`` against the circuit, the
paper's Sec. IV-B3 working-set count, networkx and the partitions."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import generators
from repro.circuits.circuit import QuantumCircuit
from repro.dag import GateGraph, gate_dependency_edges
from repro.partition import get_partitioner

from conftest import SUITE_SMALL, random_circuit
from strategies import circuits


def ghz(n=3):
    qc = QuantumCircuit(n)
    qc.h(0)
    for i in range(n - 1):
        qc.cx(i, i + 1)
    return qc


def edge_set(graph):
    return {(u, v) for u, succ in enumerate(graph.succ) for v in succ}


def to_networkx(graph):
    g = nx.DiGraph()
    g.add_nodes_from(range(graph.num_nodes))
    g.add_edges_from(edge_set(graph))
    return g


def hand_built(succ):
    """A one-qubit ``GateGraph`` with the given successor lists."""
    pred = [[] for _ in succ]
    for u, vs in enumerate(succ):
        for v in vs:
            pred[v].append(u)
    n = len(succ)
    return GateGraph([[v] for v in range(n)], [1] * n, [1] * n, succ, pred)


def first_and_last_use(qc):
    """Per qubit, the indices of the first and the last gate touching it."""
    first, last = {}, {}
    for i, gate in enumerate(qc):
        for q in gate.qubits:
            first.setdefault(q, i)
            last[q] = i
    return first, last


def working_set_by_inedges(qc, part):
    """Sec. IV-B3's count: the qubits whose timeline enters ``part`` from
    a gate outside it or from the circuit's start."""
    members = set(part)
    last, entering = {}, set()
    for i, gate in enumerate(qc):
        if i in members:
            entering.update(q for q in gate.qubits if last.get(q) not in members)
        for q in gate.qubits:
            last[q] = i
    return len(entering)


class TestBuild:
    def test_node_counts(self):
        graph = GateGraph.from_circuit(ghz(3))
        # One node per gate, node id == gate index.
        assert graph.num_nodes == 3
        assert graph.gate_ids == [[0], [1], [2]]
        assert graph.total_weight() == 3

    def test_edge_count_matches_operands(self):
        qc = QuantumCircuit(3).h(0).cx(0, 1).cx(0, 1).cx(1, 2)
        # One raw edge per operand that is not its qubit's first use ...
        raw = gate_dependency_edges(qc)
        assert len(raw) == (1 + 2 + 2 + 2) - 3
        # ... and the graph keeps each gate pair once.
        assert sorted(edge_set(GateGraph.from_circuit(qc))) == [
            (0, 1), (1, 2), (2, 3)
        ]

    def test_edge_labels_are_qubits(self):
        # An edge carries the qubits its two gates share; a gate's
        # in-edges carry every operand it does not use first.
        qc = QuantumCircuit(3).h(0).h(1).cx(1, 0).ccx(0, 1, 2)
        graph = GateGraph.from_circuit(qc)
        carried = {
            (u, v): graph.qmask[u] & graph.qmask[v] for u, v in edge_set(graph)
        }
        assert carried == {(0, 2): 0b001, (1, 2): 0b010, (2, 3): 0b011}

    def test_entry_nodes_have_no_preds(self):
        # The sources are the gates that open each of their qubits.
        qc = random_circuit(6, 40, seed=3)
        graph = GateGraph.from_circuit(qc)
        first, _ = first_and_last_use(qc)
        for v, gate in enumerate(qc):
            opens = all(first[q] == v for q in gate.qubits)
            assert (not graph.pred[v]) == opens

    def test_exit_nodes_have_no_succs(self):
        # The sinks are the gates that close each of their qubits.
        qc = random_circuit(6, 40, seed=4)
        graph = GateGraph.from_circuit(qc)
        _, last = first_and_last_use(qc)
        for v, gate in enumerate(qc):
            closes = all(last[q] == v for q in gate.qubits)
            assert (not graph.succ[v]) == closes

    def test_gate_qmask(self):
        qc = QuantumCircuit(4)
        qc.ccx(0, 2, 3)
        assert GateGraph.from_circuit(qc).qmask == [0b1101]


class TestOrders:
    def test_topological_order_valid(self):
        graph = GateGraph.from_circuit(random_circuit(5, 30, seed=1))
        order = graph.topological_order()
        pos = {v: i for i, v in enumerate(order)}
        for u, v in edge_set(graph):
            assert pos[u] < pos[v]

    def test_is_acyclic(self):
        assert GateGraph.from_circuit(ghz(4)).is_acyclic()

    def test_cycle_detection(self):
        graph = hand_built([[1], [0]])
        assert not graph.is_acyclic()
        with pytest.raises(ValueError):
            graph.topological_order()

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            hand_built([[0]]).topological_order()

    def test_top_levels(self):
        # A gate's level (1 + its deepest predecessor's) is its layer in
        # the circuit: h, then the cx chain one gate per layer.
        graph = GateGraph.from_circuit(ghz(4))
        level = [0] * graph.num_nodes
        for v in graph.topological_order():
            level[v] = 1 + max((level[u] for u in graph.pred[v]), default=0)
        assert level == [1, 2, 3, 4]


class TestGraphIsTheCircuitsDependencies:
    @settings(max_examples=60, deadline=None)
    @given(qc=circuits(three_qubit=True))
    def test_nodes_edges_acyclicity_and_longest_path(self, qc):
        graph = GateGraph.from_circuit(qc)
        assert graph.num_nodes == len(qc)
        assert edge_set(graph) == set(gate_dependency_edges(qc))
        g = to_networkx(graph)
        assert nx.is_directed_acyclic_graph(g)
        # ``depth`` is computed from qubit levels, not from the graph.
        assert len(nx.dag_longest_path(g)) == qc.depth()


class TestWorkingSets:
    @pytest.mark.parametrize("name,n", SUITE_SMALL)
    def test_inedge_trick_matches_direct_on_prefixes(self, name, n):
        qc = generators.build(name, n)
        graph = GateGraph.from_circuit(qc)
        order = graph.topological_order()
        # Any prefix of a topo order is a valid acyclic part.
        for cut in (len(order) // 3, len(order) // 2, 2 * len(order) // 3):
            part = order[:cut]
            assert working_set_by_inedges(qc, part) == (
                graph.induce(part).working_set_size()
            )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 9999), cut=st.floats(0.1, 0.9))
    def test_inedge_trick_property(self, seed, cut):
        qc = random_circuit(5, 25, seed=seed)
        graph = GateGraph.from_circuit(qc)
        order = graph.topological_order()
        part = order[: max(1, int(len(order) * cut))]
        assert working_set_by_inedges(qc, part) == (
            graph.induce(part).working_set_size()
        )

    @pytest.mark.parametrize("strategy", ["Nat", "DFS", "dagP"])
    def test_part_working_sets_match_the_partition(self, strategy):
        partitioner = get_partitioner(strategy)
        for name, n in SUITE_SMALL:
            qc = generators.build(name, n)
            graph = GateGraph.from_circuit(qc)
            partition = partitioner.partition(qc, n - 3)
            sizes = [
                graph.induce(part.gate_indices).working_set_size()
                for part in partition.parts
            ]
            assert sizes == [p.working_set_size for p in partition.parts]
            assert max(sizes) == partition.max_working_set()


class TestNetworkxCrossCheck:
    @pytest.mark.parametrize("name,n", SUITE_SMALL[:5])
    def test_matches_networkx(self, name, n):
        qc = generators.build(name, n)
        graph = GateGraph.from_circuit(qc)
        g = to_networkx(graph)
        assert nx.is_directed_acyclic_graph(g)
        assert g.number_of_nodes() == graph.num_nodes
        assert g.number_of_edges() == sum(len(s) for s in graph.succ)
        assert len(nx.dag_longest_path(g)) == qc.depth()
