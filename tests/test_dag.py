"""Circuit-DAG construction and analysis tests."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.dag import (
    CircuitDAG,
    NodeKind,
    build_dag,
    dag_stats,
    qubit_traces,
    working_set_by_inedges,
    working_set_direct,
)

from conftest import SUITE_SMALL, random_circuit
from repro.circuits import generators


def ghz(n=3):
    qc = QuantumCircuit(n)
    qc.h(0)
    for i in range(n - 1):
        qc.cx(i, i + 1)
    return qc


class TestBuild:
    def test_node_counts(self):
        qc = ghz(3)
        dag = build_dag(qc)
        # 3 entries + 3 gates + 3 exits
        assert dag.num_nodes == 9
        assert len(dag.entry_nodes()) == 3
        assert len(dag.gate_nodes()) == 3
        assert len(dag.exit_nodes()) == 3

    def test_edge_count_matches_operands(self):
        qc = ghz(3)
        dag = build_dag(qc)
        edges = sum(len(s) for s in dag.succ)
        # Every gate has in-edges = operand count; exits add one each.
        assert edges == (1 + 2 + 2) + 3

    def test_entry_nodes_have_no_preds(self):
        dag = build_dag(ghz(4))
        for e in dag.entry_nodes():
            assert dag.in_degree(e) == 0
            assert dag.out_degree(e) == 1

    def test_exit_nodes_have_no_succs(self):
        dag = build_dag(ghz(4))
        for x in dag.exit_nodes():
            assert dag.out_degree(x) == 0
            assert dag.in_degree(x) == 1

    def test_edge_labels_are_qubits(self):
        qc = QuantumCircuit(2)
        qc.cx(1, 0)
        dag = build_dag(qc)
        g = dag.gate_nodes()[0]
        labels = sorted(q for _, q in dag.pred[g])
        assert labels == [0, 1]

    def test_gate_qmask(self):
        qc = QuantumCircuit(4)
        qc.ccx(0, 2, 3)
        dag = build_dag(qc)
        g = dag.gate_nodes()[0]
        assert dag.qmask[g] == 0b1101


class TestOrders:
    def test_topological_order_valid(self):
        dag = build_dag(random_circuit(5, 30, seed=1))
        order = dag.topological_order()
        pos = {v: i for i, v in enumerate(order)}
        for v in range(dag.num_nodes):
            for w, _ in dag.succ[v]:
                assert pos[v] < pos[w]

    def test_is_acyclic(self):
        assert build_dag(ghz(4)).is_acyclic()

    def test_cycle_detection(self):
        dag = CircuitDAG(1)
        a = dag.add_node(NodeKind.GATE, gate_index=0)
        b = dag.add_node(NodeKind.GATE, gate_index=1)
        dag.add_edge(a, b, 0)
        dag.add_edge(b, a, 0)
        assert not dag.is_acyclic()
        with pytest.raises(ValueError):
            dag.topological_order()

    def test_self_loop_rejected(self):
        dag = CircuitDAG(1)
        a = dag.add_node(NodeKind.GATE)
        with pytest.raises(ValueError):
            dag.add_edge(a, a, 0)

    def test_top_levels(self):
        dag = build_dag(ghz(3))
        levels = dag.top_levels()
        # entries at 0; h at 1; cx chain at 2,3; exits one above their gate.
        gates = dag.gate_nodes()
        assert levels[gates[0]] == 1
        assert levels[gates[1]] == 2
        assert levels[gates[2]] == 3


class TestWorkingSets:
    @pytest.mark.parametrize("name,n", SUITE_SMALL)
    def test_inedge_trick_matches_direct_on_prefixes(self, name, n):
        qc = generators.build(name, n)
        dag = build_dag(qc)
        order = dag.topological_order()
        # Any prefix of a topo order is a valid acyclic part.
        for cut in (len(order) // 3, len(order) // 2, 2 * len(order) // 3):
            part = order[:cut]
            assert working_set_by_inedges(dag, part) == working_set_direct(dag, part)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 9999), cut=st.floats(0.1, 0.9))
    def test_inedge_trick_property(self, seed, cut):
        qc = random_circuit(5, 25, seed=seed)
        dag = build_dag(qc)
        order = dag.topological_order()
        part = order[: max(1, int(len(order) * cut))]
        assert working_set_by_inedges(dag, part) == working_set_direct(dag, part)


class TestAnalyses:
    def test_qubit_traces_follow_gates(self):
        qc = ghz(3)
        dag = build_dag(qc)
        traces = qubit_traces(dag)
        assert set(traces) == {0, 1, 2}
        # qubit 0: entry -> h -> cx(0,1) -> exit
        t0 = traces[0]
        assert dag.kind[t0[0]] == NodeKind.ENTRY
        assert dag.kind[t0[-1]] == NodeKind.EXIT
        assert len(t0) == 4

    def test_dag_stats(self):
        st_ = dag_stats(build_dag(ghz(3)))
        assert st_["gate_nodes"] == 3
        assert st_["qubits"] == 3
        assert st_["critical_path"] == 4  # entry->h->cx->cx->exit


class TestNetworkxCrossCheck:
    @pytest.mark.parametrize("name,n", SUITE_SMALL[:5])
    def test_matches_networkx(self, name, n):
        qc = generators.build(name, n)
        dag = build_dag(qc)
        g = dag.to_networkx()
        assert nx.is_directed_acyclic_graph(g)
        assert g.number_of_nodes() == dag.num_nodes
        assert g.number_of_edges() == sum(len(s) for s in dag.succ)
        # Longest path length agrees with top levels.
        assert nx.dag_longest_path_length(g) == max(dag.top_levels())
