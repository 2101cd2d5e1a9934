"""dagP phase-level tests: gate graph, coarsening, bisection, refinement, GGG."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import generators
from repro.circuits.circuit import QuantumCircuit
from repro.dag import GateGraph
from repro.partition.dagp.bisect import bisection_cost, initial_bisection
from repro.partition.dagp.coarsen import coarsen, coarsen_once
from repro.partition.dagp.ggg import greedy_grow_assignment
from repro.partition.dagp.refine import RefineState, refine_bisection

from conftest import RefineReference, random_circuit, refine_reference
from strategies import circuits


def make_sub(name="ising", n=8):
    return GateGraph.from_circuit(generators.build(name, n))


class TestSubDag:
    def test_from_circuit_counts(self):
        qc = QuantumCircuit(3)
        qc.h(0).cx(0, 1).cx(1, 2)
        sub = GateGraph.from_circuit(qc)
        assert sub.num_nodes == 3
        assert sub.total_weight() == 3
        assert sub.working_set_size() == 3
        assert sub.succ[0] == [1]
        assert sub.succ[1] == [2]

    def test_edges_deduplicated(self):
        qc = QuantumCircuit(2)
        qc.cx(0, 1).cx(0, 1)  # two shared qubits -> one edge
        sub = GateGraph.from_circuit(qc)
        assert sub.succ[0] == [1]

    def test_induced_subset(self):
        qc = QuantumCircuit(3)
        qc.h(0).cx(0, 1).cx(1, 2).h(2)
        sub = GateGraph.from_circuit(qc).induce([1, 2])
        assert sub.num_nodes == 2
        assert sub.gate_ids == [[1], [2]]
        assert sub.succ[0] == [1]

    def test_topological_order_with_priority(self):
        qc = QuantumCircuit(4)
        qc.h(0).h(1).h(2).h(3)  # independent gates
        sub = GateGraph.from_circuit(qc)
        order = sub.topological_order(priority=[3, 2, 1, 0])
        assert order == [3, 2, 1, 0]

    def test_contract(self):
        qc = QuantumCircuit(3)
        qc.h(0).cx(0, 1).cx(1, 2)
        sub = GateGraph.from_circuit(qc)
        coarse = sub.contract([0, 0, 1], 2)
        assert coarse.num_nodes == 2
        assert coarse.weight == [2, 1]
        assert coarse.qmask[0] == 0b011
        assert coarse.succ[0] == [1]
        assert sorted(coarse.gate_ids[0]) == [0, 1]


class TestCoarsen:
    @pytest.mark.parametrize("name", ["bv", "ising", "qaoa", "qft"])
    def test_coarse_graphs_stay_acyclic(self, name):
        sub = make_sub(name)
        graphs, maps = coarsen(sub, target_nodes=4)
        for g in graphs:
            assert g.is_acyclic()
        assert len(maps) == len(graphs) - 1

    def test_gates_conserved_through_levels(self):
        sub = make_sub("qaoa")
        graphs, _ = coarsen(sub, target_nodes=8)
        total = sum(len(g) for g in graphs[0].gate_ids)
        for g in graphs[1:]:
            assert sum(len(ids) for ids in g.gate_ids) == total
            assert g.total_weight() == graphs[0].total_weight()

    def test_single_pass_reduces_nodes(self):
        sub = make_sub("ising")
        coarse, mapping = coarsen_once(
            sub, random.Random(0), max_cluster_weight=100, max_cluster_qubits=64
        )
        assert coarse.num_nodes < sub.num_nodes
        assert len(mapping) == sub.num_nodes
        assert max(mapping) == coarse.num_nodes - 1

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 9999))
    def test_property_contraction_safety(self, seed):
        qc = random_circuit(6, 25, seed=seed)
        sub = GateGraph.from_circuit(qc)
        graphs, _ = coarsen(sub, target_nodes=3, seed=seed)
        assert all(g.is_acyclic() for g in graphs)


class TestBisect:
    @pytest.mark.parametrize("name", ["bv", "ising", "qaoa", "qft", "adder"])
    def test_bisection_is_acyclic_split(self, name):
        sub = make_sub(name)
        labels = initial_bisection(sub)
        assert set(labels) == {0, 1}
        # No edge may point 1 -> 0.
        for v in range(sub.num_nodes):
            if labels[v] == 1:
                for w in sub.succ[v]:
                    assert labels[w] == 1

    def test_cost_components(self):
        qc = QuantumCircuit(4)
        qc.h(0).h(1).h(2).h(3)
        sub = GateGraph.from_circuit(qc)
        cost = bisection_cost(sub, [0, 0, 1, 1])
        assert cost == (2, 4, 0)

    def test_too_small_to_bisect(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        sub = GateGraph.from_circuit(qc)
        with pytest.raises(ValueError):
            initial_bisection(sub)


def fresh_reference(state):
    """A from-scratch reference state on ``state``'s labels, after
    checking that everything ``state`` maintains equals it."""
    sub = state.sub
    fresh = RefineReference(sub, list(state.labels))
    assert state.legal == set(filter(fresh.movable, range(sub.num_nodes)))
    assert state.qcnt == fresh.qcnt
    assert state.cost() == fresh.cost()
    assert all(state.weights)  # never empties a side
    for v in range(sub.num_nodes):  # every crossing edge points 0 -> 1
        assert all(state.labels[v] <= state.labels[w] for w in sub.succ[v])
    return fresh


def check_refinement(sub, labels):
    """Refine ``labels`` on ``sub`` move by move next to the reference."""
    state = RefineState(sub, list(labels))
    while True:
        v = state.best_move(state.legal)
        assert v == fresh_reference(state).best_move()
        if v is None:
            break
        state.apply(v)
    assert state.labels == refine_reference(sub, list(labels), sub.num_nodes)
    assert state.labels == refine_bisection(sub, list(labels), sub.num_nodes)


class TestRefine:
    def _setup(self, name="ising", n=8):
        sub = make_sub(name, n)
        labels = initial_bisection(sub)
        return sub, labels

    def test_refinement_never_worsens_cost(self):
        sub, labels = self._setup()
        before = bisection_cost(sub, list(labels))
        refined = refine_bisection(sub, list(labels))
        after = bisection_cost(sub, refined)
        assert after <= before

    def test_refinement_keeps_acyclicity(self):
        sub, labels = self._setup("qaoa")
        refined = refine_bisection(sub, list(labels))
        for v in range(sub.num_nodes):
            if refined[v] == 1:
                for w in sub.succ[v]:
                    assert refined[w] == 1

    def test_refine_state_incremental_bookkeeping(self):
        sub, labels = self._setup()
        state = RefineState(sub, list(labels))
        # Apply a few legal moves, improving or not; the cost prediction
        # and everything maintained must match a from-scratch state.
        for _ in range(5):
            fresh = fresh_reference(state)
            v = max(filter(fresh.legal, range(sub.num_nodes)))
            predicted = fresh.cost_after_move(v)
            state.apply(v)
            assert state.cost() == predicted
        fresh_reference(state)

    @settings(max_examples=40, deadline=None)
    @given(qc=circuits(min_qubits=3, max_qubits=7, min_gates=8, max_gates=60))
    def test_property_refinement_matches_reference(self, qc):
        """At every coarsening level, from the initial bisection and from
        the one-node prefix split, the maintained state equals a
        from-scratch one after each move and ends on the reference's
        labels."""
        for sub in coarsen(GateGraph.from_circuit(qc), target_nodes=4)[0]:
            if sub.num_nodes >= 2:
                check_refinement(sub, initial_bisection(sub))
                first = sub.topological_order()[0]
                check_refinement(sub, [int(v != first) for v in range(sub.num_nodes)])

    @settings(max_examples=40, deadline=None)
    @given(
        qc=circuits(min_qubits=3, max_qubits=7, min_gates=8, max_gates=60),
        passes=st.sampled_from([1, 8]),
    )
    def test_property_projection_matches_level_by_level(self, qc, passes):
        """Carrying one state down the levels (counters projected, a
        converged level scanning only its split clusters) gives the labels
        of a fresh reference refinement per level."""
        graphs, maps = coarsen(GateGraph.from_circuit(qc), target_nodes=4)
        if graphs[-1].num_nodes < 2:
            return
        start = initial_bisection(graphs[-1])
        want = refine_reference(graphs[-1], list(start), passes)
        for fine, mapping in zip(graphs[-2::-1], maps[::-1]):
            want = refine_reference(fine, [want[c] for c in mapping], passes)
        got = refine_bisection(
            graphs[-1], list(start), passes, zip(graphs[-2::-1], maps[::-1])
        )
        assert got == want
        # A level that was not refined to convergence earns no shortcut.
        for coarse, fine, mapping in zip(graphs[1:], graphs, maps):
            if coarse.num_nodes >= 2:
                first = coarse.topological_order()[0]
                labels = [int(v != first) for v in range(coarse.num_nodes)]
                state = RefineState(coarse, labels)
                state.project(fine, mapping)
                state.refine(passes)
                assert state.labels == refine_reference(
                    fine, [labels[c] for c in mapping], passes
                )

    def test_sides_never_emptied(self):
        sub, labels = self._setup("bv")
        refined = refine_bisection(sub, list(labels), max_passes=20)
        assert 0 < sum(refined) < len(refined)


class TestGGG:
    @pytest.mark.parametrize("name", ["bv", "ising", "qft", "qaoa"])
    def test_assignment_is_topological_and_bounded(self, name):
        sub = make_sub(name)
        limit = 5
        a = greedy_grow_assignment(sub, limit)
        assert all(p >= 0 for p in a)
        # Part ids must be non-decreasing along edges.
        for v in range(sub.num_nodes):
            for w in sub.succ[v]:
                assert a[v] <= a[w]
        # Working sets bounded.
        masks = {}
        for v, p in enumerate(a):
            masks[p] = masks.get(p, 0) | sub.qmask[v]
        assert all(m.bit_count() <= limit for m in masks.values())

    def test_single_part_when_fits(self):
        sub = make_sub("bv", 6)
        a = greedy_grow_assignment(sub, 6)
        assert set(a) == {0}
