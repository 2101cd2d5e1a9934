"""dagP phase-level tests: gate graph, coarsening, bisection, refinement, GGG."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import generators
from repro.circuits.circuit import QuantumCircuit
from repro.dag import GateGraph
from repro.partition.dagp.bisect import initial_bisection
from repro.partition.dagp.coarsen import coarsen, coarsen_once
from repro.partition.dagp.ggg import greedy_grow_assignment
from repro.partition.dagp import DagPPartitioner
from repro.partition.dagp.refine import RefineState, refine_bisection
from repro.partition.merge import greedy_merge

from conftest import (
    RefineReference,
    bisection_cost,
    coarsen_once_reference,
    contract_reference,
    dagp_partition_reference,
    from_circuit_reference,
    greedy_merge_reference,
    induce_reference,
    initial_bisection_reference,
    project_reference,
    random_circuit,
    refine_reference,
    topological_order_reference,
)
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


def assert_same_graph(got, want):
    """Field by field, list order included."""
    assert got.qmask == want.qmask
    assert got.weight == want.weight
    assert got.succ == want.succ
    assert got.pred == want.pred
    assert got.gate_ids == want.gate_ids


#: Circuits with one- and two-qubit gates, and with three-qubit ones.
PHASE_CIRCUITS = st.one_of(
    circuits(min_qubits=3, max_qubits=8, min_gates=4, max_gates=80),
    circuits(min_qubits=3, max_qubits=7, min_gates=4, max_gates=60,
             three_qubit=True),
)


class TestSamePhasesAsFirstWritten:
    """Every rewritten dagP phase returns what it returned as first
    written (the ``*_reference`` oracles in ``conftest``): equal graphs,
    the same random draws, the same partitions."""

    @settings(max_examples=40, deadline=None)
    @given(qc=PHASE_CIRCUITS, data=st.data())
    def test_property_graph_operations(self, qc, data):
        root = GateGraph.from_circuit(qc)
        assert_same_graph(root, from_circuit_reference(qc))
        n = root.num_nodes
        nodes = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        assert_same_graph(root.induce(nodes), induce_reference(root, nodes))
        # Any cluster map whose quotient stays acyclic: a cut of the
        # written order into intervals, numbered in order or not.
        cuts = sorted(data.draw(st.sets(st.integers(1, max(1, n - 1)), max_size=8)))
        cuts = [c for c in cuts if c < n]
        interval = [sum(c <= v for c in cuts) for v in range(n)]
        k = len(cuts) + 1
        perm = data.draw(st.permutations(range(k)))
        for cluster_of in (interval, [perm[c] for c in interval]):
            got = root.contract(cluster_of, k)
            want = contract_reference(root, cluster_of, k)
            assert_same_graph(got, want)
            assert got.topological_order() == topological_order_reference(want)
        priority = data.draw(st.lists(
            st.floats(0, 1), min_size=n, max_size=n))
        assert root.topological_order(priority) == \
            topological_order_reference(root, priority)

    @settings(max_examples=40, deadline=None)
    @given(qc=PHASE_CIRCUITS, seed=st.integers(0, 2**32 - 1),
           max_weight=st.sampled_from([2, 3, 8, 1000]))
    def test_property_coarsening_levels(self, qc, seed, max_weight):
        """Level by level: the same coarse graph, map and RNG state."""
        sub = GateGraph.from_circuit(qc)
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for _ in range(6):
            coarse, mapping = coarsen_once(sub, rng, max_weight, 64)
            want, want_map = coarsen_once_reference(sub, ref_rng, max_weight, 64)
            assert mapping == want_map
            assert rng.getstate() == ref_rng.getstate()
            assert_same_graph(coarse, want)
            assert coarse.topological_order() == topological_order_reference(want)
            if sub.num_nodes >= 2:
                assert initial_bisection(sub, seed) == \
                    initial_bisection_reference(sub, seed)
            if coarse is sub:
                break
            labels = [random.Random(seed).randrange(2) for _ in want.qmask]
            state = RefineState(want, list(labels))
            ref = RefineState(want, list(labels))
            state.project(sub, mapping)
            project_reference(ref, sub, mapping)
            for field in ("labels", "qcnt", "touched", "alone", "weights", "split"):
                assert getattr(state, field) == getattr(ref, field), field
            sub = coarse

    @settings(max_examples=30, deadline=None)
    @given(qc=PHASE_CIRCUITS, limit=st.integers(3, 7), seed=st.integers(0, 50),
           config=st.sampled_from([{}, {"use_ggg": False}, {"do_merge": False},
                                   {"refine_passes": 1}]))
    def test_property_partitions(self, qc, limit, seed, config):
        partitioner = DagPPartitioner(seed=seed, **config)
        got = partitioner.partition(qc, limit)
        assert got == dagp_partition_reference(partitioner, qc, limit)

    @pytest.mark.parametrize("name, n, limit", [
        ("ising", 12, 5), ("qaoa", 11, 6), ("qft", 10, 4), ("grover", 9, 5),
    ])
    def test_only_sides_that_do_not_fit_become_graphs(
        self, name, n, limit, monkeypatch
    ):
        """A side that fits ``limit`` is a leaf of gate ids: every graph
        the recursion induces is one it bisects again."""
        induced = []
        real = GateGraph.induce

        def spy(graph, nodes):
            sub = real(graph, nodes)
            induced.append(sub.working_set_size())
            return sub

        monkeypatch.setattr(GateGraph, "induce", spy)
        qc = generators.build(name, n)
        got = DagPPartitioner().partition(qc, limit)
        assert induced and min(induced) > limit
        assert got == dagp_partition_reference(DagPPartitioner(), qc, limit)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), k=st.integers(1, 12), limit=st.integers(1, 6))
    def test_property_greedy_merge(self, data, k, limit):
        """Reachability kept up to date across merges gives the merges of
        recomputing it each time."""
        masks = data.draw(st.lists(st.integers(1, 63), min_size=k, max_size=k))
        pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
        edges = []
        if pairs:
            edges = data.draw(st.lists(st.sampled_from(pairs), max_size=3 * k))
        assert greedy_merge(masks, edges, limit) == \
            greedy_merge_reference(masks, edges, limit)
