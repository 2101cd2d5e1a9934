"""Merge phase, ILP optimum and multilevel partitioning tests."""

import itertools

import pytest

from repro.circuits import generators
from repro.circuits.circuit import QuantumCircuit
from repro.dag import gate_dependency_edges
from repro.partition import (
    DagPPartitioner,
    ILPPartitioner,
    MultilevelPartition,
    NaturalPartitioner,
    Partition,
    greedy_merge,
    multilevel_partition,
    validate_partition,
)
from repro.partition.merge import path_through_third


class TestGreedyMerge:
    def test_independent_parts_merge(self):
        # Two parts on disjoint qubits, no edges: always mergeable.
        out = greedy_merge([0b0011, 0b1100], [], limit=4)
        assert out[0] == out[1]

    def test_limit_blocks_merge(self):
        out = greedy_merge([0b0011, 0b1100], [], limit=3)
        assert out[0] != out[1]

    def test_direct_edge_merge_allowed(self):
        out = greedy_merge([0b001, 0b011], [(0, 1)], limit=3)
        assert out[0] == out[1]

    def test_path_through_third_blocks(self):
        # 0 -> 1 -> 2: merging 0 and 2 would strand 1 in a cycle.  The
        # limit rules out any merge involving part 1, so the path rule is
        # the only thing stopping 0+2 (whose union fits).
        out = greedy_merge([0b001, 0b110, 0b001], [(0, 1), (1, 2)], limit=1)
        assert out[0] != out[2]

    def test_chain_collapses_pairwise(self):
        # 0 -> 1 -> 2 all on the same qubits: 0+1 merge, then +2.
        out = greedy_merge([0b11, 0b11, 0b11], [(0, 1), (1, 2)], limit=2)
        assert out[0] == out[1] == out[2]

    def test_prefers_larger_overlap(self):
        # Part 0 overlaps part 1 fully and part 2 not at all.
        masks = [0b0011, 0b0011, 0b1100]
        out = greedy_merge(masks, [], limit=4)
        assert out[0] == out[1]

    def test_path_through_third_detector(self):
        succ = [0b010, 0b100, 0b000]  # 0->1, 1->2
        reach = [0b110, 0b100, 0b000]
        assert path_through_third(reach, succ, 0, 2)
        assert not path_through_third(reach, succ, 0, 1)
        assert not path_through_third(reach, succ, 1, 2)


class TestMergeAssignment:
    """``merge_assignment`` is ``greedy_merge`` over the quotient: the
    masks and edges below are built the way dagP's merge phase and
    ``find_cuts`` each used to build them by hand."""

    @pytest.mark.parametrize("name,n,limit", [
        ("qaoa", 8, 5), ("qft", 9, 6), ("ising", 10, 4), ("adder", 10, 6),
    ])
    @pytest.mark.parametrize("source", ["dagP recursion", "cutter input"])
    def test_equals_greedy_merge_on_hand_built_quotient(
        self, source, name, n, limit
    ):
        from repro.dag import GateGraph
        from repro.partition.merge import merge_assignment

        # Split two qubits finer than the merge limit, so parts do merge.
        qc = generators.build(name, n)
        if source == "dagP recursion":
            partition = DagPPartitioner(do_merge=False, use_ggg=False).partition(
                qc, limit - 2
            )
        else:
            partition = NaturalPartitioner().partition(qc, limit - 2)
        assignment = partition.assignment()
        masks = [0] * partition.num_parts
        for g, p in enumerate(assignment):
            for q in qc[g].qubits:
                masks[p] |= 1 << q
        edges = set()
        for u, v in gate_dependency_edges(qc):
            if assignment[u] != assignment[v]:
                edges.add((assignment[u], assignment[v]))
        group = greedy_merge(masks, sorted(edges), limit)
        assert len(set(group)) < partition.num_parts  # something merges
        merged = merge_assignment(GateGraph.from_circuit(qc), assignment, limit)
        assert merged == [group[p] for p in assignment]


def brute_force_min_parts(circuit: QuantumCircuit, limit: int) -> int:
    """Exhaustive optimum over interval partitions of all topological
    orders is not exhaustive in general; instead enumerate all assignments
    for tiny circuits (<= 8 gates)."""
    n = len(circuit)
    assert n <= 8
    edges = gate_dependency_edges(circuit)
    best = n
    for k in range(1, n + 1):
        if k >= best:
            break
        for assign in itertools.product(range(k), repeat=n):
            if len(set(assign)) != k:
                continue
            # Precedence along edges (part ids double as topological order).
            if any(assign[u] > assign[v] for u, v in edges):
                continue
            masks = [0] * k
            ok = True
            for g, p in enumerate(assign):
                for q in circuit[g].qubits:
                    masks[p] |= 1 << q
            if any(m.bit_count() > limit for m in masks):
                continue
            best = k
            break
    return best


class TestILP:
    def _tiny(self):
        qc = QuantumCircuit(4)
        qc.h(0).cx(0, 1).cx(1, 2).cx(2, 3).h(3)
        return qc

    def test_ilp_partition_valid(self):
        qc = self._tiny()
        p = ILPPartitioner(time_limit=30).partition(qc, 3)
        validate_partition(qc, p, raise_on_error=True)

    @pytest.mark.parametrize("limit", [2, 3])
    def test_ilp_matches_brute_force(self, limit):
        qc = self._tiny()
        res = ILPPartitioner(time_limit=30).solve(qc, limit)
        assert res.partition is not None
        assert res.num_parts == brute_force_min_parts(qc, limit)

    def test_ilp_on_bv(self):
        qc = generators.build("bv", 6)
        res = ILPPartitioner(time_limit=30).solve(qc, 4)
        assert res.partition is not None
        dagp = DagPPartitioner().partition(qc, 4)
        assert res.num_parts <= dagp.num_parts

    def test_gate_wider_than_limit(self):
        qc = QuantumCircuit(3)
        qc.ccx(0, 1, 2)
        from repro.partition.base import PartitionError

        with pytest.raises(PartitionError):
            ILPPartitioner().solve(qc, 2)

    def test_empty_circuit(self):
        res = ILPPartitioner().solve(QuantumCircuit(2), 2)
        assert res.num_parts == 0
        assert res.optimal

    def test_scipy_is_needed_by_the_ilp_solve_only(self):
        # setup.py installs numpy; scipy comes with the ``ilp`` extra.
        # Without it every entry point must still import and run.
        import os
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent("""
            import sys

            class NoScipy:
                def find_spec(self, name, path=None, target=None):
                    if name.split(".")[0] == "scipy":
                        raise ImportError(f"blocked: {name}")

            sys.meta_path.insert(0, NoScipy())
            import repro.cli
            import repro.serve
            from repro.circuits.circuit import QuantumCircuit
            from repro.partition import ILPPartitioner, get_partitioner

            assert get_partitioner("dagP").name == "dagP"
            assert repro.cli.main(["simulate", "qft", "--qubits", "6"]) == 0
            try:
                ILPPartitioner().partition(QuantumCircuit(2).cx(0, 1), 2)
            except ImportError as exc:
                assert "hisvsim-repro[ilp]" in str(exc), exc
            else:
                raise AssertionError("solved without scipy")
            assert "scipy" not in sys.modules
        """)
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestMultilevel:
    def test_structure(self):
        qc = generators.build("ising", 8)
        ml = multilevel_partition(qc, DagPPartitioner(), limit1=6, limit2=4)
        assert isinstance(ml, MultilevelPartition)
        assert len(ml.inner) == ml.outer.num_parts
        assert ml.limit2 == 4
        for outer_part, inner in zip(ml.outer.parts, ml.inner):
            assert inner.num_gates == outer_part.num_gates
            assert inner.max_working_set() <= 4

    def test_inner_indices_are_subcircuit_relative(self):
        qc = generators.build("qft", 7)
        ml = multilevel_partition(qc, NaturalPartitioner(), limit1=5, limit2=3)
        for outer_part, inner in zip(ml.outer.parts, ml.inner):
            for ip in inner.parts:
                assert all(0 <= j < outer_part.num_gates for j in ip.gate_indices)

    def test_trivial_when_limits_equal(self):
        qc = generators.build("bv", 8)
        ml = multilevel_partition(qc, DagPPartitioner(), limit1=5, limit2=5)
        assert ml.is_trivial

    def test_limit_order_enforced(self):
        qc = generators.build("bv", 8)
        with pytest.raises(ValueError):
            multilevel_partition(qc, DagPPartitioner(), limit1=4, limit2=6)

    def test_total_inner_parts(self):
        qc = generators.build("qaoa", 8)
        ml = multilevel_partition(qc, DagPPartitioner(), limit1=6, limit2=4)
        assert ml.total_inner_parts() >= ml.outer.num_parts
