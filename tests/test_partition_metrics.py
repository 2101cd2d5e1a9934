"""Partition quality metric tests."""

import pytest

from repro.circuits import generators
from repro.circuits.circuit import QuantumCircuit
from repro.partition import Partition, get_partitioner
from repro.partition.metrics import evaluate_partition


class TestEvaluate:
    def _metrics(self, name="ising", n=10, limit=6, strategy="dagP"):
        qc = generators.build(name, n)
        p = get_partitioner(strategy).partition(qc, limit)
        return qc, p, evaluate_partition(qc, p)

    def test_basic_fields(self):
        qc, p, m = self._metrics()
        assert m.num_parts == p.num_parts
        assert m.max_working_set == p.max_working_set()
        assert 0 < m.fill_factor <= 1.0
        assert m.gates_per_part_min <= m.gates_per_part_max
        assert sum(p.gates_per_part()) == len(qc)

    def test_edge_cut_bounds(self):
        qc, p, m = self._metrics()
        from repro.dag import gate_dependency_edges

        assert 0 <= m.edge_cut <= len(gate_dependency_edges(qc))
        assert 0.0 <= m.edge_cut_fraction <= 1.0

    def test_single_part_extremes(self):
        qc = generators.build("bv", 8)
        p = get_partitioner("dagP").partition(qc, 8)
        m = evaluate_partition(qc, p)
        assert m.num_parts == 1
        assert m.edge_cut == 0
        assert m.mean_consecutive_overlap == 0.0
        assert m.estimated_moved_fraction == 0.0

    def test_empty_partition(self):
        qc = QuantumCircuit(2)
        p = Partition.from_assignment(qc, [], 2, "t")
        m = evaluate_partition(qc, p)
        assert m.num_parts == 0

    def test_dagp_cuts_no_more_than_nat(self):
        """dagP's global view should find parts at least as coherent."""
        qc = generators.build("ising", 12)
        nat = evaluate_partition(qc, get_partitioner("Nat").partition(qc, 7))
        dagp = evaluate_partition(qc, get_partitioner("dagP").partition(qc, 7))
        assert dagp.num_parts <= nat.num_parts

    def test_moved_fraction_tracks_overlap(self):
        # Full overlap between consecutive parts => nothing moves.
        qc = QuantumCircuit(3)
        qc.h(0).cx(0, 1).h(1).cx(1, 0)
        p = Partition.from_assignment(qc, [0, 0, 1, 1], limit=2, strategy="t")
        m = evaluate_partition(qc, p)
        assert m.estimated_moved_fraction == 0.0

    def test_summary_renders(self):
        _, _, m = self._metrics()
        s = m.summary()
        assert "parts=" in s and "cut=" in s and "sweeps=" in s


class TestFusedCost:
    def test_fused_cost_fields(self):
        qc = generators.build("qft", 10)
        p = get_partitioner("dagP").partition(qc, 7)
        m = evaluate_partition(qc, p)
        assert m.sweeps_unfused == len(qc)
        assert 0 < m.sweeps_fused < m.sweeps_unfused
        assert m.fusion_factor > 1.0
        assert m.flops_unfused > 0 and m.flops_fused > 0

    def test_cap_one_disables_dense_fusion_gains(self):
        qc = generators.build("grover", 9)
        p = get_partitioner("dagP").partition(qc, 6)
        wide = evaluate_partition(qc, p, max_fused_qubits=5)
        narrow = evaluate_partition(qc, p, max_fused_qubits=1)
        assert wide.sweeps_fused <= narrow.sweeps_fused

    def test_unfused_flops_match_kernel_model(self):
        from repro.sv.kernels import flops_for_gate

        qc = generators.build("bv", 8)
        p = get_partitioner("Nat").partition(qc, 5)
        m = evaluate_partition(qc, p)
        expect = sum(
            flops_for_gate(g.num_qubits, 8, g.is_diagonal) for g in qc
        )
        assert m.flops_unfused == expect

    def test_empty_partition_zero_cost(self):
        qc = QuantumCircuit(2)
        p = Partition.from_assignment(qc, [], 2, "t")
        m = evaluate_partition(qc, p)
        assert m.sweeps_fused == 0 and m.flops_fused == 0
        assert m.fusion_factor == 0.0
