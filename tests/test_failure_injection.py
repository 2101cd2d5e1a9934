"""Failure-injection tests: every guard must actually fire.

Corrupts partitions, exchange plans, layouts and engine inputs in the
ways a buggy caller (or a future refactor) would, and asserts the system
rejects them loudly instead of silently producing wrong amplitudes.
"""

import numpy as np
import pytest

from repro.circuits import generators
from repro.circuits.circuit import QuantumCircuit
from repro.dist import HiSVSimEngine, IQSEngine
from repro.dist.state import DistributedStateVector
from repro.partition import Part, Partition, get_partitioner, validate_partition
from repro.runtime.comm import SimComm
from repro.sv import HierarchicalExecutor, random_state, zero_state
from repro.sv.layout import QubitLayout


class TestCorruptedPartitions:
    def _valid(self):
        qc = generators.build("ising", 8)
        return qc, get_partitioner("dagP").partition(qc, 5)

    def test_swapped_part_order_detected(self):
        qc, p = self._valid()
        if p.num_parts < 2:
            pytest.skip("needs >= 2 parts")
        shuffled = Partition(
            p.num_qubits,
            p.num_gates,
            p.limit,
            p.strategy,
            tuple(reversed(p.parts)),
        )
        rep = validate_partition(qc, shuffled)
        assert not rep.ok

    def test_dropped_gate_detected(self):
        qc, p = self._valid()
        first = p.parts[0]
        truncated = Part(first.gate_indices[:-1], first.qubits)
        broken = Partition(
            p.num_qubits,
            p.num_gates,
            p.limit,
            p.strategy,
            (truncated,) + p.parts[1:],
        )
        rep = validate_partition(qc, broken)
        assert any("uncovered" in m for m in rep.problems)

    def test_lying_qubit_set_detected(self):
        qc, p = self._valid()
        first = p.parts[0]
        lying = Part(first.gate_indices, first.qubits[:-1])
        broken = Partition(
            p.num_qubits, p.num_gates, p.limit, p.strategy,
            (lying,) + p.parts[1:],
        )
        rep = validate_partition(qc, broken)
        assert not rep.ok


class TestCorruptedExchangePlans:
    """A plan is a bit permutation, checked in O(n) on every exchange."""

    def test_non_bijective_plan_rejected(self):
        comm = SimComm(2)
        shards = np.zeros((2, 4), dtype=np.complex128)
        with pytest.raises(ValueError, match="not a permutation"):
            comm.exchange(shards, [0, 0, 1])  # two bits collide on bit 0

    def test_out_of_range_plan_rejected(self):
        comm = SimComm(2)
        shards = np.zeros((2, 4), dtype=np.complex128)
        with pytest.raises(ValueError, match="not a permutation"):
            comm.exchange(shards, [0, 1, 7])  # there is no bit 7

    def test_valid_plans_pass_validation(self):
        """The engine's real plans must survive strict validation."""
        qc = generators.build("qaoa", 10)
        p = get_partitioner("dagP").partition(qc, 7)
        comm = SimComm(4)
        state = DistributedStateVector.zero(10, comm)
        from repro.dist.exchange import plan_layout_for_part

        for part in p.parts:
            state.remap(
                plan_layout_for_part(state.layout, part.qubits, state.local_bits)
            )
        assert comm.stats.steps > 0  # no exception = plans were bijective


class TestEngineInputGuards:
    def test_hier_executor_rejects_wrong_width_partition(self):
        qc = generators.build("bv", 8)
        other = generators.build("bv", 9)
        p = get_partitioner("Nat").partition(other, 6)
        with pytest.raises(ValueError, match="does not describe"):
            HierarchicalExecutor().run(qc, p, zero_state(8))

    def test_distributed_engine_rejects_wrong_partition(self):
        qc = generators.build("bv", 8)
        other = generators.build("bv", 9)
        p = get_partitioner("Nat").partition(other, 6)
        with pytest.raises(ValueError, match="does not describe"):
            HiSVSimEngine(4).run(qc, p)

    def test_iqs_gate_wider_than_local_bits(self):
        # 2 local bits cannot host a 3-qubit gate's swapped-in operands.
        qc = QuantumCircuit(4)
        qc.ccx(0, 2, 3)
        with pytest.raises(ValueError, match="local qubits per rank"):
            IQSEngine(4).run(qc)

    def test_iqs_gate_wider_than_shard(self):
        qc = QuantumCircuit(3)
        qc.ccx(0, 1, 2)
        with pytest.raises(ValueError, match="local qubits per rank"):
            IQSEngine(4).run(qc)  # only 1 local bit

    def test_too_many_ranks_for_width(self):
        qc = generators.build("bv", 3)
        with pytest.raises(ValueError):
            IQSEngine(16).run(qc)

    @pytest.mark.parametrize("dry_run", [False, True])
    def test_rank_count_is_checked_before_the_working_set(self, dry_run):
        # 2048 ranks leave -1 local qubits: the register-width message
        # must win over "working set 7 exceeds local capacity -1".
        qc = generators.build("qft", 10)
        p = get_partitioner("dagP").partition(qc, 7)
        message = "2048 ranks need 11 process qubits but the register only has 10"
        with pytest.raises(ValueError, match=message):
            HiSVSimEngine(2048, dry_run=dry_run).run(qc, p)
        with pytest.raises(ValueError, match=message):
            IQSEngine(2048, dry_run=dry_run).run(qc)

    def test_hisvsim_rejects_initial_state_of_another_width(self):
        # Used to surface as "part working set 5 exceeds local capacity 4".
        qc = generators.build("qft", 8)
        p = get_partitioner("dagP").partition(qc, 5)
        comm = SimComm(4)
        comm.stats.add_step(16, 1, 16, 1)
        with pytest.raises(ValueError, match="6-qubit state.* 8 qubits"):
            HiSVSimEngine(4).run(
                qc, p, initial_full=random_state(6, seed=0), comm=comm
            )
        assert comm.stats.steps == 1  # refused before the comm was reset

    def test_iqs_rejects_initial_state_of_another_width(self):
        # Used to surface as "layout width does not match num_qubits".
        qc = generators.build("qft", 8)
        with pytest.raises(ValueError, match="6-qubit state.* 8 qubits"):
            IQSEngine(4).run(qc, initial_full=random_state(6, seed=0))

    def test_engine_rejects_oversized_working_set(self):
        # Partition computed for a larger local size than the engine has.
        qc = generators.build("qaoa", 8)
        p = get_partitioner("dagP").partition(qc, 8)  # single part, ws 8
        engine = HiSVSimEngine(8)  # only 5 local bits
        with pytest.raises(ValueError, match="exceeds local capacity"):
            engine.run(qc, p)


class TestNumericalIntegrity:
    def test_norm_preserved_under_many_remaps(self):
        comm = SimComm(4)
        state = DistributedStateVector.zero(8, comm)
        state.shards[:] = np.random.default_rng(0).standard_normal(
            state.shards.shape
        ) + 1j * np.random.default_rng(1).standard_normal(state.shards.shape)
        norm0 = state.norm()
        import random

        rnd = random.Random(3)
        for _ in range(10):
            perm = list(range(8))
            rnd.shuffle(perm)
            state.remap(QubitLayout(perm))
        assert state.norm() == pytest.approx(norm0)

    def test_engines_do_not_mutate_circuit(self):
        qc = generators.build("ising", 8)
        gates_before = qc.gates
        p = get_partitioner("dagP").partition(qc, 6)
        HiSVSimEngine(4).run(qc, p)
        IQSEngine(4).run(qc)
        assert qc.gates == gates_before
