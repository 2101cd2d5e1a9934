"""Cross-module property tests: invariants spanning several subsystems."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.transforms import inverse_circuit
from repro.dist import HiSVSimEngine, IQSEngine
from repro.dist.state import DistributedStateVector
from repro.partition import get_partitioner
from repro.partition.metrics import evaluate_partition
from repro.runtime.comm import SimComm
from repro.sv import StateVectorSimulator, zero_state
from repro.sv.layout import QubitLayout
from repro.sv.simulator import random_state

from conftest import random_circuit


@st.composite
def layout_perm(draw, n):
    perm = list(range(n))
    rnd = draw(st.randoms(use_true_random=False))
    rnd.shuffle(perm)
    return QubitLayout(perm)


class TestRemapComposition:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_two_hops_equal_direct(self, data):
        """remap(A->B) then remap(B->C) must equal remap(A->C) in state."""
        n = 5
        state = random_state(n, seed=21)
        lb = data.draw(layout_perm(n))
        lc = data.draw(layout_perm(n))
        two_hop = DistributedStateVector.from_full(state, SimComm(4))
        two_hop.remap(lb)
        two_hop.remap(lc)
        direct = DistributedStateVector.from_full(state, SimComm(4))
        direct.remap(lc)
        assert np.allclose(two_hop.shards, direct.shards, atol=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_remap_roundtrip_is_identity(self, data):
        n = 6
        state = random_state(n, seed=22)
        dsv = DistributedStateVector.from_full(state, SimComm(8))
        before = dsv.shards.copy()
        lay = data.draw(layout_perm(n))
        original = dsv.layout
        dsv.remap(lay)
        dsv.remap(original)
        assert np.allclose(dsv.shards, before, atol=1e-12)


class TestPartitionEngineConsistency:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 9999))
    def test_metrics_agree_with_partition(self, seed):
        qc = random_circuit(8, 30, seed=seed)
        p = get_partitioner("dagP").partition(qc, 5)
        m = evaluate_partition(qc, p)
        assert m.num_parts == p.num_parts
        assert m.max_working_set <= 5
        assert m.gates_per_part_min >= 1
        assert 0.0 <= m.estimated_moved_fraction <= 1.0

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 9999), ranks=st.sampled_from([2, 4]))
    def test_both_engines_agree_bitwise_targets(self, seed, ranks):
        """HiSVSIM and IQS reach the same state from different comm paths."""
        qc = random_circuit(7, 18, seed=seed)
        local = 7 - (ranks.bit_length() - 1)
        p = get_partitioner("dagP").partition(qc, local)
        h_state, _ = HiSVSimEngine(ranks).run(qc, p)
        i_state, _ = IQSEngine(ranks).run(qc)
        assert np.allclose(h_state.to_full(), i_state.to_full(), atol=1e-9)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 9999))
    def test_part_count_roughly_monotone_in_limit(self, seed):
        """A looser working-set limit admits every tighter partition, so
        the *optimal* count is monotone; the heuristic is allowed one part
        of slack between adjacent limits but must respect the wide gap."""
        qc = random_circuit(8, 25, seed=seed)
        parts = []
        for limit in (4, 6, 8):
            p = get_partitioner("dagP").partition(qc, limit)
            parts.append(p.num_parts)
        assert parts[1] <= parts[0] + 1
        assert parts[2] <= parts[0]


class TestTransformEngineComposition:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 9999))
    def test_fuse_then_invert_through_partitioned_execution(self, seed):
        program = random_circuit(6, 20, seed=seed)
        program.extend(inverse_circuit(program).gates)
        p = get_partitioner("dagP").partition(program, 4)
        state = zero_state(6)
        from repro.sv import HierarchicalExecutor

        HierarchicalExecutor(fuse=True).run(program, p, state)
        assert np.isclose(abs(state[0]), 1.0, atol=1e-8)


class TestTrafficConservation:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 9999))
    def test_total_bytes_multiple_of_amplitude_size(self, seed):
        qc = random_circuit(8, 20, seed=seed)
        p = get_partitioner("dagP").partition(qc, 5)
        _, rep = HiSVSimEngine(4, dry_run=True).run(qc, p)
        assert rep.comm.total_bytes % 16 == 0
        # No step can move more than everything.
        total_state_bytes = 16 * (1 << 8)
        assert rep.comm.max_bytes_per_rank <= rep.comm.steps * total_state_bytes
