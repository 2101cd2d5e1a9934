"""Edge cases of the distributed layer: degenerate splits, rank-only
layout changes, and long remap chains."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import HiSVSimEngine, IQSEngine
from repro.dist.analytic import exchange_step_stats
from repro.dist.exchange import swap_qubit_positions
from repro.dist.state import DistributedStateVector, LayoutOnlyState
from repro.runtime.comm import SimComm
from repro.sv.layout import QubitLayout
from repro.sv.simulator import random_state


class TestNonPowerOfTwoRanks:
    @pytest.mark.parametrize("ranks", [0, 3, 6, 12, -4])
    def test_comm_rejects(self, ranks):
        with pytest.raises(ValueError):
            SimComm(ranks)

    @pytest.mark.parametrize("ranks", [3, 6, 12])
    def test_engines_reject(self, ranks):
        with pytest.raises(ValueError):
            HiSVSimEngine(ranks)
        with pytest.raises(ValueError):
            IQSEngine(ranks)


    @pytest.mark.parametrize("width", [0, -3])
    def test_engine_rejects_a_fused_width_below_one(self, width):
        # The same refusal, in the same words, as RunOptions.
        from repro.config import RunOptions

        with pytest.raises(ValueError) as options:
            RunOptions(max_fused_qubits=width)
        with pytest.raises(ValueError) as engine:
            HiSVSimEngine(2, fuse=True, max_fused_qubits=width)
        assert str(engine.value) == str(options.value)


class TestSingleRankDegenerate:
    """R=1: the whole state is one shard and nothing ever communicates."""

    def test_no_process_qubits(self):
        dsv = DistributedStateVector.zero(4, SimComm(1))
        assert dsv.process_bits == 0 and dsv.local_bits == 4
        assert dsv.process_qubits() == []
        assert dsv.local_qubits() == [0, 1, 2, 3]
        assert all(dsv.is_local(q) for q in range(4))

    def test_remap_is_traffic_free(self):
        state = random_state(4, seed=11)
        comm = SimComm(1)
        dsv = DistributedStateVector.from_full(state, comm)
        dsv.remap(QubitLayout([3, 2, 1, 0]))
        assert comm.stats.total_bytes == 0
        assert np.allclose(dsv.to_full(), state, atol=1e-12)

    def test_layout_only_matches(self):
        comm = SimComm(1)
        s = LayoutOnlyState(4, comm)
        s.remap(QubitLayout([3, 2, 1, 0]))
        assert comm.stats.total_bytes == 0
        lay = QubitLayout.identity(4)
        assert exchange_step_stats(lay, QubitLayout([3, 2, 1, 0]), 4) == (
            0,
            0,
            0,
            0,
        )


class TestProcessOnlyLayoutChange:
    """Layouts differing only in process positions relabel whole shards."""

    def test_process_swap_ships_full_shards(self):
        n, local = 6, 4
        old = QubitLayout.identity(n)
        new = swap_qubit_positions(old, 4, 5)  # both process-resident
        tb, tm, mb, mm = exchange_step_stats(old, new, local)
        shard_bytes = 16 << local
        # Ranks 0b01 and 0b10 trade places; 0b00 and 0b11 stay put.
        assert (tb, tm, mb, mm) == (2 * shard_bytes, 2, shard_bytes, 1)

    def test_matches_real_exchange(self):
        n, local = 6, 4
        comm = SimComm(4)
        state = random_state(n, seed=12)
        dsv = DistributedStateVector.from_full(state, comm)
        new = swap_qubit_positions(dsv.layout, 4, 5)
        comm.reset_stats()
        dsv.remap(new)
        real = comm.reset_stats()
        tb, tm, mb, mm = exchange_step_stats(QubitLayout.identity(n), new, local)
        assert (tb, tm, mb, mm) == (
            real.total_bytes,
            real.total_msgs,
            real.max_bytes_per_rank,
            real.max_msgs_per_rank,
        )
        assert np.allclose(dsv.to_full(), state, atol=1e-12)

    def test_three_process_bits_rotation(self):
        # Rotate three process positions: every rank moves, none keeps data.
        n, local = 7, 4
        old = QubitLayout.identity(n)
        perm = list(range(n))
        perm[4], perm[5], perm[6] = 5, 6, 4
        new = QubitLayout(perm)
        tb, tm, mb, mm = exchange_step_stats(old, new, local)
        shard_bytes = 16 << local
        # Fixed points of the rank rotation: ranks 0b000 and 0b111 only.
        assert tm == 8 - 2
        assert tb == tm * shard_bytes
        assert (mb, mm) == (shard_bytes, 1)


class TestRemapRoundTrips:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_from_full_remap_chain_to_full(self, data):
        n = 7
        state = random_state(n, seed=13)
        ranks = data.draw(st.sampled_from([2, 4, 8]))
        dsv = DistributedStateVector.from_full(state, SimComm(ranks))
        k = data.draw(st.integers(1, 4))
        for _ in range(k):
            perm = list(range(n))
            rnd = data.draw(st.randoms(use_true_random=False))
            rnd.shuffle(perm)
            dsv.remap(QubitLayout(perm))
        assert np.allclose(dsv.to_full(), state, atol=1e-12)
        assert dsv.norm() == pytest.approx(1.0)
