"""Machine model, SimComm and metrics tests."""

import numpy as np
import pytest

from repro.runtime.comm import SimComm
from repro.runtime.machine import FRONTERA_LIKE, WORKSTATION_LIKE, MachineModel
from repro.runtime.metrics import CommStats, ComputeStats, RunReport


class TestMachineModel:
    def test_bandwidth_level_selection(self):
        m = MachineModel()
        assert m.bandwidth_for_working_set(1024) == m.l1_bw
        assert m.bandwidth_for_working_set(512 * 1024) == m.l2_bw
        assert m.bandwidth_for_working_set(16 * 1024 * 1024) == m.l3_bw
        assert m.bandwidth_for_working_set(1 << 40) == m.dram_bw

    def test_bandwidths_monotone(self):
        m = MachineModel()
        assert m.l1_bw >= m.l2_bw >= m.l3_bw >= m.dram_bw

    def test_compute_time_roofline(self):
        m = MachineModel()
        # Memory-bound: huge bytes, tiny flops.
        t_mem = m.compute_time(1.0, 1e9, 1 << 40)
        assert t_mem == pytest.approx(1e9 / m.dram_bw)
        # Compute-bound: huge flops, tiny bytes.
        t_flop = m.compute_time(1e12, 1.0, 1024)
        assert t_flop == pytest.approx(1e12 / m.flops)

    def test_thread_scaling_close_to_linear(self):
        m = MachineModel(thread_efficiency=0.95)
        s2 = m.with_threads(2).thread_scale()
        s16 = m.with_threads(16).thread_scale()
        assert 1.8 <= s2 <= 2.0
        assert 10 <= s16 <= 16
        assert m.with_threads(1).thread_scale() == 1.0

    def test_exchange_time_alpha_beta(self):
        m = MachineModel(net_alpha=1e-6, net_beta=1e9, congestion=0.0)
        t = m.exchange_time(1e9, 10)
        assert t == pytest.approx(1e-5 + 1.0)
        assert m.exchange_time(0, 0) == 0.0

    def test_congestion_slows_collectives(self):
        m = MachineModel(congestion=0.5)
        t4 = m.exchange_time(1e9, 1, num_ranks=4)
        t256 = m.exchange_time(1e9, 1, num_ranks=256)
        assert t256 > t4 > m.exchange_time(1e9, 1, num_ranks=1)

    def test_exchange_time_linear_in_accumulated_steps(self):
        # Summing per-step maxima == one call on the sums (engine relies
        # on this to compute comm time once at the end).
        m = MachineModel()
        steps = [(1e6, 3), (2e6, 5), (5e5, 1)]
        total = sum(m.exchange_time(b, n, 8) for b, n in steps)
        bulk = m.exchange_time(
            sum(b for b, _ in steps), sum(n for _, n in steps), 8
        )
        assert total == pytest.approx(bulk)

    def test_profiles_exist(self):
        assert FRONTERA_LIKE.net_beta > 0
        assert WORKSTATION_LIKE.dram_bw < FRONTERA_LIKE.dram_bw * 2


class TestSimComm:
    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            SimComm(3)
        with pytest.raises(ValueError):
            SimComm(0)

    def test_identity_permutation_no_traffic(self):
        comm = SimComm(4)
        shards = (np.arange(16, dtype=np.complex128)).reshape(4, 4)
        out = comm.exchange(shards, [0, 1, 2, 3])
        assert np.array_equal(out, shards)
        assert not np.shares_memory(out, shards)  # always a fresh matrix
        # Moving amplitudes between in-process rows counts nothing by
        # itself: the state charges a remap its closed-form traffic.
        assert comm.stats.total_bytes == 0
        assert comm.stats.steps == 0

    def test_rank_bit_swap_trades_whole_shards(self):
        # Swapping the two rank bits: ranks 1 and 2 trade their whole
        # shards, ranks 0 and 3 keep theirs.
        R, L = 4, 8
        comm = SimComm(R)
        shards = np.arange(R * L, dtype=np.complex128).reshape(R, L)
        out = comm.exchange(shards, [0, 1, 2, 4, 3])
        assert np.array_equal(out[[0, 2, 1, 3]], shards)

    def test_local_and_rank_bits_cross(self):
        # Bit 0 (local) <-> bit 2 (rank) on a 2 x 4 matrix, against the
        # definition: packed index i moves to permute_bits(i, sigma).
        comm = SimComm(2)
        shards = np.arange(8, dtype=np.complex128).reshape(2, 4)
        out = comm.exchange(shards, [2, 1, 0])
        assert out.reshape(-1).real.tolist() == [0, 4, 2, 6, 1, 5, 3, 7]

    def test_plan_shape_mismatch(self):
        comm = SimComm(2)
        shards = np.zeros((2, 4), dtype=np.complex128)
        with pytest.raises(ValueError):
            comm.exchange(shards, [0, 1, 2, 3])  # a 4-bit plan, 3-bit data
        with pytest.raises(ValueError, match="2 ranks"):
            comm.exchange(shards.reshape(4, 2), [0, 1, 2])  # 4 rows

    def test_non_permutation_sigma_rejected(self):
        comm = SimComm(2)
        shards = np.zeros((2, 4), dtype=np.complex128)
        for sigma in ([0, 0, 1], [0, 1, 3], [0, 1, -1]):
            with pytest.raises(ValueError, match="permutation"):
                comm.exchange(shards, sigma)

    def test_reset_stats(self):
        comm = SimComm(2)
        comm.stats.add_step(200, 2, 100, 1)
        st = comm.reset_stats()
        assert st.total_bytes == 200
        assert comm.stats.total_bytes == 0


class TestMetrics:
    def test_commstats_accumulation(self):
        st = CommStats()
        st.add_step(100, 2, 60, 1)
        st.add_step(50, 1, 50, 1)
        assert st.total_bytes == 150
        assert st.steps == 2
        assert st.max_bytes_per_rank == 110  # summed per-step maxima

    def test_merge(self):
        a, b = CommStats(), CommStats()
        a.add_step(10, 1, 10, 1)
        b.add_step(20, 2, 20, 2)
        a.merge(b)
        assert a.total_bytes == 30
        assert a.max_msgs_per_rank == 3
        c = ComputeStats(flops=5, bytes_swept=10, gates=1)
        d = ComputeStats(flops=1, bytes_swept=2, gates=2)
        c.merge(d)
        assert c.flops == 6 and c.gates == 3

    def test_run_report_derived(self):
        rep = RunReport("E", "c", "s", 10, 4, comp_seconds=3.0, comm_seconds=1.0)
        assert rep.total_seconds == 4.0
        assert rep.comm_ratio == 0.25
        assert "E/s" in rep.summary()

    def test_run_report_zero_guard(self):
        rep = RunReport("E", "c", "s", 10, 4)
        assert rep.comm_ratio == 0.0
