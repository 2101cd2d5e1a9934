"""Distributed engine tests: HiSVSIM and IQS vs the flat reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import generators
from repro.dist import HiSVSimEngine, IQSEngine
from repro.partition import DagPPartitioner, get_partitioner, multilevel_partition
from repro.sv.simulator import StateVectorSimulator, random_state

from conftest import SUITE_SMALL, random_circuit


def flat(qc, initial=None):
    sim = StateVectorSimulator(qc.num_qubits, initial_state=initial)
    sim.run(qc)
    return sim.state


class TestHiSVSimCorrectness:
    @pytest.mark.parametrize("name,n", SUITE_SMALL)
    @pytest.mark.parametrize("ranks", [2, 4])
    def test_matches_flat(self, name, n, ranks):
        qc = generators.build(name, n)
        local = n - (ranks.bit_length() - 1)
        p = get_partitioner("dagP").partition(qc, local)
        state, report = HiSVSimEngine(ranks).run(qc, p)
        assert np.allclose(state.to_full(), flat(qc), atol=1e-9)
        assert report.num_parts == p.num_parts
        assert report.comp_seconds > 0

    def test_initial_state(self):
        qc = generators.build("ising", 8)
        init = random_state(8, seed=5)
        p = get_partitioner("Nat").partition(qc, 6)
        state, _ = HiSVSimEngine(4).run(qc, p, initial_full=init)
        assert np.allclose(state.to_full(), flat(qc, initial=init), atol=1e-9)

    @pytest.mark.parametrize("strategy", ["Nat", "DFS", "dagP"])
    def test_all_strategies(self, strategy):
        qc = generators.build("qaoa", 9)
        p = get_partitioner(strategy).partition(qc, 7)
        state, _ = HiSVSimEngine(4).run(qc, p)
        assert np.allclose(state.to_full(), flat(qc), atol=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 9999))
    def test_property_random_circuits(self, seed):
        qc = random_circuit(8, 25, seed=seed)
        p = get_partitioner("dagP").partition(qc, 6)
        state, _ = HiSVSimEngine(4).run(qc, p)
        assert np.allclose(state.to_full(), flat(qc), atol=1e-9)


class TestMultilevelEngine:
    @pytest.mark.parametrize("name,n", SUITE_SMALL[:6])
    def test_multilevel_matches_flat(self, name, n):
        qc = generators.build(name, n)
        local = n - 2
        ml = multilevel_partition(qc, DagPPartitioner(), local, max(2, local - 2))
        state, report = HiSVSimEngine(4).run(
            qc, ml.outer, multilevel=ml
        )
        assert np.allclose(state.to_full(), flat(qc), atol=1e-9)
        assert report.strategy.endswith("-ML")


class TestIQSCorrectness:
    @pytest.mark.parametrize("name,n", SUITE_SMALL)
    @pytest.mark.parametrize("ranks", [2, 4])
    def test_matches_flat(self, name, n, ranks):
        qc = generators.build(name, n)
        state, report = IQSEngine(ranks).run(qc)
        assert np.allclose(state.to_full(), flat(qc), atol=1e-9)
        # Static mapping restored after every gate.
        from repro.sv.layout import QubitLayout

        assert state.layout == QubitLayout.identity(n)

    @pytest.mark.parametrize("control_fp", [True, False])
    @pytest.mark.parametrize("diagonal_fp", [True, False])
    def test_fastpath_toggles_keep_correctness(self, control_fp, diagonal_fp):
        qc = random_circuit(8, 30, seed=4)
        eng = IQSEngine(
            4, control_fastpath=control_fp, diagonal_fastpath=diagonal_fp
        )
        state, _ = eng.run(qc)
        assert np.allclose(state.to_full(), flat(qc), atol=1e-9)

    def test_fastpaths_reduce_traffic(self):
        qc = generators.build("qft", 9)
        _, with_fp = IQSEngine(4, diagonal_fastpath=True).run(qc)
        _, without = IQSEngine(4, diagonal_fastpath=False).run(qc)
        assert with_fp.comm.total_bytes < without.comm.total_bytes

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 9999))
    def test_property_random_circuits(self, seed):
        qc = random_circuit(7, 20, seed=seed)
        state, _ = IQSEngine(4).run(qc)
        assert np.allclose(state.to_full(), flat(qc), atol=1e-9)


class TestDryRunConsistency:
    @pytest.mark.parametrize("name,n", SUITE_SMALL[:6])
    def test_hisvsim_dry_matches_real_traffic(self, name, n):
        qc = generators.build(name, n)
        p = get_partitioner("dagP").partition(qc, n - 2)
        _, real = HiSVSimEngine(4).run(qc, p)
        _, dry = HiSVSimEngine(4, dry_run=True).run(qc, p)
        assert dry.comm.total_bytes == real.comm.total_bytes
        assert dry.comm.total_msgs == real.comm.total_msgs
        assert dry.comm.max_bytes_per_rank == pytest.approx(
            real.comm.max_bytes_per_rank
        )
        assert dry.comp_seconds == pytest.approx(real.comp_seconds)

    @pytest.mark.parametrize("name,n", SUITE_SMALL[:6])
    def test_iqs_dry_matches_real_traffic(self, name, n):
        qc = generators.build(name, n)
        _, real = IQSEngine(4).run(qc)
        _, dry = IQSEngine(4, dry_run=True).run(qc)
        assert dry.comm.total_bytes == real.comm.total_bytes
        assert dry.comm.max_bytes_per_rank == pytest.approx(
            real.comm.max_bytes_per_rank
        )

    def test_dry_run_rejects_initial_state(self):
        qc = generators.build("bv", 8)
        p = get_partitioner("Nat").partition(qc, 6)
        with pytest.raises(ValueError):
            HiSVSimEngine(4, dry_run=True).run(
                qc, p, initial_full=np.zeros(256, dtype=complex)
            )
        with pytest.raises(ValueError):
            IQSEngine(4, dry_run=True).run(
                qc, initial_full=np.zeros(256, dtype=complex)
            )


class TestPaperShape:
    """The headline claims, asserted at test scale."""

    def test_hisvsim_communicates_less_than_iqs(self):
        for name, n in [("bv", 10), ("ising", 10), ("qaoa", 10)]:
            qc = generators.build(name, n)
            p = get_partitioner("dagP").partition(qc, n - 3)
            _, h = HiSVSimEngine(8, dry_run=True).run(qc, p)
            _, i = IQSEngine(8, dry_run=True).run(qc)
            assert h.comm.total_bytes < i.comm.total_bytes, name

    def test_improvement_factor_above_one(self):
        qc = generators.build("cc", 12)
        p = get_partitioner("dagP").partition(qc, 9)
        _, h = HiSVSimEngine(8, dry_run=True).run(qc, p)
        _, i = IQSEngine(8, dry_run=True).run(qc)
        assert i.total_seconds / h.total_seconds > 1.0

