"""Distributed engine tests: HiSVSIM and IQS vs the flat reference."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.circuits import generators
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import make_gate
from repro.dist import DistributedStateVector, HiSVSimEngine, IQSEngine
from repro.dist._cost import charge_gate
from repro.dist.exchange import swap_qubit_positions
from repro.dist.state import AMP_BYTES
from repro.partition import DagPPartitioner, get_partitioner, multilevel_partition
from repro.runtime.comm import SimComm
from repro.runtime.metrics import ComputeStats
from repro.sv.layout import QubitLayout
from repro.sv.simulator import StateVectorSimulator, random_state

from conftest import SUITE_SMALL, iqs_reference_apply, random_circuit
from strategies import circuits


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


def iqs_reference_run(engine, circuit, initial, keep_diagonal=True):
    """``IQSEngine.run``'s staging as first written, each gate through
    ``iqs_reference_apply``: ``(state, comm stats, compute, model
    seconds)``."""
    n = circuit.num_qubits
    state = DistributedStateVector.from_full(
        initial, SimComm(engine.num_ranks)
    )
    local_bits = state.local_bits
    identity = QubitLayout.identity(n)
    compute, seconds = ComputeStats(), 0.0
    for gate in circuit:
        seconds += charge_gate(
            engine.machine, compute, gate, local_bits, AMP_BYTES << local_bits
        )
        if engine.diagonal_fastpath and gate.is_diagonal:
            required = ()
        elif engine.control_fastpath:
            required = gate.qubits[gate.num_controls:]
        else:
            required = gate.qubits
        swapped_in = [q for q in required if q >= local_bits]
        scratch = [q for q in range(local_bits) if q not in gate.qubits]
        layout = identity
        for high, low in zip(swapped_in, scratch):
            layout = swap_qubit_positions(layout, high, low)
        state.remap(layout)
        iqs_reference_apply(engine, state, gate, keep_diagonal)
        state.remap(identity)
    return state, state.comm.stats, compute, seconds


def _rank_bit_operands():
    # 5 qubits on 4 ranks: qubits 3 and 4 address the rank.
    qc = QuantumCircuit(5)
    for name, qubits, params in [
        ("cx", (4, 0), ()), ("crz", (3, 1), (1.1,)), ("ccx", (3, 4, 2), ()),
        ("ccx", (0, 4, 1), ()), ("cswap", (3, 0, 4), ()), ("cz", (3, 4), ()),
        ("rzz", (0, 4), (0.7,)), ("ccz", (2, 3, 4), ()), ("h", (4,), ()),
    ]:
        qc.append(make_gate(name, qubits, params))
    return qc


class TestIQSRunsPlans:
    """Every IQS gate is a one-gate plan through ``state.run_plan``; held
    bit for bit, with every count and model second, to the engine's old
    per-gate kernels (``conftest.iqs_reference_apply``)."""

    @settings(max_examples=60, deadline=None)
    @given(
        qc=circuits(min_qubits=4, max_qubits=8, three_qubit=True),
        ranks=st.sampled_from([2, 4, 8]),
        control_fp=st.booleans(),
        diagonal_fp=st.booleans(),
        seed=st.integers(0, 99),
    )
    @example(qc=_rank_bit_operands(), ranks=4, control_fp=True,
             diagonal_fp=True, seed=1)
    @example(qc=_rank_bit_operands(), ranks=4, control_fp=True,
             diagonal_fp=False, seed=2)
    @example(qc=_rank_bit_operands(), ranks=2, control_fp=False,
             diagonal_fp=True, seed=3)
    def test_property_matches_old_kernels(
        self, qc, ranks, control_fp, diagonal_fp, seed
    ):
        n = qc.num_qubits
        assume(n - ranks.bit_length() + 1 >= max(g.num_qubits for g in qc))
        initial = random_state(n, seed)
        engine = IQSEngine(
            ranks, control_fastpath=control_fp, diagonal_fastpath=diagonal_fp
        )
        state, report = engine.run(qc, initial_full=initial)
        want, comm, compute, seconds = iqs_reference_run(engine, qc, initial)
        assert state.shards.tobytes() == want.shards.tobytes()
        assert state.layout == want.layout
        assert report.comm == comm
        assert report.compute == compute
        assert report.comp_seconds == seconds
        assert report.comm_seconds == engine.machine.exchange_time(
            comm.max_bytes_per_rank, comm.max_msgs_per_rank, ranks
        )
        # The old kernels exactly differ only in last bits, where a
        # diagonal gate's rank-bit control made them run a dense GEMM.
        old = iqs_reference_run(engine, qc, initial, keep_diagonal=False)[0]
        assert np.allclose(state.shards, old.shards, rtol=0, atol=1e-12)

    def test_diagonal_on_rank_bits_needs_no_exchange(self):
        # Qubits 3 and 4 address the rank; a diagonal on them stays put.
        gates = [make_gate("rzz", [0, 4], (0.7,)),
                 make_gate("crz", [3, 1], (1.1,)),
                 make_gate("cz", [3, 4])]
        qc = QuantumCircuit(5)
        for gate in gates:
            qc.append(gate)
        initial = random_state(5, seed=2)
        state, report = IQSEngine(4).run(qc, initial_full=initial)
        assert report.comm.steps == 0
        expected = flat(qc, initial)
        assert np.allclose(state.to_full(), expected, atol=1e-12)


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
    """The headline claims, asserted at test scale on the paper's
    gate-for-gate model (``fuse=False``), as the figures run it."""

    def test_hisvsim_communicates_less_than_iqs(self):
        for name, n in [("bv", 10), ("ising", 10), ("qaoa", 10)]:
            qc = generators.build(name, n)
            p = get_partitioner("dagP").partition(qc, n - 3)
            _, h = HiSVSimEngine(8, dry_run=True, fuse=False).run(qc, p)
            _, i = IQSEngine(8, dry_run=True).run(qc)
            assert h.comm.total_bytes < i.comm.total_bytes, name

    def test_improvement_factor_above_one(self):
        qc = generators.build("cc", 12)
        p = get_partitioner("dagP").partition(qc, 9)
        _, h = HiSVSimEngine(8, dry_run=True, fuse=False).run(qc, p)
        _, i = IQSEngine(8, dry_run=True).run(qc)
        assert i.total_seconds / h.total_seconds > 1.0

