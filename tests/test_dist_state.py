"""DistributedStateVector, exchange planning and analytic accounting tests."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import generators
from repro.dist import HiSVSimEngine
from repro.dist.analytic import engine_exchange_layouts, exchange_step_stats
from repro.dist.exchange import (
    plan_layout_for_part,
    remap_schedule,
    swap_qubit_positions,
)
from repro.partition import get_partitioner
from repro.dist.state import DistributedStateVector, LayoutOnlyState
from repro.runtime.comm import SimComm
from repro.sv.layout import QubitLayout
from repro.sv.simulator import random_state

from conftest import scatter_reference


@st.composite
def layouts(draw, n):
    perm = list(range(n))
    rnd = draw(st.randoms(use_true_random=False))
    rnd.shuffle(perm)
    return QubitLayout(perm)


class TestConstruction:
    def test_zero_state(self):
        dsv = DistributedStateVector.zero(4, SimComm(4))
        full = dsv.to_full()
        assert full[0] == 1 and np.all(full[1:] == 0)
        assert dsv.local_bits == 2 and dsv.process_bits == 2

    def test_from_full_roundtrip(self):
        state = random_state(5, seed=1)
        dsv = DistributedStateVector.from_full(state, SimComm(8))
        assert np.allclose(dsv.to_full(), state)

    def test_from_full_with_layout(self):
        state = random_state(4, seed=2)
        lay = QubitLayout([3, 1, 0, 2])
        dsv = DistributedStateVector.from_full(state, SimComm(4), layout=lay)
        assert np.allclose(dsv.to_full(), state)

    def test_too_many_ranks(self):
        with pytest.raises(ValueError):
            DistributedStateVector.zero(2, SimComm(8))

    def test_queries(self):
        dsv = DistributedStateVector.zero(4, SimComm(4))
        assert dsv.local_qubits() == [0, 1]
        assert dsv.process_qubits() == [2, 3]
        assert dsv.is_local(0) and not dsv.is_local(3)
        assert dsv.norm() == pytest.approx(1.0)


class TestRemap:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_remap_preserves_logical_state(self, data):
        n = 5
        state = random_state(n, seed=7)
        dsv = DistributedStateVector.from_full(state, SimComm(4))
        new_layout = data.draw(layouts(n))
        dsv.remap(new_layout)
        assert dsv.layout == new_layout
        assert np.allclose(dsv.to_full(), state, atol=1e-12)

    def test_remap_identity_is_free(self):
        dsv = DistributedStateVector.zero(4, SimComm(4))
        dsv.comm.reset_stats()
        dsv.remap(dsv.layout)
        assert dsv.comm.stats.steps == 0

    def test_chained_remaps(self):
        state = random_state(6, seed=8)
        dsv = DistributedStateVector.from_full(state, SimComm(8))
        for perm in ([5, 4, 3, 2, 1, 0], [2, 3, 0, 1, 5, 4], [0, 1, 2, 3, 4, 5]):
            dsv.remap(QubitLayout(perm))
        assert np.allclose(dsv.to_full(), state, atol=1e-12)


    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_remap_then_inverse_is_the_bitwise_identity(self, data):
        n = 6
        ranks = data.draw(st.sampled_from([2, 4, 8]))
        old, new = data.draw(layouts(n)), data.draw(layouts(n))
        dsv = DistributedStateVector.from_full(
            random_state(n, seed=9), SimComm(ranks), layout=old
        )
        before = dsv.shards.copy()
        dsv.remap(new)  # sigma
        dsv.remap(old)  # sigma^-1
        assert np.array_equal(
            dsv.shards.view(np.uint8), before.view(np.uint8)
        )

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_shard_remap_chain_gather_returns_the_input(self, data):
        n = 6
        ranks = data.draw(st.sampled_from([1, 2, 4, 8]))
        chain = data.draw(st.lists(layouts(n), min_size=1, max_size=4))
        state = random_state(n, seed=10)
        dsv = DistributedStateVector.from_full(
            state, SimComm(ranks), layout=chain[0]
        )
        assert not np.shares_memory(dsv.shards, state)  # copied
        for layout in chain[1:]:
            dsv.remap(layout)
        full = dsv.to_full()
        assert np.array_equal(full.view(np.uint8), state.view(np.uint8))
        assert not np.shares_memory(full, dsv.shards)  # a fresh array


class TestAllocation:
    """A layout change costs about one copy of the state, not a stack of
    ``2^n``-long index arrays (4.8x / 2.5x the state before)."""

    N, RANKS = 18, 4
    STATE_BYTES = 16 << N

    def peak_of(self, fn):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = fn()
            return (tracemalloc.get_traced_memory()[1] - base), result
        finally:
            tracemalloc.stop()

    def test_remap_to_full_from_full_allocate_one_state(self):
        state = random_state(self.N, seed=4)
        rest = [q for q in range(self.N) if q not in (17, 3, 16)]
        layout = QubitLayout([17, 3, 16] + rest)
        budget = 1.25 * self.STATE_BYTES

        peak, dsv = self.peak_of(
            lambda: DistributedStateVector.from_full(
                state, SimComm(self.RANKS), layout=layout
            )
        )
        assert peak <= budget, ("from_full", peak / self.STATE_BYTES)
        new = swap_qubit_positions(swap_qubit_positions(layout, 0, 17), 5, 3)
        peak, _ = self.peak_of(lambda: dsv.remap(new))
        assert dsv.comm.stats.steps == 1  # it did cross ranks
        assert peak <= budget, ("remap", peak / self.STATE_BYTES)
        peak, full = self.peak_of(dsv.to_full)
        assert peak <= budget, ("to_full", peak / self.STATE_BYTES)
        assert np.array_equal(full, state)

    def test_remaps_write_into_the_buffer_the_last_one_left(self):
        # Only the first remap allocates a state: later ones ping-pong,
        # so the memory a run holds does not depend on how the allocator
        # placed a stream of freed 2^n-amplitude buffers.
        state = random_state(self.N, seed=5)
        dsv = DistributedStateVector.from_full(state, SimComm(self.RANKS))
        first = dsv.shards
        a = swap_qubit_positions(QubitLayout.identity(self.N), 0, 17)
        b = swap_qubit_positions(a, 1, 16)
        dsv.remap(a)

        def two_remaps():
            dsv.remap(b)
            dsv.remap(a)

        peak, _ = self.peak_of(two_remaps)
        assert dsv.comm.stats.steps == 3
        assert peak < self.STATE_BYTES / 8
        assert dsv.shards is not first
        dsv.remap(b)
        assert dsv.shards is first
        assert np.array_equal(dsv.to_full(), state)
        dsv.release_spare()
        peak, _ = self.peak_of(lambda: dsv.remap(a))
        assert peak >= self.STATE_BYTES  # the spare is gone

    def test_an_engine_run_returns_its_state_without_the_spare(self):
        qc = generators.build("qft", self.N)
        partition = get_partitioner("dagP").partition(qc, self.N - 2)
        engine = HiSVSimEngine(self.RANKS, fuse=True)
        engine.run(qc, partition)  # its plans are cached before tracing
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            dsv, report = engine.run(qc, partition)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert report.comm.steps > 1
        assert held < 1.25 * self.STATE_BYTES


class TestPlanLayout:
    def test_noop_when_already_local(self):
        lay = QubitLayout.identity(6)
        out = plan_layout_for_part(lay, [0, 1, 2], local_bits=4)
        assert out == lay

    def test_brings_working_set_local(self):
        lay = QubitLayout.identity(6)
        out = plan_layout_for_part(lay, [4, 5], local_bits=4)
        assert all(out.position(q) < 4 for q in (4, 5))
        # Untouched process structure: it is still a permutation.
        assert sorted(out.positions) == list(range(6))

    def test_minimal_motion(self):
        lay = QubitLayout.identity(8)
        out = plan_layout_for_part(lay, [6], local_bits=5)
        # Exactly one swap: 6 came down, one resident went up.
        moved = [q for q in range(8) if out.position(q) != lay.position(q)]
        assert len(moved) == 2 and 6 in moved

    def test_lookahead_prefers_keeping_next_part_qubits(self):
        lay = QubitLayout.identity(6)
        out = plan_layout_for_part(
            lay, [5], local_bits=4, next_part_qubits=[0, 1, 2]
        )
        # Evicted qubit should be 3 (local, not needed now or next).
        assert out.position(3) >= 4
        assert all(out.position(q) < 4 for q in (0, 1, 2, 5))

    def test_oversized_working_set_rejected(self):
        with pytest.raises(ValueError):
            plan_layout_for_part(QubitLayout.identity(6), [0, 1, 2], local_bits=2)

    def test_swap_positions(self):
        lay = QubitLayout.identity(4)
        out = swap_qubit_positions(lay, 0, 3)
        assert out.position(0) == 3 and out.position(3) == 0
        assert out.position(1) == 1


class TestAnalyticExchange:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_simcomm_accounting(self, data):
        # The closed form, the step a remap records, and an elementwise
        # scatter counted pair by pair are the same four numbers.
        n = 5
        old = data.draw(layouts(n))
        new = data.draw(layouts(n))
        for R in (2, 4, 8):
            local_bits = n - (R.bit_length() - 1)
            comm = SimComm(R)
            dsv = DistributedStateVector.from_full(
                random_state(n, seed=3), comm, layout=old
            )
            _, counted, _ = scatter_reference(
                dsv.shards, old.transition_sigma(new)
            )
            comm.reset_stats()
            dsv.remap(new)
            real = comm.reset_stats()
            assert exchange_step_stats(old, new, local_bits) == counted
            assert counted == (
                real.total_bytes,
                real.total_msgs,
                real.max_bytes_per_rank,
                real.max_msgs_per_rank,
            )

    def test_identity_is_zero(self):
        lay = QubitLayout.identity(6)
        assert exchange_step_stats(lay, lay, 4) == (0, 0, 0, 0)

    def test_local_only_permutation_is_zero_traffic(self):
        old = QubitLayout.identity(6)
        new = QubitLayout([1, 0, 3, 2, 4, 5])  # shuffles local positions only
        tb, tm, mb, mm = exchange_step_stats(old, new, 4)
        assert tb == 0 and tm == 0

    def test_single_swap_moves_half(self):
        n, l = 6, 4
        old = QubitLayout.identity(n)
        new = swap_qubit_positions(old, 0, 5)
        tb, _, mb, _ = exchange_step_stats(old, new, l)
        # Each rank ships half its shard.
        assert mb == (1 << (l - 1)) * 16
        assert tb == 4 * (1 << (l - 1)) * 16


class TestLayoutOnlyState:
    def test_interface_parity(self):
        comm = SimComm(4)
        s = LayoutOnlyState(6, comm)
        assert s.local_bits == 4
        assert s.local_qubits() == [0, 1, 2, 3]
        assert s.process_qubits() == [4, 5]
        assert s.is_local(0) and not s.is_local(5)
        assert s.shards is None

    def test_remap_records_stats(self):
        comm = SimComm(4)
        s = LayoutOnlyState(6, comm)
        new = swap_qubit_positions(s.layout, 0, 5)
        s.remap(new)
        assert s.layout == new
        assert comm.stats.total_bytes > 0
        # identity remap: nothing recorded
        before = comm.stats.steps
        s.remap(new)
        assert comm.stats.steps == before

    def test_too_many_ranks(self):
        with pytest.raises(ValueError):
            LayoutOnlyState(2, SimComm(8))


class TestRemapSchedule:
    """One schedule: what the engine remaps to, what ``remap_schedule``
    yields and what the dry-run oracle checks are the same layouts."""

    @pytest.mark.parametrize("strategy", ["Nat", "DFS", "dagP"])
    @pytest.mark.parametrize("name", ["qft", "qaoa", "ising"])
    def test_engine_schedule_and_oracle_agree(
        self, strategy, name, monkeypatch
    ):
        n, ranks, local_bits = 8, 4, 6
        qc = generators.build(name, n)
        partition = get_partitioner(strategy).partition(qc, 5)

        remapped = []
        real_remap = LayoutOnlyState.remap

        def spy(self, new_layout):
            remapped.append(new_layout)
            real_remap(self, new_layout)

        monkeypatch.setattr(LayoutOnlyState, "remap", spy)
        _, report = HiSVSimEngine(ranks).run(qc, partition)

        assert remapped == list(remap_schedule(partition, n, local_bits))
        for part, layout in zip(partition.parts, remapped):
            assert all(layout.position(q) < local_bits for q in part.qubits)

        # The oracle's transitions chain through exactly the changed
        # layouts of that schedule, starting from the identity ...
        transitions = engine_exchange_layouts(partition, n, ranks)
        current = QubitLayout.identity(n)
        changed = []
        for layout in remapped:
            if layout != current:
                changed.append((current, layout))
                current = layout
        assert transitions == changed
        # ... and price them at what the engine's comm recorded.
        steps = [exchange_step_stats(a, b, local_bits) for a, b in transitions]
        assert report.comm.steps == sum(1 for step in steps if any(step))
        assert report.comm.total_bytes == sum(step[0] for step in steps)
        assert report.comm.total_msgs == sum(step[1] for step in steps)
