"""Socket transport tests: the dry-run traffic model as correctness oracle.

The in-process ``SimComm`` (all ranks in one process) is the behaviour
every model number in the reproduction is pinned against; its
``SocketTransport`` subclass runs one OS process (here: thread, via
``run_spmd``) per rank over a real TCP mesh.  These tests hold the two
together:

* differential — SPMD runs produce ``to_full()`` *bit-identical* to the
  in-process comm, across backends and rank counts;
* traffic oracle — every per-rank :class:`ExchangeRecord` equals the
  closed-form :func:`exchange_rank_stats`, whose rank-sum equals the
  global :func:`exchange_step_stats` already pinned by the dry-run
  suite;
* the no-op-remap regression — zero-traffic exchanges record no step,
  in the in-process comm, the analytic state and the model alike;
* fault injection — dead peers, mid-frame disconnects and frames of
  any length but the expected one surface as clean
  :class:`TransportError`\\ s, never hangs.

The oracle for what an exchange moves and counts is the elementwise
``scatter_reference`` in ``conftest.py``.
"""

import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import generators
from repro.config import env
from repro.dist import (
    DistributedStateVector,
    HiSVSimEngine,
    LayoutOnlyState,
    exchange_rank_stats,
    exchange_step_stats,
    verify_exchange_records,
)
from repro.dist.transport import (
    AMP_BYTES,
    ExchangeRecord,
    SocketTransport,
    TransportError,
    run_spmd,
)
from repro.partition import get_partitioner
from repro.runtime.comm import SimComm
from repro.sv.layout import QubitLayout
from repro.sv.simulator import StateVectorSimulator, random_state

from conftest import scatter_reference
from strategies import circuits


@st.composite
def layout_pairs(draw, n):
    rnd = draw(st.randoms(use_true_random=False))
    old = list(range(n))
    new = list(range(n))
    rnd.shuffle(old)
    rnd.shuffle(new)
    return QubitLayout(old), QubitLayout(new)


def spmd_engine_run(num_ranks, name, qubits, strategy="dagP", limit=None):
    """Run one circuit SPMD over sockets; returns (fulls, transports)."""
    qc = generators.build(name, qubits)
    partition = get_partitioner(strategy).partition(
        qc, limit or max(3, qubits - 3)
    )
    transports = [None] * num_ranks

    def worker(rank, transport):
        transports[rank] = transport
        engine = HiSVSimEngine(num_ranks=num_ranks)
        state, report = engine.run(qc, partition, comm=transport)
        return state.to_full(), report

    results = run_spmd(num_ranks, worker)
    fulls = [r[0] for r in results]
    return qc, partition, fulls, transports, [r[1] for r in results]


def remap_everywhere(impl, num_ranks, shards, old, new):
    """Remap ``old -> new`` over one communicator implementation.

    Returns ``(new shard matrix, stats, records)``: one ``CommStats``
    per participant (the comm itself, or each SPMD rank) and, over
    sockets, each rank's ``ExchangeRecord``.
    """
    if impl == "in-process":
        comm = SimComm(num_ranks)
        state = DistributedStateVector(old.n, comm, shards, old)
        state.remap(new)
        assert comm.allgather_rows(state.shards) is state.shards
        return state.shards, [comm.stats], None

    def worker(rank, transport):
        assert isinstance(transport, SimComm) and transport.rank == rank
        mine = slice(rank, rank + 1)
        state = DistributedStateVector(old.n, transport, shards[mine], old)
        state.remap(new)
        gathered = transport.allgather_rows(state.shards)
        assert np.array_equal(gathered[mine], state.shards)
        return gathered, transport.stats, transport.records

    results = run_spmd(num_ranks, worker)
    for gathered, _, _ in results[1:]:
        assert np.array_equal(gathered, results[0][0])
    return (
        results[0][0],
        [stats for _, stats, _ in results],
        [records for _, _, records in results],
    )


def bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint8),
        np.ascontiguousarray(b).view(np.uint8),
    )


class TestCommunicatorContract:
    """One communicator, two implementations: the same remap through the
    in-process ``SimComm`` and through ``SocketTransport`` ranks moves
    the same amplitudes and accounts the same traffic as the model."""

    OLD = QubitLayout.identity(6)
    NEW = QubitLayout([5, 1, 4, 3, 0, 2])  # local and rank bits both move

    @pytest.mark.parametrize("num_ranks", [2, 4])
    @pytest.mark.parametrize("impl", ["in-process", "sockets"])
    def test_same_plan_same_shards_same_traffic(self, impl, num_ranks):
        n = self.OLD.n
        local_bits = n - (num_ranks.bit_length() - 1)
        shards = random_state(n, seed=11).reshape(num_ranks, 1 << local_bits)
        reference, _, _ = scatter_reference(
            shards, self.OLD.transition_sigma(self.NEW)
        )

        new, stats, _ = remap_everywhere(
            impl, num_ranks, shards, self.OLD, self.NEW
        )
        assert bitwise_equal(new, reference)
        total_bytes, total_msgs, max_bytes, max_msgs = exchange_step_stats(
            self.OLD, self.NEW, local_bits
        )
        assert total_bytes > 0  # the plan crosses ranks: the check has teeth
        assert sum(s.total_bytes for s in stats) == total_bytes
        assert sum(s.total_msgs for s in stats) == total_msgs
        assert max(s.max_bytes_per_rank for s in stats) == max_bytes
        assert max(s.max_msgs_per_rank for s in stats) == max_msgs
        assert all(s.steps == 1 for s in stats)
        if impl == "sockets":
            for rank, s in enumerate(stats):
                sent_b, sent_m, recv_b, recv_m = exchange_rank_stats(
                    self.OLD, self.NEW, local_bits, rank
                )
                assert (s.total_bytes, s.total_msgs) == (sent_b, sent_m)
                assert s.max_bytes_per_rank == max(sent_b, recv_b)
                assert s.max_msgs_per_rank == max(sent_m, recv_m)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_any_permutation_matches_the_elementwise_oracle(self, data):
        """Transposed view, slabs and both closed forms, all against the
        elementwise scatter + per-pair count."""
        n = data.draw(st.integers(min_value=3, max_value=8))
        num_ranks = data.draw(st.sampled_from([2, 4, 8]))
        old, new = data.draw(layout_pairs(n))
        local_bits = n - (num_ranks.bit_length() - 1)
        seed = data.draw(st.integers(min_value=0, max_value=99))
        shards = random_state(n, seed=seed).reshape(num_ranks, -1)
        reference, step, per_rank = scatter_reference(
            shards, old.transition_sigma(new)
        )
        assert step == exchange_step_stats(old, new, local_bits)

        moved, (stats,), _ = remap_everywhere(
            "in-process", num_ranks, shards, old, new
        )
        assert bitwise_equal(moved, reference)
        recorded = (stats.total_bytes, stats.total_msgs,
                    stats.max_bytes_per_rank, stats.max_msgs_per_rank)
        assert recorded == step and stats.steps == (1 if any(step) else 0)

        if old == new:
            return  # remap is a no-op: nothing reaches the transport
        rows, _, records = remap_everywhere(
            "sockets", num_ranks, shards, old, new
        )
        assert bitwise_equal(rows, reference)
        for rank, (record,) in enumerate(records):
            observed = (record.sent_bytes, record.sent_msgs,
                        record.recv_bytes, record.recv_msgs)
            assert observed == per_rank[rank]
            assert observed == exchange_rank_stats(old, new, local_bits, rank)
            # Amplitudes only on the wire: payload plus one 8-byte
            # prefix per frame, one frame each way per peer.
            assert record.wire_bytes == (
                record.sent_bytes + record.recv_bytes
                + 8 * 2 * (num_ranks - 1)
            )


class TestRankStatsModel:
    """exchange_rank_stats against the pinned global model."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_rank_sum_matches_global_model(self, data):
        n = data.draw(st.integers(min_value=3, max_value=7))
        local_bits = data.draw(st.integers(min_value=1, max_value=n - 1))
        old, new = data.draw(layout_pairs(n))
        total_bytes, total_msgs, _, _ = exchange_step_stats(
            old, new, local_bits
        )
        ranks = 1 << (n - local_bits)
        sent_b = sent_m = 0
        for r in range(ranks):
            sb, sm, rb, rm = exchange_rank_stats(old, new, local_bits, r)
            # A bit permutation is volume-symmetric per rank.
            assert (sb, sm) == (rb, rm)
            sent_b += sb
            sent_m += sm
        assert sent_b == total_bytes
        assert sent_m == total_msgs

    def test_identity_costs_nothing_per_rank(self):
        lay = QubitLayout.identity(5)
        for r in range(8):
            assert exchange_rank_stats(lay, lay, 2, r) == (0, 0, 0, 0)

    def test_local_shuffle_costs_nothing_per_rank(self):
        old = QubitLayout.identity(5)
        new = QubitLayout([1, 0, 2, 3, 4])  # local-only swap at l=3
        for r in range(4):
            assert exchange_rank_stats(old, new, 3, r) == (0, 0, 0, 0)

    def test_full_process_swap(self):
        # Swapping a local and a process qubit: every rank ships half its
        # shard to exactly one partner.
        old = QubitLayout.identity(4)
        new = QubitLayout([2, 1, 0, 3])
        for r in range(4):
            stats = exchange_rank_stats(old, new, 2, r)
            assert stats == (AMP_BYTES * 2, 1, AMP_BYTES * 2, 1)


class TestNoOpRemapRegression:
    """Satellite bugfix: no-op remaps must cost nothing everywhere."""

    def test_recording_transport_skips_zero_step(self):
        comm = SimComm(4)
        dsv = DistributedStateVector.zero(4, comm)
        dsv.remap(QubitLayout([1, 0, 2, 3]))  # local-only swap
        assert comm.stats.steps == 0
        assert comm.stats.total_bytes == 0
        dsv.remap(QubitLayout([2, 1, 0, 3]))  # crosses the rank boundary
        assert comm.stats.steps == 1
        assert comm.stats.total_bytes > 0

    def test_analytic_state_agrees_with_recording(self):
        layouts = [
            QubitLayout([1, 0, 2, 3]),  # free
            QubitLayout([2, 1, 0, 3]),  # paid
            QubitLayout([2, 1, 0, 3]),  # identity: free
            QubitLayout([3, 1, 0, 2]),  # paid
        ]
        real_comm, dry_comm = SimComm(4), SimComm(4)
        dsv = DistributedStateVector.zero(4, real_comm)
        dry = LayoutOnlyState(4, dry_comm)
        for lay in layouts:
            dsv.remap(lay)
            dry.remap(lay)
        assert real_comm.stats.steps == dry_comm.stats.steps == 2
        assert real_comm.stats.total_bytes == dry_comm.stats.total_bytes
        assert real_comm.stats.total_msgs == dry_comm.stats.total_msgs

    def test_socket_transport_records_but_does_not_step(self):
        # Under SPMD every exchange() call still runs a frame round (the
        # peers cannot know it is globally free), but a zero-traffic one
        # contributes no CommStats step — same accounting as recording.
        def worker(rank, transport):
            dsv = DistributedStateVector.zero(3, transport)
            dsv.remap(QubitLayout([1, 0, 2]))  # local-only: free
            dsv.remap(QubitLayout([2, 1, 0]))  # paid
            return transport.stats.steps, len(transport.records)

        for steps, records in run_spmd(2, worker):
            assert steps == 1
            assert records == 2


class TestSocketDifferential:
    """SPMD socket runs against the in-process comm, bit for bit."""

    @pytest.mark.parametrize("num_ranks", [2, 4])
    @pytest.mark.parametrize("name,qubits", [("qft", 6), ("qaoa", 7)])
    def test_bit_identical_to_recording(self, num_ranks, name, qubits):
        qc, partition, fulls, transports, _ = spmd_engine_run(
            num_ranks, name, qubits
        )
        state, _ = HiSVSimEngine(num_ranks=num_ranks).run(qc, partition)
        reference = state.to_full()
        for rank, full in enumerate(fulls):
            assert np.array_equal(
                full.view(np.uint8), reference.view(np.uint8)
            ), f"rank {rank} diverged"

    @settings(max_examples=40, deadline=None)
    @given(
        qc=circuits(min_qubits=3, max_qubits=7, three_qubit=True),
        fuse=st.booleans(),
        threads=st.sampled_from([1, 2, 3]),
        data=st.data(),
    )
    def test_property_narrow_shards_stay_bit_identical(
        self, qc, fuse, threads, data
    ):
        # Shards as narrow as the widest op: a rank's own rows leave its
        # GEMMs fewer than MIN_GEMM_COLUMNS columns, and the engine pads
        # them so each rank rounds as the in-process run over all ranks.
        n = qc.num_qubits
        arity = max(len(g.qubits) for g in qc)
        low = max(arity, n - 3)  # at most 8 ranks
        local_bits = data.draw(
            st.integers(low, min(low + 1, n)), label="local_bits"
        )
        num_ranks = 1 << (n - local_bits)
        partition = get_partitioner("dagP").partition(
            qc, data.draw(st.integers(arity, local_bits), label="limit")
        )
        start = random_state(n, seed=data.draw(st.integers(0, 99)))
        options = dict(fuse=fuse, backend="threaded", threads=threads)
        state, _ = HiSVSimEngine(num_ranks, **options).run(
            qc, partition, initial_full=start
        )

        def worker(rank, transport):
            engine = HiSVSimEngine(num_ranks, **options)
            return engine.run(
                qc, partition, initial_full=start, comm=transport
            )[0].to_full()

        reference = state.to_full()
        for full in run_spmd(num_ranks, worker):
            assert np.array_equal(
                full.view(np.uint8), reference.view(np.uint8)
            )

    @pytest.mark.parametrize("backend", ["serial", "threaded"])
    def test_backend_matrix(self, backend):
        qc = generators.build("qft", 6)
        partition = get_partitioner("dagP").partition(qc, 3)

        def worker(rank, transport):
            engine = HiSVSimEngine(num_ranks=2, backend=backend, threads=2)
            state, _ = engine.run(qc, partition, comm=transport)
            return state.to_full()

        state, _ = HiSVSimEngine(num_ranks=2, backend="serial").run(
            qc, partition
        )
        reference = state.to_full()
        for full in run_spmd(2, worker):
            assert np.array_equal(
                full.view(np.uint8), reference.view(np.uint8)
            )

    def test_matches_flat_simulator(self):
        qc, _, fulls, _, _ = spmd_engine_run(4, "adder", 6)
        sim = StateVectorSimulator(6)
        sim.run(qc)
        assert np.allclose(fulls[0], sim.state, atol=1e-10)

    def test_reports_agree_with_recording(self):
        qc, partition, _, _, reports = spmd_engine_run(2, "qft", 6)
        _, reference = HiSVSimEngine(num_ranks=2).run(qc, partition)
        for report in reports:
            assert report.comm.steps == reference.comm.steps
            # Rank totals are the rank's own traffic; their sum over the
            # symmetric volume equals the recording global.
        total = sum(r.comm.total_bytes for r in reports)
        # Each rank counts its sends; recording counts global volume.
        assert total == reference.comm.total_bytes


class TestTrafficOracle:
    """Observed wire records against the closed-form per-rank model."""

    @pytest.mark.parametrize("num_ranks", [2, 4])
    def test_records_match_model_exactly(self, num_ranks):
        name, qubits = "qft", 6
        qc, partition, _, transports, _ = spmd_engine_run(
            num_ranks, name, qubits
        )
        for rank, transport in enumerate(transports):
            assert transport.records  # traffic flowed: the check has teeth
            assert verify_exchange_records(
                transport.records, partition, qubits, num_ranks, rank
            ) == []

    def test_payload_bytes_are_pure_amplitude_volume(self):
        # The modelled volume is amplitudes only, 16 bytes each, and so
        # is a frame: the wire adds one 8-byte length prefix per frame,
        # one frame each way per peer (a 2-rank mesh has one peer).
        _, _, _, transports, _ = spmd_engine_run(2, "qft", 6)
        for transport in transports:
            for record in transport.records:
                assert record.sent_bytes % AMP_BYTES == 0
                assert record.wire_bytes == (
                    record.sent_bytes + record.recv_bytes + 8 * 2
                )


class TestDistWorkerCLI:
    """Two real OS processes through `repro dist-worker`."""

    def test_two_process_run(self, tmp_path):
        # Rank 0 binds an ephemeral rendezvous port itself and prints it
        # first, so no port is released between picking and binding it.
        env = dict(os.environ, PYTHONPATH=_src_path())
        out = tmp_path / "rank0.npy"
        procs = []
        rendezvous = "127.0.0.1:0"
        for rank in range(2):
            cmd = [
                sys.executable, "-m", "repro.cli", "dist-worker",
                "--rank", str(rank), "--ranks", "2",
                "--rendezvous", rendezvous,
                "--circuit", "qft", "--qubits", "6",
            ]
            if rank == 0:
                cmd += ["--out", str(out)]
            procs.append(subprocess.Popen(
                cmd, env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            ))
            if rank == 0:
                first = json.loads(procs[0].stdout.readline())
                rendezvous = first["rendezvous"]
                assert rendezvous.startswith("127.0.0.1:")
                assert not rendezvous.endswith(":0")
        for rank, proc in enumerate(procs):
            stdout, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, (rank, stdout, stderr)
            assert json.loads(stdout.strip().splitlines()[-1])["verified"]

        qc = generators.build("qft", 6)
        partition = get_partitioner("dagP").partition(qc, 3)
        state, _ = HiSVSimEngine(num_ranks=2).run(qc, partition)
        got = np.load(out)
        assert np.array_equal(
            got.view(np.uint8), state.to_full().view(np.uint8)
        )

    def test_bad_rank_rejected(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "dist-worker",
             "--rank", "5", "--ranks", "2", "--circuit", "qft",
             "--qubits", "4"],
            env=dict(os.environ, PYTHONPATH=_src_path()),
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2
        assert "out of range" in result.stdout

    def test_port_zero_is_for_rank_0_only(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "dist-worker",
             "--rank", "1", "--ranks", "2", "--rendezvous", "127.0.0.1:0",
             "--circuit", "qft", "--qubits", "4"],
            env=dict(os.environ, PYTHONPATH=_src_path()),
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2
        assert result.stdout.splitlines() == [
            "rank 1 needs rank 0's rendezvous port, not 0"
        ]
        assert result.stderr == ""


class TestFaultInjection:
    """Dropped peers and mangled frames fail cleanly, never hang."""

    def test_connect_to_dead_port_bounded_retry(self):
        port = _free_port()  # nothing listens here
        with pytest.raises(TransportError) as excinfo:
            SocketTransport.connect(
                1, 2, ("127.0.0.1", port),
                timeout=0.5, retries=2, backoff=0.01,
            )
        assert "3 attempts" in str(excinfo.value)

    def test_peer_closes_mid_frame(self):
        # A fake rank 0 accepts the rendezvous registration, starts the
        # address-map frame, then slams the connection shut after half
        # the length prefix — the worker must see "closed mid-frame",
        # not hang waiting for the rest.
        def fake_rank0(listener, failure):
            try:
                conn, _ = listener.accept()
                conn.settimeout(5.0)
                (length,) = struct.unpack(">Q", _read(conn, 8))
                _read(conn, length)  # the (rank, port) registration
                conn.sendall(b"\x00\x00\x00\x00")  # half a length prefix
                conn.close()
            except Exception as exc:  # pragma: no cover - debug aid
                failure.append(exc)

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        failure = []
        thread = threading.Thread(
            target=fake_rank0, args=(listener, failure), daemon=True
        )
        thread.start()
        try:
            with pytest.raises(TransportError) as excinfo:
                SocketTransport.connect(
                    1, 2, listener.getsockname(),
                    timeout=1.0, retries=1, backoff=0.01,
                )
            assert "closed mid-" in str(excinfo.value)
        finally:
            listener.close()
            thread.join(5.0)
        assert not failure

    SWAP = [1, 0]  # 2 ranks x 2 amplitudes: each ships one to its peer

    def test_truncated_frame_detected(self):
        # Rank 1 bypasses exchange() and writes a frame one amplitude
        # short of the slab ``sigma`` implies: refused at the prefix.
        def worker(rank, transport):
            if rank == 0:
                shards = np.zeros((1, 2), dtype=np.complex128)
                with pytest.raises(TransportError) as excinfo:
                    transport.exchange(shards, self.SWAP)
                return str(excinfo.value)
            transport._peers[0].sendall(struct.pack(">Q", 0))
            return "sent"

        message = run_spmd(2, worker, timeout=30.0)[0]
        assert "rank 0" in message and "from rank 1" in message
        assert "announces 0 bytes, expected 16" in message

    def test_oversized_frame_refused_before_any_payload(self):
        # A peer announcing 2^39 bytes used to be buffered until the
        # socket timeout (30 s here); the receiver knows the slab is 16.
        done = threading.Event()

        def worker(rank, transport):
            if rank == 0:
                shards = np.zeros((1, 2), dtype=np.complex128)
                start = time.monotonic()
                try:
                    with pytest.raises(TransportError) as excinfo:
                        transport.exchange(shards, self.SWAP)
                finally:
                    done.set()
                return str(excinfo.value), time.monotonic() - start
            transport._peers[0].sendall(struct.pack(">Q", 1 << 39) + b"x" * 64)
            done.wait(20.0)  # stay connected: only the prefix can tell
            return "sent"

        message, seconds = run_spmd(2, worker, connect_timeout=30.0)[0]
        assert seconds < 1.0
        assert "rank 0" in message and "from rank 1" in message
        assert f"announces {1 << 39} bytes, expected 16" in message

    def test_non_permutation_sigma_rejected(self):
        # Refused on every rank before anything is sent, so nobody hangs.
        def worker(rank, transport):
            shards = np.zeros((1, 2), dtype=np.complex128)
            for sigma in ([0, 0], [0, 2]):
                with pytest.raises(ValueError, match="permutation"):
                    transport.exchange(shards, sigma)
            with pytest.raises(ValueError, match="this rank's row"):
                transport.exchange(np.zeros((2, 1), complex), self.SWAP)
            return len(transport.records)

        assert run_spmd(2, worker) == [0, 0]

    def test_peer_vanishes_mid_exchange(self):
        # A peer that exits without ever sending its frame: its close()
        # reaches the survivor as a clean per-rank TransportError, not a
        # hang and not corrupted state.
        def worker(rank, transport):
            if rank == 0:
                shards = np.zeros((1, 2), dtype=np.complex128)
                with pytest.raises(TransportError):
                    transport.exchange(shards, self.SWAP)
                return "failed-clean"
            return "vanished"  # never participates in the exchange

        results = run_spmd(2, worker, timeout=30.0)
        assert results[0] == "failed-clean"

    def test_close_is_idempotent(self):
        def worker(rank, transport):
            transport.close()
            transport.close()
            return True

        assert run_spmd(2, worker) == [True, True]


class TestEnvDefaults:
    def test_defaults_without_env(self, monkeypatch):
        for key in ("REPRO_DIST_HOST", "REPRO_DIST_PORT",
                    "REPRO_DIST_TIMEOUT", "REPRO_DIST_RETRIES",
                    "REPRO_DIST_BACKOFF"):
            monkeypatch.delenv(key, raising=False)
        assert env("REPRO_DIST_HOST") == "127.0.0.1"
        assert env("REPRO_DIST_PORT") == 29500
        assert env("REPRO_DIST_TIMEOUT") == 30.0
        assert env("REPRO_DIST_RETRIES") == 5
        assert env("REPRO_DIST_BACKOFF") == 0.05

    def test_connect_reads_env_for_arguments_left_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_DIST_TIMEOUT", "0.5")
        monkeypatch.setenv("REPRO_DIST_RETRIES", "1")
        monkeypatch.setenv("REPRO_DIST_BACKOFF", "0.01")
        with pytest.raises(TransportError, match="2 attempts"):
            SocketTransport.connect(1, 2, ("127.0.0.1", _free_port()))

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_DIST_PORT", "12345")
        monkeypatch.setenv("REPRO_DIST_RETRIES", "1")
        assert env("REPRO_DIST_PORT") == 12345
        assert env("REPRO_DIST_RETRIES") == 1


class TestRecordingTransport:
    def test_exchange_record_is_frozen(self):
        record = ExchangeRecord(16, 1, 16, 1, 40)
        with pytest.raises(AttributeError):
            record.sent_bytes = 0


def _free_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def _src_path() -> str:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(here, "src")
    existing = os.environ.get("PYTHONPATH", "")
    return f"{src}{os.pathsep}{existing}" if existing else src


def _read(conn: socket.socket, count: int) -> bytes:
    data = b""
    while len(data) < count:
        chunk = conn.recv(count - len(data))
        if not chunk:
            raise ConnectionError("peer closed")
        data += chunk
    return data
