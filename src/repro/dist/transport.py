"""The socket communicator: one OS process per rank over a TCP mesh.

:class:`~repro.runtime.comm.SimComm` is the distributed layer's
communicator and its in-process implementation.  :class:`SocketTransport`
subclasses it for SPMD runs: every worker runs the same deterministic
engine loop holding a ``(1, 2^l)`` shard, and cross-rank elements travel
over TCP in length-prefixed frames; the per-exchange payload is checked
byte for byte against the closed-form dry-run model
(:func:`repro.dist.analytic.exchange_rank_stats`).

Wire protocol (``SocketTransport``)
-----------------------------------
A *frame* is an 8-byte big-endian payload length followed by the payload.
An exchange frame's payload is ``count`` (8-byte big-endian), then
``count`` little-endian int64 destination offsets, then ``count``
complex128 amplitudes.  Every rank sends exactly one frame — possibly
empty — to every peer per exchange, so exchanges double as barriers and
no rank needs global knowledge to know whom to await.  Accounting counts
amplitude payload only (``count * 16`` bytes, matching the dry-run
model's ``AMP_BYTES``); framing overhead is tracked separately in
``ExchangeRecord.wire_bytes``.

Connection establishment is a rank-0 rendezvous: every worker opens an
ephemeral data listener, workers register ``(rank, port)`` with rank 0,
rank 0 broadcasts the full address map, then the mesh is built pairwise
(higher rank connects to lower).  Connects use bounded retry with
exponential backoff; all failures raise :class:`TransportError` tagged
with the local rank.  Defaults come from ``REPRO_DIST_*`` (see
``docs/configuration.md``).
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..config import env
from ..runtime.comm import SimComm

__all__ = [
    "AMP_BYTES",
    "ExchangeRecord",
    "TransportError",
    "SocketTransport",
    "run_spmd",
]

AMP_BYTES = 16  # complex128 — the unit of every byte count in the model

_LEN = struct.Struct(">Q")
_MAX_FRAME = 1 << 40  # corrupted peer guard: no sane frame is a terabyte


class TransportError(RuntimeError):
    """A transport-level failure (connect, send, receive, framing).

    Raised instead of hanging: sockets carry timeouts, connects are
    retried a bounded number of times, and a peer closing mid-frame is
    detected by the length prefix.  The message names the local rank so
    multi-process logs stay attributable.

    >>> issubclass(TransportError, RuntimeError)
    True
    """


@dataclass(frozen=True)
class ExchangeRecord:
    """Per-rank traffic of one executed exchange (one ``remap``).

    ``sent_bytes``/``recv_bytes`` count amplitude payload only
    (``AMP_BYTES`` per amplitude) to other ranks — the quantity the
    dry-run model predicts; ``sent_msgs``/``recv_msgs`` count non-empty
    frames.  ``wire_bytes`` adds framing overhead (length prefixes,
    counts, offset arrays) in both directions, which the model
    deliberately excludes.

    >>> ExchangeRecord(32, 1, 32, 1, 96).sent_bytes
    32
    """

    sent_bytes: int
    sent_msgs: int
    recv_bytes: int
    recv_msgs: int
    wire_bytes: int


# -- socket plumbing ---------------------------------------------------------


def _recv_exact(sock: socket.socket, n: int, rank: int, what: str) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        try:
            chunk = sock.recv(min(n - len(buf), 1 << 20))
        except socket.timeout:
            raise TransportError(
                f"rank {rank}: timed out waiting for {what} "
                f"({len(buf)}/{n} bytes)"
            ) from None
        except OSError as exc:
            raise TransportError(
                f"rank {rank}: receive failed mid-{what}: {exc}"
            ) from None
        if not chunk:
            raise TransportError(
                f"rank {rank}: connection closed mid-{what} "
                f"({len(buf)}/{n} bytes)"
            )
        buf.extend(chunk)
    return bytes(buf)


def _recv_frame(sock: socket.socket, rank: int, what: str) -> bytes:
    (length,) = _LEN.unpack(_recv_exact(sock, _LEN.size, rank, what))
    if length > _MAX_FRAME:
        raise TransportError(
            f"rank {rank}: insane frame length {length} for {what}"
        )
    return _recv_exact(sock, length, rank, what)


def _send_frame(
    sock: socket.socket, payload: bytes, rank: int, what: str
) -> None:
    try:
        sock.sendall(_LEN.pack(len(payload)) + payload)
    except socket.timeout:
        raise TransportError(
            f"rank {rank}: timed out sending {what}"
        ) from None
    except OSError as exc:
        raise TransportError(
            f"rank {rank}: send failed mid-{what}: {exc}"
        ) from None


def _connect_with_retry(
    addr: Tuple[str, int],
    timeout: float,
    retries: int,
    backoff: float,
    rank: int,
    what: str,
) -> socket.socket:
    """TCP connect with bounded retry and exponential backoff.

    ``retries`` extra attempts after the first; workers racing their
    peers' listeners into existence is the expected case, so refusals
    and timeouts both back off and retry before giving up cleanly.
    """
    last: Optional[OSError] = None
    for attempt in range(max(0, retries) + 1):
        try:
            sock = socket.create_connection(addr, timeout=timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError as exc:
            last = exc
            if attempt < retries:
                time.sleep(backoff * (2**attempt))
    raise TransportError(
        f"rank {rank}: could not connect to {what} at {addr[0]}:{addr[1]} "
        f"after {max(0, retries) + 1} attempts: {last}"
    )


class SocketTransport(SimComm):
    """One process per rank, exchanging amplitudes over a TCP mesh.

    Build one with :meth:`connect` (rendezvous + mesh); the constructor
    takes an established peer map for tests that fabricate meshes.
    ``records`` accumulates one :class:`ExchangeRecord` per executed
    exchange — the artifact the dry-run model is checked against.

    Its ``stats`` are the **rank-local** view:
    ``total_bytes``/``total_msgs`` are this rank's sends and
    ``max_bytes_per_rank``/``max_msgs_per_rank`` the max of its send and
    receive sides — the real cost at this rank, not cluster totals.

    Two ranks swapping their single amplitude over real sockets (the
    :func:`run_spmd` harness handles rendezvous and teardown):

    >>> import numpy as np
    >>> def swap(rank, transport):
    ...     row = np.array([[complex(rank)]])
    ...     out = transport.exchange(
    ...         row, np.array([[1 - rank]]), np.array([[0]])
    ...     )
    ...     return float(out[0, 0].real)
    >>> run_spmd(2, swap)
    [1.0, 0.0]
    """

    def __init__(
        self,
        rank: int,
        num_ranks: int,
        peers: Dict[int, socket.socket],
        timeout: float = 30.0,
    ) -> None:
        super().__init__(int(num_ranks))
        if not 0 <= rank < num_ranks:
            raise ValueError(f"rank {rank} out of range for {num_ranks}")
        if sorted(peers) != [r for r in range(num_ranks) if r != rank]:
            raise ValueError("peer map must cover every other rank")
        self.rank = rank
        self.timeout = float(timeout)
        self._peers = dict(peers)
        self._closed = False
        self.records: List[ExchangeRecord] = []
        for sock in self._peers.values():
            sock.settimeout(self.timeout)

    # -- construction ------------------------------------------------------

    @classmethod
    def connect(
        cls,
        rank: int,
        num_ranks: int,
        rendezvous: Tuple[str, int],
        *,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        backoff: Optional[float] = None,
        rendezvous_listener: Optional[socket.socket] = None,
    ) -> "SocketTransport":
        """Rendezvous at rank 0 and build the full TCP mesh.

        Rank 0 listens at ``rendezvous`` (or on the pre-bound
        ``rendezvous_listener``, for harnesses that must pick an
        ephemeral port first); other ranks register their data-listener
        address there and receive the full address map back.  Mesh
        convention: the higher rank connects to the lower rank's data
        listener and introduces itself with a rank frame.
        """
        if timeout is None:
            timeout = env("REPRO_DIST_TIMEOUT")
        if retries is None:
            retries = env("REPRO_DIST_RETRIES")
        if backoff is None:
            backoff = env("REPRO_DIST_BACKOFF")
        if not 0 <= rank < num_ranks:
            raise ValueError(f"rank {rank} out of range for {num_ranks}")

        host = rendezvous[0]
        data_listener = socket.socket()
        data_listener.bind((host, 0))
        data_listener.listen(num_ranks)
        data_listener.settimeout(timeout)
        data_port = data_listener.getsockname()[1]
        try:
            addresses = cls._rendezvous(
                rank, num_ranks, rendezvous, data_port,
                timeout, retries, backoff, rendezvous_listener,
            )
            peers = cls._build_mesh(
                rank, num_ranks, addresses, data_listener,
                timeout, retries, backoff,
            )
        finally:
            data_listener.close()
        return cls(rank, num_ranks, peers, timeout=timeout)

    @staticmethod
    def _rendezvous(
        rank: int,
        num_ranks: int,
        rendezvous: Tuple[str, int],
        data_port: int,
        timeout: float,
        retries: int,
        backoff: float,
        listener: Optional[socket.socket],
    ) -> Dict[int, Tuple[str, int]]:
        """Collect (rank 0) or register (others) data addresses."""
        host = rendezvous[0]
        if rank == 0:
            own_listener = listener is None
            if own_listener:
                listener = socket.socket()
                listener.setsockopt(
                    socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
                )
                try:
                    listener.bind(rendezvous)
                except OSError as exc:
                    listener.close()
                    raise TransportError(
                        f"rank 0: could not bind rendezvous "
                        f"{host}:{rendezvous[1]}: {exc}"
                    ) from None
                listener.listen(num_ranks)
            listener.settimeout(timeout)
            addresses = {0: (host, data_port)}
            conns: List[Tuple[int, socket.socket]] = []
            try:
                while len(addresses) < num_ranks:
                    try:
                        conn, _ = listener.accept()
                    except socket.timeout:
                        raise TransportError(
                            f"rank 0: rendezvous timed out with "
                            f"{len(addresses)}/{num_ranks} ranks registered"
                        ) from None
                    conn.settimeout(timeout)
                    peer_rank, peer_port = struct.unpack(
                        ">qq", _recv_frame(conn, 0, "rendezvous registration")
                    )
                    if not 0 < peer_rank < num_ranks:
                        raise TransportError(
                            f"rank 0: bogus rendezvous rank {peer_rank}"
                        )
                    addresses[int(peer_rank)] = (host, int(peer_port))
                    conns.append((int(peer_rank), conn))
                payload = b"".join(
                    struct.pack(">qq", r, addresses[r][1])
                    for r in range(num_ranks)
                )
                for _, conn in conns:
                    _send_frame(conn, payload, 0, "rendezvous address map")
            finally:
                for _, conn in conns:
                    conn.close()
                if own_listener:
                    listener.close()
            return addresses
        sock = _connect_with_retry(
            rendezvous, timeout, retries, backoff, rank, "rendezvous"
        )
        try:
            sock.settimeout(timeout)
            _send_frame(
                sock, struct.pack(">qq", rank, data_port),
                rank, "rendezvous registration",
            )
            payload = _recv_frame(sock, rank, "rendezvous address map")
        finally:
            sock.close()
        addresses = {}
        for i in range(len(payload) // 16):
            r, port = struct.unpack_from(">qq", payload, i * 16)
            addresses[int(r)] = (host, int(port))
        if sorted(addresses) != list(range(num_ranks)):
            raise TransportError(
                f"rank {rank}: incomplete address map {sorted(addresses)}"
            )
        return addresses

    @staticmethod
    def _build_mesh(
        rank: int,
        num_ranks: int,
        addresses: Dict[int, Tuple[str, int]],
        data_listener: socket.socket,
        timeout: float,
        retries: int,
        backoff: float,
    ) -> Dict[int, socket.socket]:
        peers: Dict[int, socket.socket] = {}
        try:
            for lower in range(rank):
                sock = _connect_with_retry(
                    addresses[lower], timeout, retries, backoff,
                    rank, f"rank {lower}",
                )
                sock.settimeout(timeout)
                _send_frame(
                    sock, struct.pack(">q", rank), rank, "mesh hello"
                )
                peers[lower] = sock
            for _ in range(num_ranks - 1 - rank):
                try:
                    conn, _ = data_listener.accept()
                except socket.timeout:
                    raise TransportError(
                        f"rank {rank}: timed out awaiting mesh peers "
                        f"({len(peers)}/{num_ranks - 1} connected)"
                    ) from None
                conn.settimeout(timeout)
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                (peer_rank,) = struct.unpack(
                    ">q", _recv_frame(conn, rank, "mesh hello")
                )
                if not rank < peer_rank < num_ranks or peer_rank in peers:
                    raise TransportError(
                        f"rank {rank}: bogus mesh hello from {peer_rank}"
                    )
                peers[int(peer_rank)] = conn
        except BaseException:
            for sock in peers.values():
                sock.close()
            raise
        return peers

    # -- collectives -------------------------------------------------------

    def exchange(
        self,
        shards: np.ndarray,
        dest_rank: np.ndarray,
        dest_offset: np.ndarray,
    ) -> np.ndarray:
        if self._closed:
            raise TransportError(f"rank {self.rank}: transport is closed")
        if dest_rank.shape != shards.shape or dest_offset.shape != shards.shape:
            raise ValueError("plan shape mismatch")
        if shards.shape[0] != 1:
            raise ValueError(
                "SPMD shards carry exactly this rank's row; got shape "
                f"{shards.shape}"
            )
        local = shards.shape[1]
        row = np.ascontiguousarray(shards.reshape(-1), dtype=np.complex128)
        dr = dest_rank.reshape(-1).astype(np.int64)
        do = dest_offset.reshape(-1).astype(np.int64)
        if do.min(initial=0) < 0 or do.max(initial=0) >= local:
            raise ValueError("exchange plan offsets out of range")

        new_row = np.empty_like(row)
        mine = dr == self.rank
        new_row[do[mine]] = row[mine]
        frames: Dict[int, bytes] = {}
        sent_bytes = sent_msgs = 0
        for peer in self._peers:
            sel = dr == peer
            count = int(np.count_nonzero(sel))
            frames[peer] = (
                struct.pack(">Q", count)
                + do[sel].astype("<i8").tobytes()
                + row[sel].tobytes()
            )
            if count:
                sent_msgs += 1
                sent_bytes += count * AMP_BYTES
        wire_bytes = sum(_LEN.size + len(f) for f in frames.values())

        received = self._converse(frames, "exchange frame")
        recv_bytes = recv_msgs = 0
        filled = int(np.count_nonzero(mine))
        for peer, payload in received.items():
            wire_bytes += _LEN.size + len(payload)
            if len(payload) < 8:
                raise TransportError(
                    f"rank {self.rank}: truncated exchange frame from "
                    f"rank {peer} ({len(payload)} bytes)"
                )
            (count,) = struct.unpack_from(">Q", payload)
            if len(payload) != 8 + count * (8 + AMP_BYTES):
                raise TransportError(
                    f"rank {self.rank}: exchange frame from rank {peer} "
                    f"declares {count} amplitudes but carries "
                    f"{len(payload)} bytes"
                )
            if count:
                offs = np.frombuffer(
                    payload, dtype="<i8", count=count, offset=8
                )
                vals = np.frombuffer(
                    payload, dtype=np.complex128, count=count,
                    offset=8 + 8 * count,
                )
                if offs.min() < 0 or offs.max() >= local:
                    raise TransportError(
                        f"rank {self.rank}: exchange frame from rank "
                        f"{peer} addresses offsets out of range"
                    )
                new_row[offs] = vals
                filled += count
                recv_msgs += 1
                recv_bytes += count * AMP_BYTES
        if filled != local:
            raise TransportError(
                f"rank {self.rank}: exchange filled {filled}/{local} "
                f"amplitudes — plan/peer mismatch"
            )
        self.records.append(
            ExchangeRecord(sent_bytes, sent_msgs, recv_bytes, recv_msgs,
                           wire_bytes)
        )
        if sent_bytes or recv_bytes:
            self.stats.add_step(
                total_bytes=sent_bytes,
                total_msgs=sent_msgs,
                max_bytes=max(sent_bytes, recv_bytes),
                max_msgs=max(sent_msgs, recv_msgs),
            )
        return new_row.reshape(1, local)

    def allgather_rows(self, shards: np.ndarray) -> np.ndarray:
        if self._closed:
            raise TransportError(f"rank {self.rank}: transport is closed")
        row = np.ascontiguousarray(shards.reshape(-1), dtype=np.complex128)
        out = np.empty((self.num_ranks, row.size), dtype=np.complex128)
        out[self.rank] = row
        payload = row.tobytes()
        received = self._converse(
            {peer: payload for peer in self._peers}, "allgather row"
        )
        for peer, data in received.items():
            if len(data) != row.size * AMP_BYTES:
                raise TransportError(
                    f"rank {self.rank}: allgather row from rank {peer} "
                    f"has {len(data)} bytes, expected "
                    f"{row.size * AMP_BYTES}"
                )
            out[peer] = np.frombuffer(data, dtype=np.complex128)
        return out

    def _converse(
        self, frames: Dict[int, bytes], what: str
    ) -> Dict[int, bytes]:
        """Send one frame to every peer while receiving one from each.

        Sends run on a helper thread so both sides of every socket pair
        drain concurrently — two ranks blocking in ``sendall`` against
        each other's full buffers would otherwise deadlock.
        """
        send_error: List[TransportError] = []

        def _send_all() -> None:
            try:
                for peer in sorted(frames):
                    _send_frame(self._peers[peer], frames[peer],
                                self.rank, what)
            except TransportError as exc:
                send_error.append(exc)

        sender = threading.Thread(target=_send_all, daemon=True)
        sender.start()
        try:
            received = {
                peer: _recv_frame(self._peers[peer], self.rank, what)
                for peer in sorted(self._peers)
            }
        finally:
            sender.join(self.timeout)
        if send_error:
            raise send_error[0]
        if sender.is_alive():
            raise TransportError(
                f"rank {self.rank}: send side wedged during {what}"
            )
        return received

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for sock in self._peers.values():
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()


def run_spmd(
    num_ranks: int,
    fn: Callable[[int, "SocketTransport"], object],
    *,
    timeout: float = 120.0,
    connect_timeout: Optional[float] = None,
    retries: Optional[int] = None,
) -> List[object]:
    """Run ``fn(rank, transport)`` per rank on threads over real sockets.

    The in-process SPMD harness for tests and benchmarks: every rank is
    a thread with its own :class:`SocketTransport` talking TCP over
    localhost — the same code path as separate worker processes, minus
    the interpreter spawn.  Returns the per-rank results in rank order;
    the first per-rank exception is re-raised after teardown.

    >>> import numpy as np
    >>> def worker(rank, transport):
    ...     row = np.full((1, 2), rank, dtype=np.complex128)
    ...     return transport.allgather_rows(row)[:, 0].real.tolist()
    >>> run_spmd(2, worker)
    [[0.0, 1.0], [0.0, 1.0]]
    """
    listener = socket.socket()
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(num_ranks)
    port = listener.getsockname()[1]

    results: List[object] = [None] * num_ranks
    failures: List[Tuple[int, BaseException]] = []

    def _one(rank: int) -> None:
        try:
            transport = SocketTransport.connect(
                rank, num_ranks, ("127.0.0.1", port),
                timeout=connect_timeout, retries=retries,
                rendezvous_listener=listener if rank == 0 else None,
            )
            try:
                results[rank] = fn(rank, transport)
            finally:
                transport.close()
        except BaseException as exc:  # propagated to the caller below
            failures.append((rank, exc))

    threads = [
        threading.Thread(target=_one, args=(r,), daemon=True,
                         name=f"spmd-rank-{r}")
        for r in range(num_ranks)
    ]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + timeout
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    listener.close()
    if any(thread.is_alive() for thread in threads):
        raise TransportError(
            f"SPMD harness timed out after {timeout:g}s with ranks "
            f"{[t.name for t in threads if t.is_alive()]} still running"
        )
    if failures:
        rank, exc = min(failures, key=lambda f: f[0])
        raise exc
    return results
