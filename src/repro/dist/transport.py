"""The socket communicator: one OS process per rank over a TCP mesh.

:class:`~repro.runtime.comm.SimComm` is the distributed layer's
communicator and its in-process implementation.  :class:`SocketTransport`
subclasses it for SPMD runs: every worker runs the same deterministic
engine loop holding a ``(1, 2^l)`` shard, and what crosses a rank
boundary travels over TCP in length-prefixed frames; the per-exchange
payload is checked byte for byte against the closed-form dry-run model
(:func:`repro.dist.analytic.exchange_rank_stats`).

Wire protocol (``SocketTransport``)
-----------------------------------
A *frame* is an 8-byte big-endian payload length followed by the
payload.  Every frame's length is known to its receiver before it
arrives (registration 16 B, address map ``16 * ranks``, mesh hello 8 B,
allgather row one shard, exchange slab as below), so a prefix announcing
anything else is a :class:`TransportError` raised before a byte of
payload is read.

An exchange frame's payload is amplitudes only: one contiguous *slab*
of complex128.  The plan is the bit permutation ``sigma``; with ``k``
destination-rank bits sourced from old local positions, a rank's row
splits into ``2^k`` slabs of ``2^(l-k)`` amplitudes, one per
destination (:func:`_crossing`), and the receiver derives both where a
slab lands and its exact byte length from ``sigma`` and the sender's
rank.  Every rank sends exactly one frame — empty when the plan routes
nothing that way — to every peer per exchange, so exchanges double as
barriers and no rank needs global knowledge to know whom to await.
Accounting counts the amplitude payload put on and taken off the wire
(``AMP_BYTES`` each, the dry-run model's unit); the length prefixes are
tracked separately in ``ExchangeRecord.wire_bytes``.

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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import env
from ..runtime.comm import SimComm
from ..sv.layout import QubitLayout, permuted_view, spread_bits

__all__ = [
    "AMP_BYTES",
    "ExchangeRecord",
    "TransportError",
    "SocketTransport",
    "run_spmd",
]

AMP_BYTES = 16  # complex128 — the unit of every byte count in the model

_LEN = struct.Struct(">Q")


class TransportError(RuntimeError):
    """A transport-level failure (connect, send, receive, framing).

    Raised instead of hanging: sockets carry timeouts, connects are
    retried a bounded number of times, and a peer closing mid-frame or
    announcing a frame of the wrong length is detected at the length
    prefix.  The message names the local rank so multi-process logs stay
    attributable.

    >>> issubclass(TransportError, RuntimeError)
    True
    """


@dataclass(frozen=True)
class ExchangeRecord:
    """Per-rank traffic of one executed exchange (one ``remap``).

    ``sent_bytes``/``recv_bytes`` count amplitude payload only
    (``AMP_BYTES`` per amplitude) to other ranks — the quantity the
    dry-run model predicts; ``sent_msgs``/``recv_msgs`` count non-empty
    frames.  ``wire_bytes`` adds the framing overhead (one 8-byte
    length prefix per frame, empty ones included) in both directions,
    which the model deliberately excludes.

    >>> ExchangeRecord(32, 1, 32, 1, 80).sent_bytes
    32
    """

    sent_bytes: int
    sent_msgs: int
    recv_bytes: int
    recv_msgs: int
    wire_bytes: int


# -- socket plumbing ---------------------------------------------------------


def _recv_exact(sock: socket.socket, out, rank: int, what: str) -> None:
    """Fill the writable byte buffer ``out`` from ``sock``."""
    view = memoryview(out)
    got = 0
    while got < len(view):
        try:
            count = sock.recv_into(view[got:])
        except socket.timeout:
            raise TransportError(
                f"rank {rank}: timed out waiting for {what} "
                f"({got}/{len(view)} bytes)"
            ) from None
        except OSError as exc:
            raise TransportError(
                f"rank {rank}: receive failed mid-{what}: {exc}"
            ) from None
        if not count:
            raise TransportError(
                f"rank {rank}: connection closed mid-{what} "
                f"({got}/{len(view)} bytes)"
            )
        got += count


def _recv_frame(sock: socket.socket, out, rank: int, what: str):
    """Receive one frame into ``out``, whose size is the length the
    frame must announce; returns ``out``."""
    prefix = bytearray(_LEN.size)
    _recv_exact(sock, prefix, rank, what)
    (length,) = _LEN.unpack(prefix)
    if length != len(out):
        raise TransportError(
            f"rank {rank}: {what} announces {length} bytes, expected "
            f"{len(out)}"
        )
    _recv_exact(sock, out, rank, what)
    return out


def _send_frame(sock: socket.socket, payload, rank: int, what: str) -> None:
    try:
        sock.sendall(_LEN.pack(len(payload)))
        sock.sendall(payload)
    except socket.timeout:
        raise TransportError(
            f"rank {rank}: timed out sending {what}"
        ) from None
    except OSError as exc:
        raise TransportError(
            f"rank {rank}: send failed mid-{what}: {exc}"
        ) from None


def _crossing(perm: Sequence[int], local_bits: int, rank: int):
    """The rank bits ``perm`` moves into local positions, and the peers
    they select (``perm[q]`` is where bit position ``q`` goes).

    Returns ``(local, peers)``: ``local`` lists, by rank bit, the local
    positions those rank bits land in; ``peers[c]`` is the rank holding
    the bits of ``c`` at those rank bits and, at every other rank bit
    ``q``, bit ``perm[q]`` of ``rank`` (a rank-to-rank move).  Under
    ``sigma`` that is where this rank's new row comes from; under its
    inverse, where its old row goes.
    """
    local, free, fixed = [], [], 0
    for q in range(local_bits, len(perm)):
        if perm[q] < local_bits:
            local.append(perm[q])
            free.append(q - local_bits)
        else:
            bit = (rank >> (perm[q] - local_bits)) & 1
            fixed |= bit << (q - local_bits)
    return local, fixed | spread_bits(np.arange(1 << len(free)), free)


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

    Two ranks trading the local bit for the rank bit — a 2x2 transpose
    — over real sockets (the :func:`run_spmd` harness handles rendezvous
    and teardown):

    >>> import numpy as np
    >>> def swap(rank, transport):
    ...     row = np.array([[2 * rank, 2 * rank + 1]], dtype=np.complex128)
    ...     return transport.exchange(row, [1, 0])[0].real.tolist()
    >>> run_spmd(2, swap)
    [[0.0, 2.0], [1.0, 3.0]]
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
                    peer_rank, peer_port = struct.unpack(">qq", _recv_frame(
                        conn, bytearray(16), 0, "rendezvous registration"
                    ))
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
            payload = _recv_frame(
                sock, bytearray(16 * num_ranks), rank,
                "rendezvous address map",
            )
        finally:
            sock.close()
        addresses = {}
        for i in range(num_ranks):
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
                    ">q", _recv_frame(conn, bytearray(8), rank, "mesh hello")
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
        sigma: Sequence[int],
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        if self._closed:
            raise TransportError(f"rank {self.rank}: transport is closed")
        local_bits = self.local_bits(len(sigma))
        if shards.shape != (1, 1 << local_bits):
            raise ValueError(
                f"SPMD shards carry exactly this rank's row, "
                f"{(1, 1 << local_bits)} for a {len(sigma)}-bit plan over "
                f"{self.num_ranks} ranks; got shape {shards.shape}"
            )
        row = np.ascontiguousarray(shards.reshape(-1), dtype=np.complex128)
        # ``sigma`` read as a layout of the old positions: checked to be
        # a permutation (ValueError), and inverted.
        inverse = QubitLayout(sigma).qubits_in_positions(0, len(sigma))
        leaving, dests = _crossing(inverse, local_bits, self.rank)
        arriving, srcs = _crossing(sigma, local_bits, self.rank)
        staying = [p for p in range(local_bits) if sigma[p] < local_bits]

        # Bits that leave select the slab, above the bits that stay.
        gather = [0] * local_bits
        for bit, p in enumerate(staying + leaving):
            gather[p] = bit
        send = np.array(permuted_view(row, gather), order="C")
        send = send.reshape(len(dests), -1)  # slab c goes to dests[c]
        recv = np.empty_like(send)  # slab c comes from srcs[c]
        outgoing = {int(d): slab for d, slab in zip(dests, send)}
        incoming = {int(s): slab for s, slab in zip(srcs, recv)}
        if self.rank in outgoing:  # the diagonal never touches the wire
            incoming.pop(self.rank)[:] = outgoing.pop(self.rank)
        sent_bytes = sum(slab.nbytes for slab in outgoing.values())
        recv_bytes = sum(slab.nbytes for slab in incoming.values())
        sent_msgs, recv_msgs = len(outgoing), len(incoming)
        self._converse(outgoing, incoming, "exchange slab")
        # A slab's bits land where ``sigma`` sends the staying bits; the
        # slab index spells the source's bits that arrive here.
        scatter = [sigma[p] for p in staying] + arriving
        view = permuted_view(recv.reshape(-1), scatter)
        if out is None:
            out = np.empty((1, 1 << local_bits), dtype=np.complex128)
        np.copyto(out.reshape(view.shape), view)

        self.records.append(ExchangeRecord(
            sent_bytes, sent_msgs, recv_bytes, recv_msgs,
            sent_bytes + recv_bytes + 2 * len(self._peers) * _LEN.size,
        ))
        if sent_bytes or recv_bytes:
            self.stats.add_step(
                total_bytes=sent_bytes,
                total_msgs=sent_msgs,
                max_bytes=max(sent_bytes, recv_bytes),
                max_msgs=max(sent_msgs, recv_msgs),
            )
        return out

    def allgather_rows(self, shards: np.ndarray) -> np.ndarray:
        if self._closed:
            raise TransportError(f"rank {self.rank}: transport is closed")
        row = np.ascontiguousarray(shards.reshape(-1), dtype=np.complex128)
        out = np.empty((self.num_ranks, row.size), dtype=np.complex128)
        out[self.rank] = row
        self._converse(
            {peer: row for peer in self._peers},
            {peer: out[peer] for peer in self._peers},
            "allgather row",
        )
        return out

    def _converse(
        self,
        outgoing: Dict[int, np.ndarray],
        incoming: Dict[int, np.ndarray],
        what: str,
    ) -> None:
        """Send one frame to every peer while receiving one from each.

        ``outgoing[peer]`` is sent and ``incoming[peer]`` filled in
        place (both contiguous arrays; a peer in neither trades empty
        frames), so the receiver states every frame's length up front.
        Sends run on a helper thread so both sides of every socket pair
        drain concurrently — two ranks blocking in ``sendall`` against
        each other's full buffers would otherwise deadlock.
        """
        empty = np.empty(0, dtype=np.uint8)
        send_error: List[TransportError] = []

        def _send_all() -> None:
            try:
                for peer in sorted(self._peers):
                    payload = outgoing.get(peer, empty).view(np.uint8)
                    _send_frame(self._peers[peer], payload, self.rank,
                                f"{what} to rank {peer}")
            except TransportError as exc:
                send_error.append(exc)

        sender = threading.Thread(target=_send_all, daemon=True)
        sender.start()
        try:
            for peer in sorted(self._peers):
                _recv_frame(
                    self._peers[peer],
                    incoming.get(peer, empty).view(np.uint8),
                    self.rank, f"{what} from rank {peer}",
                )
        finally:
            sender.join(self.timeout)
        if send_error:
            raise send_error[0]
        if sender.is_alive():
            raise TransportError(
                f"rank {self.rank}: send side wedged during {what}"
            )

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
