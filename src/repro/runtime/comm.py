"""SimComm: the communicator of the distributed layer.

Substitute for MPI (see DESIGN.md): a layout change permutes the ``n``
bit positions of the packed storage index, so an exchange plan is that
permutation ``sigma`` (``sigma[p]`` = new position of old bit ``p``) —
``n`` integers from which every rank derives what it sends where, as a
real ``MPI_Alltoallv`` plan would be.  :class:`SimComm` is the
in-process implementation: all ``R`` ranks live in one process, each
owning a row of a ``(R, 2^l)`` shard matrix, and an exchange is one
strided copy of the matrix's bit-permuted view.  With every rank in one
process nothing crosses a wire to be counted: the state charges a remap
its closed-form traffic (:func:`repro.dist.analytic.exchange_step_stats`)
into ``stats``.  :class:`~repro.dist.transport.SocketTransport`
subclasses it to run one OS process per rank, move the same bytes over
TCP and record what it observed.  The mpi4py-style buffer discipline (no
pickling, flat numpy buffers, explicit plans) is preserved so the layer
could be swapped for real MPI without touching callers.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..sv.layout import permuted_view
from .metrics import CommStats

__all__ = ["SimComm"]


class SimComm:
    """An MPI-communicator stand-in over ``num_ranks`` in-process ranks.

    ``rank`` is ``None`` here (every rank lives in this process) and the
    local rank number in an SPMD subclass.

    >>> import numpy as np
    >>> comm = SimComm(2)
    >>> shards = np.arange(4, dtype=np.complex128).reshape(2, 2)
    >>> comm.exchange(shards, [1, 0]).real     # local bit <-> rank bit
    array([[0., 2.],
           [1., 3.]])
    """

    rank: Optional[int] = None

    def __init__(self, num_ranks: int) -> None:
        if num_ranks < 1 or (num_ranks & (num_ranks - 1)) != 0:
            raise ValueError("num_ranks must be a positive power of two")
        self.num_ranks = num_ranks
        self.stats = CommStats()

    def local_bits(self, num_qubits: int) -> int:
        """Shard width of a ``num_qubits`` register split over the ranks."""
        process_bits = self.num_ranks.bit_length() - 1
        if process_bits > num_qubits:
            raise ValueError(
                f"{self.num_ranks} ranks need {process_bits} process qubits "
                f"but the register only has {num_qubits}"
            )
        return num_qubits - process_bits

    # -- collectives --------------------------------------------------------

    def exchange(self, shards, sigma: Sequence[int], out=None):
        """Execute a bit-permutation exchange; returns the new shards.

        Parameters
        ----------
        shards:
            ``(R, local)`` complex matrix (in-process), or this rank's
            ``(1, local)`` row (SPMD); row ``r`` is rank ``r``'s data.
        sigma:
            Permutation of the ``n`` packed-index bits: the element at
            packed index ``i`` (``rank * local + offset``) moves to
            ``permute_bits(i, sigma)``.  Anything but a permutation of
            ``range(n)`` is a ``ValueError``.
        out:
            A C-contiguous array of ``shards``' shape that the new
            shards are written to and returned (``None``: a fresh one),
            so a caller can reuse the buffer the previous exchange freed.
        """
        local_bits = self.local_bits(len(sigma))
        if shards.shape != (self.num_ranks, 1 << local_bits):
            raise ValueError(
                f"a {len(sigma)}-bit plan over {self.num_ranks} ranks moves "
                f"{(self.num_ranks, 1 << local_bits)} shards, got "
                f"{shards.shape}"
            )
        view = permuted_view(shards.reshape(-1), sigma)
        if out is None:
            out = np.empty_like(shards, order="C")
        np.copyto(out.reshape(view.shape), view)
        return out

    def allgather_rows(self, shards):
        """The full ``(R, 2^l)`` shard matrix, gathered if necessary.

        Diagnostic collective (``to_full`` / verification); its traffic
        is *not* part of the engine's exchange accounting.
        """
        return shards

    # -- management -----------------------------------------------------------

    def reset_stats(self) -> CommStats:
        """Return accumulated stats and start a fresh accumulation."""
        out = self.stats
        self.stats = CommStats()
        return out

    def close(self) -> None:
        """Release any connections (idempotent; nothing to release here)."""
