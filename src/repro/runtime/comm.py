"""SimComm: the communicator of the distributed layer.

Substitute for MPI (see DESIGN.md): an exchange is described by
per-element destination (rank, offset) arrays — exactly the information
a real ``MPI_Alltoallv`` plan would carry — and the communicator both
executes the plan and accounts for it.  :class:`SimComm` is the
in-process implementation: all ``R`` ranks live in one process, each
owning a row of a ``(R, 2^l)`` shard matrix, an exchange is one
vectorised scatter, and bytes and message counts are recorded per
(src, dst) pair.  :class:`~repro.dist.transport.SocketTransport`
subclasses it to run one OS process per rank and move the same bytes
over TCP.  The mpi4py-style buffer discipline (no pickling, flat numpy
buffers, explicit plans) is preserved so the layer could be swapped for
real MPI without touching callers.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .metrics import CommStats

__all__ = ["SimComm"]


class SimComm:
    """An MPI-communicator stand-in over ``num_ranks`` in-process ranks.

    ``validate_plans=True`` checks every exchange plan for bijectivity
    before executing it (a corrupted plan would silently drop amplitudes
    in a scatter, exactly like overlapping MPI receive buffers would);
    engines construct plans from bit permutations so the default skips
    the O(N) check.  ``rank`` is ``None`` here (every rank lives in this
    process) and the local rank number in an SPMD subclass.

    >>> import numpy as np
    >>> comm = SimComm(2)
    >>> shards = np.arange(4, dtype=np.complex128).reshape(2, 2)
    >>> dest_rank = np.array([[0, 1], [0, 1]])
    >>> dest_offset = np.array([[0, 0], [1, 1]])
    >>> comm.exchange(shards, dest_rank, dest_offset).real
    array([[0., 2.],
           [1., 3.]])
    >>> comm.stats.total_bytes, comm.stats.steps
    (32, 1)
    """

    rank: Optional[int] = None

    def __init__(self, num_ranks: int, validate_plans: bool = False) -> None:
        if num_ranks < 1 or (num_ranks & (num_ranks - 1)) != 0:
            raise ValueError("num_ranks must be a positive power of two")
        self.num_ranks = num_ranks
        self.validate_plans = validate_plans
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

    def exchange(self, shards, dest_rank, dest_offset):
        """Execute a permutation exchange; returns the new shard matrix.

        Parameters
        ----------
        shards:
            ``(R, local)`` complex matrix (in-process), or this rank's
            ``(1, local)`` row (SPMD); row ``r`` is rank ``r``'s data.
        dest_rank, dest_offset:
            Same shape as ``shards``: element ``(r, o)`` moves to
            ``new[dest_rank[r, o], dest_offset[r, o]]``.  The map must
            be a bijection onto the full index space (checked under
            ``validate_plans``; otherwise by construction).

        A plan that moves nothing across ranks records no step: no-op
        and local-only remaps cost nothing, matching the closed-form
        model in :mod:`repro.dist.analytic`.
        """
        if dest_rank.shape != shards.shape or dest_offset.shape != shards.shape:
            raise ValueError("plan shape mismatch")
        R, local = shards.shape
        if R != self.num_ranks:
            raise ValueError(
                f"shards have {R} rows for a {self.num_ranks}-rank comm"
            )
        flat_dest = (
            dest_rank.astype(np.int64) * local + dest_offset.astype(np.int64)
        )
        if self.validate_plans:
            flat = flat_dest.reshape(-1)
            if flat.min() < 0 or flat.max() >= R * local:
                raise ValueError("exchange plan addresses out of range")
            if np.unique(flat).size != flat.size:
                raise ValueError("exchange plan is not a bijection")
        new_flat = np.empty(R * local, dtype=shards.dtype)
        new_flat[flat_dest.reshape(-1)] = shards.reshape(-1)

        # Accounting: off-diagonal traffic only.
        src = np.repeat(np.arange(R, dtype=np.int64), local)
        dst = dest_rank.reshape(-1).astype(np.int64)
        off_diag = src != dst
        itemsize = shards.dtype.itemsize
        if np.any(off_diag):
            pair_ids = src[off_diag] * R + dst[off_diag]
            counts = np.bincount(pair_ids, minlength=R * R)
            counts = counts.reshape(R, R)
            bytes_out = counts.sum(axis=1) * itemsize
            bytes_in = counts.sum(axis=0) * itemsize
            msgs_out = (counts > 0).sum(axis=1)
            msgs_in = (counts > 0).sum(axis=0)
            self.stats.add_step(
                total_bytes=int(counts.sum()) * itemsize,
                total_msgs=int((counts > 0).sum()),
                max_bytes=int(np.maximum(bytes_out, bytes_in).max()),
                max_msgs=int(np.maximum(msgs_out, msgs_in).max()),
            )
        return new_flat.reshape(R, local)

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
