"""Sharded state vector over virtual ranks (Sec. III-D data layout).

Storage model: the packed storage index of an amplitude is a bit
permutation of its logical basis index, described by a
:class:`~repro.sv.layout.QubitLayout`.  Bits ``0..local_bits-1`` of the
packed index select the offset inside a rank's shard; bits
``local_bits..n-1`` select the rank.  Changing the layout therefore
requires moving amplitudes between ranks.  :class:`LayoutOnlyState`
charges a ``remap`` its closed-form traffic (dry runs, no amplitudes);
:class:`DistributedStateVector` adds the shards and moves them in a
single :meth:`~repro.runtime.comm.SimComm.exchange` of the
position-to-position permutation between the two layouts.  Sharding a
full vector and gathering one back are the same kind of permutation
(:func:`~repro.sv.layout.permuted_view`), from and to the identity
layout, so nothing here builds an index array.
:meth:`DistributedStateVector.run_plan` is the one way either engine
runs gates on the shards: the engines' layouts (and the IQS fast paths)
decide where qubits sit, never which kernel runs.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..runtime.comm import SimComm
from ..sv.backend import _gemm_columns, shared_backend
from ..sv.kernels import MIN_GEMM_COLUMNS, check_operands
from ..sv.layout import QubitLayout, permuted_view
from .analytic import exchange_step_stats
from .transport import AMP_BYTES

__all__ = ["LayoutOnlyState", "DistributedStateVector", "open_run", "AMP_BYTES"]


class LayoutOnlyState:
    """A distributed state with no amplitudes — layout and traffic only.

    The base of :class:`DistributedStateVector`: everything the engines'
    planning and accounting paths touch (``layout``, ``remap``,
    residency queries) with ``shards`` left ``None``.

    >>> from repro.runtime.comm import SimComm
    >>> from repro.sv.layout import QubitLayout
    >>> state = LayoutOnlyState(30, SimComm(8))    # paper width, no memory
    >>> state.local_bits, state.shards is None
    (27, True)
    >>> state.remap(QubitLayout([29] + list(range(29))))
    >>> state.comm.stats.total_msgs > 0            # traffic still recorded
    True
    """

    shards = None
    #: The buffer the last exchanging remap moved out of, which the next
    #: one writes to (``None``: none held).
    _spare = None

    def __init__(
        self,
        num_qubits: int,
        comm: SimComm,
        layout: Optional[QubitLayout] = None,
    ) -> None:
        self.local_bits = comm.local_bits(num_qubits)
        self.process_bits = num_qubits - self.local_bits
        self.num_qubits = num_qubits
        self.comm = comm
        self.layout = layout or QubitLayout.identity(num_qubits)
        if self.layout.n != num_qubits:
            raise ValueError("layout width does not match num_qubits")

    def local_qubits(self) -> List[int]:
        """Qubits currently stored in shard-offset positions (ascending)."""
        return sorted(self.layout.qubits_in_positions(0, self.local_bits))

    def process_qubits(self) -> List[int]:
        """Qubits currently stored in rank-address positions (ascending)."""
        return sorted(
            self.layout.qubits_in_positions(self.local_bits, self.num_qubits)
        )

    def is_local(self, qubit: int) -> bool:
        return self.layout.position(qubit) < self.local_bits

    def remap(self, new_layout: QubitLayout) -> None:
        """Move to ``new_layout``, exchanging amplitudes between ranks.

        Identical layouts are a true no-op, and a transition that only
        shuffles local positions records no exchange step either: no
        bytes cross a rank boundary, so it costs nothing — in the
        closed-form model and in an executed exchange alike.
        """
        if new_layout == self.layout:
            return
        if new_layout.n != self.num_qubits:
            raise ValueError("layout width does not match num_qubits")
        if self.comm.rank is None:
            # Every rank is in this process and nothing crosses a wire,
            # so the traffic is the closed form, dry run or not (a
            # socket rank records what it observes instead).
            step = exchange_step_stats(
                self.layout, new_layout, self.local_bits
            )
            if any(step):
                self.comm.stats.add_step(*step)
        if self.shards is not None:
            shards = self.comm.exchange(
                self.shards,
                self.layout.transition_sigma(new_layout),
                out=self._spare,
            )
            self._spare, self.shards = self.shards, shards
        self.layout = new_layout

    def release_spare(self) -> None:
        """Free the buffer :meth:`remap` keeps for its next exchange.

        Remaps ping-pong between ``shards`` and one spare buffer of the
        same size, so a run of them allocates once, and an engine
        releases the spare when its run ends: the state it returns
        holds its shards only."""
        self._spare = None


class DistributedStateVector(LayoutOnlyState):
    """A ``2^n`` state vector sharded over ``comm.num_ranks`` virtual ranks.

    Under an in-process comm, ``shards`` is the ``(R, 2^local_bits)``
    complex matrix whose row ``r`` is rank ``r``'s data, and
    ``shards.flat[p]`` holds the amplitude of logical basis state
    ``layout.logical_index(p)``.  Under an SPMD comm (``comm.rank`` set,
    e.g. a :class:`~repro.dist.transport.SocketTransport`), ``shards``
    is this rank's ``(1, 2^local_bits)`` row and the same invariant
    holds for the packed indices this rank owns
    (``rank * 2^local_bits + offset``); :meth:`remap` then moves
    amplitudes between OS processes and :meth:`to_full` gathers rows
    from every rank.  A remap hands the comm the bit permutation between
    the two layouts; in process its traffic is the closed form, over
    sockets what each rank observed.  It writes the new shards into the
    buffer the previous remap moved out of, so an array read from
    ``shards`` holds the state only until the second remap after it.

    >>> import numpy as np
    >>> from repro.runtime.comm import SimComm
    >>> from repro.sv.layout import QubitLayout
    >>> state = DistributedStateVector.zero(4, SimComm(4))
    >>> state.shards.shape, state.local_qubits()
    ((4, 4), [0, 1])
    >>> state.remap(QubitLayout([2, 3, 0, 1]))    # qubits 2,3 become local
    >>> state.local_qubits(), round(state.norm(), 12)
    ([2, 3], 1.0)
    >>> state.comm.stats.total_bytes, state.comm.stats.steps
    (192, 1)
    >>> int(np.argmax(np.abs(state.to_full())))   # still |0000>
    0
    """

    def __init__(
        self,
        num_qubits: int,
        comm: SimComm,
        shards: np.ndarray,
        layout: QubitLayout,
    ) -> None:
        super().__init__(num_qubits, comm, layout)
        # An in-process comm hosts every rank's row; an SPMD one its own.
        rows = comm.num_ranks if comm.rank is None else 1
        if shards.shape != (rows, 1 << self.local_bits):
            raise ValueError(
                f"shards must be {(rows, 1 << self.local_bits)}, "
                f"got {shards.shape}"
            )
        self.shards = shards

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, num_qubits: int, comm: SimComm) -> "DistributedStateVector":
        """``|0...0>`` sharded under the identity layout."""
        rows = comm.num_ranks if comm.rank is None else 1
        shards = np.zeros(
            (rows, 1 << comm.local_bits(num_qubits)), dtype=np.complex128
        )
        if comm.rank in (None, 0):  # packed index 0 lives on rank 0
            shards[0, 0] = 1.0
        return cls(num_qubits, comm, shards, QubitLayout.identity(num_qubits))

    @classmethod
    def from_full(
        cls,
        state: np.ndarray,
        comm: SimComm,
        layout: Optional[QubitLayout] = None,
    ) -> "DistributedStateVector":
        """Shard a full state vector (copied) under ``layout``."""
        state = np.asarray(state, dtype=np.complex128).reshape(-1)
        num_qubits = state.size.bit_length() - 1
        if state.size != 1 << num_qubits:
            raise ValueError("state length must be a power of two")
        local_bits = comm.local_bits(num_qubits)
        identity = QubitLayout.identity(num_qubits)
        if layout is None:
            layout = identity
        view = permuted_view(state, identity.transition_sigma(layout))
        if comm.rank is not None:  # the leading axes are the rank's bits
            process_bits = num_qubits - local_bits
            view = view[np.unravel_index(comm.rank, (2,) * process_bits)]
        shards = np.array(view, order="C").reshape(-1, 1 << local_bits)
        return cls(num_qubits, comm, shards, layout)

    def to_full(self) -> np.ndarray:
        """Gather the logical state vector (fresh array, any layout).

        Under an SPMD comm this is a collective: every rank must call
        it (rows are allgathered over the transport) and every rank
        returns the same full vector.  Gather traffic is diagnostic and
        is not recorded in the exchange accounting.
        """
        shards = self.comm.allgather_rows(self.shards)
        sigma = self.layout.transition_sigma(
            QubitLayout.identity(self.num_qubits)
        )
        view = permuted_view(shards.reshape(-1), sigma)
        return np.array(view, order="C").reshape(-1)

    # -- numerics -------------------------------------------------------------

    def norm(self) -> float:
        """Norm of the locally held rows (the global norm when all ranks
        are in-process; this rank's shard norm under an SPMD comm)."""
        return float(np.linalg.norm(self.shards))

    # -- local computation ----------------------------------------------------

    def run_plan(self, plan, backend) -> None:
        """Run a compiled part ``plan`` on the rows held here: every
        rank's shard in process, this rank's one row on a socket rank.

        The one way either engine runs gates.  The plan is renamed to
        the positions its qubits hold now and swept by
        ``backend.run_plan`` as one ``2^width`` state.  In process an
        operand on a rank bit is just a high bit of that state.  Rows
        narrower than ``MIN_GEMM_COLUMNS`` columns of the widest op run
        zero-padded: a socket rank's lone shard then takes the kernels
        (no BLAS edge kernel, no scalar loop) and bits of the in-process
        run over every rank's shard.
        """
        flat = self.shards.reshape(-1)
        width = flat.size.bit_length() - 1  # n, or local_bits on one rank
        plan = plan.relabel(map(self.layout.position, plan.qubits))
        grow = MIN_GEMM_COLUMNS // _gemm_columns(plan, width)
        if grow <= 1:
            backend.run_plan(plan, flat, width)
            return
        padded = np.zeros(flat.size * grow, dtype=flat.dtype)
        padded[: flat.size] = flat
        backend.run_plan(plan, padded, width + grow.bit_length() - 1)
        flat[:] = padded[: flat.size]

    # The perf harness's shard entry (``benchmarks/perf``); delete it
    # once the harness runs parts through :meth:`run_plan`.
    def apply_gate_local(self, gate, backend=None) -> None:
        """Apply ``gate`` (``matrix()``, ``qubits``, ``is_diagonal``)
        whose operands are all local to every row held here, through
        ``backend.apply_matrix_rows`` (``None``: the shared serial
        backend)."""
        check_operands(gate.qubits, self.num_qubits)
        positions = [self.layout.position(q) for q in gate.qubits]
        if any(p >= self.local_bits for p in positions):
            raise ValueError(
                f"operands {tuple(gate.qubits)} are not all local under "
                f"the current layout"
            )
        if backend is None:
            backend = shared_backend("serial")
        backend.apply_matrix_rows(
            self.shards, gate.matrix(), positions, self.local_bits,
            diagonal=gate.is_diagonal,
        )


def open_run(
    num_qubits: int,
    num_ranks: int,
    comm: Optional[SimComm],
    dry_run: bool,
    initial_full: Optional[np.ndarray] = None,
) -> LayoutOnlyState:
    """Open an engine run: check (or build) the comm, return the state.

    An injected ``comm`` must span ``num_ranks`` ranks and has its stats
    reset so the report covers exactly this run; ``None`` builds a fresh
    in-process one.  State construction checks the rank count against
    the register width, and an ``initial_full`` of any other width than
    ``num_qubits`` is refused here, before the comm is touched.
    ``dry_run`` returns a :class:`LayoutOnlyState` and accepts neither
    an initial state nor an SPMD comm (closed-form steps are cluster
    totals).
    """
    if dry_run and initial_full is not None:
        raise ValueError("dry_run cannot execute an initial state")
    if initial_full is not None and np.size(initial_full) != 1 << num_qubits:
        size = np.size(initial_full)
        raise ValueError(
            f"initial_full has {size} amplitudes (a {size.bit_length() - 1}"
            f"-qubit state) but the circuit has {num_qubits} qubits"
        )
    if comm is None:
        comm = SimComm(num_ranks)
    if comm.num_ranks != num_ranks:
        raise ValueError(
            f"comm spans {comm.num_ranks} ranks, engine wants {num_ranks}"
        )
    if dry_run and comm.rank is not None:
        raise ValueError("dry_run needs an in-process comm (no SPMD)")
    comm.reset_stats()
    if dry_run:
        return LayoutOnlyState(num_qubits, comm)
    if initial_full is not None:
        return DistributedStateVector.from_full(initial_full, comm)
    return DistributedStateVector.zero(num_qubits, comm)
