"""Closed-form exchange accounting and the amplitude-free state.

Dry-run engines at paper widths (30+ qubits, up to 1024 ranks) cannot
materialise amplitudes, but every reproduced figure needs the *exact*
traffic a real run would generate.  :func:`exchange_step_stats` computes,
in O(n) for a layout transition, the same four numbers
:meth:`~repro.runtime.comm.SimComm.alltoall_permute` would record after
actually scattering ``2^n`` amplitudes; :class:`LayoutOnlyState` is the
drop-in state object that records those numbers on ``remap``.

Derivation.  A layout change is a permutation ``sigma`` of storage-bit
positions.  Write ``l = local_bits`` and ``p`` process bits (``R = 2^p``
ranks).  The destination **rank** of an element is read off the new
process positions; each such position sources its bit either from an old
process position (fixed per source rank) or from an old local position
(free — it varies over the shard).  With ``k`` rank bits sourced from
local positions, every source rank scatters its shard evenly over ``2^k``
destination ranks in messages of ``2^(l-k)`` amplitudes, and — because the
map is a bit permutation — every destination symmetrically receives
``2^k`` equal messages.  A rank keeps a message for itself iff its fixed
destination bits reproduce its own bits; the rank-bit equalities involved
form a union-find structure whose component count ``c`` gives the number
of such ranks as ``2^c``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..runtime.comm import SimComm
from ..sv.layout import QubitLayout
from .state import AMP_BYTES, LayoutQueriesMixin, _split_bits

__all__ = [
    "exchange_step_stats",
    "exchange_rank_stats",
    "engine_exchange_layouts",
    "verify_exchange_records",
    "LayoutOnlyState",
]


def exchange_step_stats(
    old: QubitLayout, new: QubitLayout, local_bits: int
) -> Tuple[int, int, int, int]:
    """Traffic of the ``old -> new`` exchange at the given shard split.

    Returns ``(total_bytes, total_msgs, max_bytes_per_rank,
    max_msgs_per_rank)`` — exactly the step
    :meth:`~repro.runtime.comm.SimComm.alltoall_permute` would add, with
    diagonal (rank-to-self) traffic excluded.

    >>> from repro.sv.layout import QubitLayout
    >>> old, new = QubitLayout.identity(4), QubitLayout([2, 1, 0, 3])
    >>> exchange_step_stats(old, old, local_bits=2)     # no movement
    (0, 0, 0, 0)
    >>> exchange_step_stats(old, new, local_bits=2)     # qubit 0 <-> 2
    (128, 4, 32, 1)
    """
    n = old.n
    if new.n != n:
        raise ValueError("layout size mismatch")
    if not 0 <= local_bits <= n:
        raise ValueError("local_bits out of range")
    process_bits = n - local_bits
    if old == new or process_bits == 0:
        return (0, 0, 0, 0)

    sigma = old.transition_sigma(new)  # old position -> new position
    source_of = [0] * n  # new position -> old position
    for old_pos, new_pos in enumerate(sigma):
        source_of[new_pos] = old_pos

    # k: destination-rank bits sourced from old *local* positions.
    k = sum(
        1
        for j in range(process_bits)
        if source_of[local_bits + j] < local_bits
    )

    # Self-message ranks: bits sourced from process positions pin
    # ``r[i] == r[j]``; count satisfying ranks via union-find components.
    parent = list(range(process_bits))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for j in range(process_bits):
        src = source_of[local_bits + j]
        if src >= local_bits:
            ri, rj = find(src - local_bits), find(j)
            if ri != rj:
                parent[ri] = rj
    components = len({find(i) for i in range(process_bits)})
    self_ranks = 1 << components  # ranks whose destination set includes self

    num_ranks = 1 << process_bits
    fanout = 1 << k  # destination ranks per source rank
    if k == 0 and self_ranks == num_ranks:
        # Process mapping is the identity: local-only shuffle, no traffic.
        return (0, 0, 0, 0)
    msg_bytes = AMP_BYTES << (local_bits - k)
    total_msgs = num_ranks * fanout - self_ranks
    total_bytes = total_msgs * msg_bytes
    # Per-rank, bytes/messages out equal bytes/messages in (the diagonal
    # entry is shared); the busiest rank is any without a self-message.
    busiest_msgs = fanout - (1 if self_ranks == num_ranks else 0)
    return (total_bytes, total_msgs, busiest_msgs * msg_bytes, busiest_msgs)


def exchange_rank_stats(
    old: QubitLayout, new: QubitLayout, local_bits: int, rank: int
) -> Tuple[int, int, int, int]:
    """One rank's off-diagonal traffic for the ``old -> new`` exchange.

    Returns ``(sent_bytes, sent_msgs, recv_bytes, recv_msgs)`` — the
    amplitude payload ``rank`` ships to and receives from *other* ranks,
    the numbers a real transport (``SocketTransport.records``) must
    reproduce exactly.  Because the exchange is a bit permutation, a
    rank's send and receive sides are always equal, and its destination
    set contains itself iff its source set does: with ``k`` destination
    rank bits sourced from old local positions, every rank exchanges
    ``2^k`` messages of ``2^(l-k)`` amplitudes each way, minus the
    self-message when every fixed destination bit reproduces the rank's
    own bits.  Summed over ranks, the send side equals
    :func:`exchange_step_stats`' ``total_bytes``/``total_msgs``.

    >>> from repro.sv.layout import QubitLayout
    >>> old, new = QubitLayout.identity(4), QubitLayout([2, 1, 0, 3])
    >>> [exchange_rank_stats(old, new, 2, r) for r in range(4)]
    [(32, 1, 32, 1), (32, 1, 32, 1), (32, 1, 32, 1), (32, 1, 32, 1)]
    >>> exchange_rank_stats(old, old, 2, 0)
    (0, 0, 0, 0)
    """
    n = old.n
    if new.n != n:
        raise ValueError("layout size mismatch")
    if not 0 <= local_bits <= n:
        raise ValueError("local_bits out of range")
    process_bits = n - local_bits
    if not 0 <= rank < (1 << process_bits):
        raise ValueError(f"rank {rank} out of range")
    if old == new or process_bits == 0:
        return (0, 0, 0, 0)

    sigma = old.transition_sigma(new)  # old position -> new position
    source_of = [0] * n  # new position -> old position
    for old_pos, new_pos in enumerate(sigma):
        source_of[new_pos] = old_pos

    k = 0
    self_message = True
    for j in range(process_bits):
        src = source_of[local_bits + j]
        if src < local_bits:
            k += 1
        elif (rank >> (src - local_bits)) & 1 != (rank >> j) & 1:
            # A fixed destination bit differs from this rank's own bit:
            # the rank's destination set cannot contain itself.
            self_message = False
    msgs = (1 << k) - (1 if self_message else 0)
    if msgs == 0:
        return (0, 0, 0, 0)
    msg_bytes = AMP_BYTES << (local_bits - k)
    return (msgs * msg_bytes, msgs, msgs * msg_bytes, msgs)


def engine_exchange_layouts(
    partition, num_qubits: int, num_ranks: int
) -> List[Tuple[QubitLayout, QubitLayout]]:
    """The layout transitions :class:`~repro.dist.hisvsim.HiSVSimEngine`
    performs for ``partition`` — the dry-run oracle for real transports.

    Mirrors the engine's remap loop (minimal-motion planning with
    one-part lookahead, identical-layout remaps skipped), so entry ``i``
    corresponds one-to-one with the ``i``-th executed exchange of a real
    run: a :class:`~repro.dist.transport.SocketTransport`'s ``records``
    must match ``exchange_rank_stats`` of these transitions exactly.

    >>> from repro.circuits.generators import qft
    >>> from repro.partition import get_partitioner
    >>> qc = qft(6)
    >>> partition = get_partitioner("dagP").partition(qc, 4)
    >>> seq = engine_exchange_layouts(partition, 6, 4)
    >>> len(seq) >= 1 and all(a != b for a, b in seq)
    True
    """
    from .exchange import plan_layout_for_part

    process_bits = num_ranks.bit_length() - 1
    local_bits = num_qubits - process_bits
    layout = QubitLayout.identity(num_qubits)
    transitions: List[Tuple[QubitLayout, QubitLayout]] = []
    for i, part in enumerate(partition.parts):
        next_qubits = (
            partition.parts[i + 1].qubits
            if i + 1 < partition.num_parts
            else None
        )
        new = plan_layout_for_part(
            layout, part.qubits, local_bits, next_qubits
        )
        if new != layout:
            transitions.append((layout, new))
            layout = new
    return transitions


def verify_exchange_records(
    records, partition, num_qubits: int, ranks: int, rank: int
) -> List[str]:
    """Check one rank's observed exchanges against the dry-run model.

    ``records`` are the ``ExchangeRecord`` entries a transport collected
    while ``HiSVSimEngine`` ran ``partition`` over ``ranks`` ranks.
    Returns one line per disagreement (exchange count, or an exchange
    whose traffic differs from :func:`exchange_rank_stats`); an empty
    list means every byte on the wire was predicted.

    >>> from repro.circuits.generators import qft
    >>> from repro.partition import get_partitioner
    >>> partition = get_partitioner("dagP").partition(qft(6), 4)
    >>> verify_exchange_records([], partition, 6, 4, rank=0)[0]
    '0 exchanges executed, model expects 5'
    """
    expected = engine_exchange_layouts(partition, num_qubits, ranks)
    local_bits = num_qubits - (ranks.bit_length() - 1)
    problems = []
    if len(records) != len(expected):
        problems.append(
            f"{len(records)} exchanges executed, model expects "
            f"{len(expected)}"
        )
    for i, (rec, (old, new)) in enumerate(zip(records, expected)):
        model = exchange_rank_stats(old, new, local_bits, rank)
        observed = (
            rec.sent_bytes, rec.sent_msgs, rec.recv_bytes, rec.recv_msgs
        )
        if observed != model:
            problems.append(
                f"exchange {i}: observed {observed} != model {model}"
            )
    return problems


class LayoutOnlyState(LayoutQueriesMixin):
    """A distributed state with no amplitudes — layout and traffic only.

    Interface-compatible with
    :class:`~repro.dist.state.DistributedStateVector` for everything the
    engines' planning and accounting paths touch (``layout``, ``remap``,
    residency queries); ``shards`` is ``None``.

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

    def __init__(
        self,
        num_qubits: int,
        comm: SimComm,
        layout: Optional[QubitLayout] = None,
    ) -> None:
        process_bits = _split_bits(num_qubits, comm)
        self.num_qubits = num_qubits
        self.comm = comm
        self.layout = layout or QubitLayout.identity(num_qubits)
        if self.layout.n != num_qubits:
            raise ValueError("layout width does not match num_qubits")
        self.local_bits = num_qubits - process_bits
        self.process_bits = process_bits

    def remap(self, new_layout: QubitLayout) -> None:
        """Record the exchange a real remap would perform.

        Zero-traffic transitions (identical layouts, or local-only
        shuffles whose process mapping is the identity) record no step,
        agreeing with what the recording transport now does: a remap
        that moves no bytes across ranks costs nothing.
        """
        if new_layout == self.layout:
            return
        step = exchange_step_stats(self.layout, new_layout, self.local_bits)
        if any(step):
            self.comm.stats.add_step(*step)
        self.layout = new_layout
