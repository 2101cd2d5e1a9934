"""Closed-form exchange accounting: the dry-run traffic model.

Dry-run engines at paper widths (30+ qubits, up to 1024 ranks) cannot
materialise amplitudes, but every reproduced figure needs the *exact*
traffic a real run would generate.  :func:`exchange_step_stats` computes,
in O(n) for a layout transition, the same four numbers an elementwise
scatter of ``2^n`` amplitudes counts pair by pair (the tests' oracle);
:class:`~repro.dist.state.LayoutOnlyState` records them on ``remap``, for
dry and in-process runs alike.  :func:`exchange_rank_stats` is one rank's
share, the oracle :func:`verify_exchange_records` holds a socket run to.

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

from typing import List, Tuple

from ..sv.layout import QubitLayout
from .exchange import remap_schedule
from .transport import AMP_BYTES

__all__ = [
    "exchange_step_stats",
    "exchange_rank_stats",
    "engine_exchange_layouts",
    "verify_exchange_records",
]


def _rank_bit_sources(
    old: QubitLayout, new: QubitLayout, local_bits: int
) -> Tuple[int, List[Tuple[int, int]]]:
    """Where the ``old -> new`` transition sources its destination-rank bits.

    Returns ``(k, fixed)``: ``k`` bits come from old *local* positions
    (free: they vary over the shard); ``fixed`` lists ``(j, i)`` for each
    destination rank bit ``j`` copied from source rank bit ``i``.
    """
    if not 0 <= local_bits <= old.n:
        raise ValueError("local_bits out of range")
    # New position -> old position (raises on a layout size mismatch),
    # cut down to the positions that address the destination rank.
    rank_sources = new.transition_sigma(old)[local_bits:]
    fixed = [
        (j, src - local_bits)
        for j, src in enumerate(rank_sources)
        if src >= local_bits
    ]
    return len(rank_sources) - len(fixed), fixed


def exchange_step_stats(
    old: QubitLayout, new: QubitLayout, local_bits: int
) -> Tuple[int, int, int, int]:
    """Traffic of the ``old -> new`` exchange at the given shard split.

    Returns ``(total_bytes, total_msgs, max_bytes_per_rank,
    max_msgs_per_rank)`` — exactly the step an in-process ``remap``
    adds to its comm's stats, with diagonal (rank-to-self) traffic
    excluded.

    >>> from repro.sv.layout import QubitLayout
    >>> old, new = QubitLayout.identity(4), QubitLayout([2, 1, 0, 3])
    >>> exchange_step_stats(old, old, local_bits=2)     # no movement
    (0, 0, 0, 0)
    >>> exchange_step_stats(old, new, local_bits=2)     # qubit 0 <-> 2
    (128, 4, 32, 1)
    """
    k, fixed = _rank_bit_sources(old, new, local_bits)
    process_bits = old.n - local_bits

    # Self-message ranks: bits sourced from process positions pin
    # ``r[i] == r[j]``; count satisfying ranks via union-find components.
    parent = list(range(process_bits))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for j, i in fixed:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    components = len({find(i) for i in range(process_bits)})
    self_ranks = 1 << components  # ranks whose destination set includes self

    num_ranks = 1 << process_bits
    fanout = 1 << k  # destination ranks per source rank
    msg_bytes = AMP_BYTES << (local_bits - k)
    # An identity process mapping (same layout, one rank, a local-only
    # shuffle) has k == 0 and every rank a self-rank: all zeros below.
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
    k, fixed = _rank_bit_sources(old, new, local_bits)
    if not 0 <= rank < (1 << (old.n - local_bits)):
        raise ValueError(f"rank {rank} out of range")
    # A fixed destination bit that differs from the rank's own bit keeps
    # the rank out of its own destination set.
    self_message = all(
        (rank >> i) & 1 == (rank >> j) & 1 for j, i in fixed
    )
    msgs = (1 << k) - (1 if self_message else 0)
    msg_bytes = AMP_BYTES << (local_bits - k)
    return (msgs * msg_bytes, msgs, msgs * msg_bytes, msgs)


def engine_exchange_layouts(
    partition, num_qubits: int, num_ranks: int
) -> List[Tuple[QubitLayout, QubitLayout]]:
    """The layout transitions :class:`~repro.dist.hisvsim.HiSVSimEngine`
    performs for ``partition`` — the dry-run oracle for real transports.

    The changed layouts of :func:`~repro.dist.exchange.remap_schedule`
    (the schedule the engine itself executes), so entry ``i``
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
    local_bits = num_qubits - (num_ranks.bit_length() - 1)
    layouts = [
        QubitLayout.identity(num_qubits),
        *remap_schedule(partition, num_qubits, local_bits),
    ]
    return [(old, new) for old, new in zip(layouts, layouts[1:]) if old != new]


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
